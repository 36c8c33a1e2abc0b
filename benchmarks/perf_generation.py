"""Throughput harness for the full §5.5 scan pipeline at paper scale.

The paper's headline workload is "train on 1K addresses, generate 1M
candidates per network, score them against the oracles".  This harness
times every stage of that path — the ``EntropyIP.fit`` model fit itself
(vs the retained scalar ``_fit_reference`` path), BN sampling,
code→address decoding, dedup against the training set, the end-to-end
``AddressModel.generate_set`` loop, the ping/rDNS oracle membership
sweep, the complete ``scan_experiment``, a multi-round adaptive
``ScanCampaign``, and a 100-round fixed-size *steady-state* campaign on
the persistent-session engine (timed per round against the retained
re-seeding reference loop, which re-pays its history every round) —
for representative networks (S1: pseudo-random IIDs,
pure throughput; R1: low-entropy routers, heavy duplicate suppression
and real hits) and writes a JSON record so the perf trajectory is
trackable across PRs.

It is deliberately implementation-agnostic: it uses the vectorized
primitives (``decode_to_set``, ``contains_rows``, ``ping_mask``) when
present and falls back to the seed-era paths (``decode_matrix`` +
``from_ints``, Python int/set membership, ``ping_many``) otherwise.
Running it on the seed tree produced the checked-in baseline
``benchmarks/BENCH_baseline_seed.json``; subsequent runs report
per-stage speedups against that baseline.  Stages without a seed
baseline entry carry in-harness references measured on the same data:
the per-int ``ping()`` loop for the population sweep
(``speedup_vs_scalar``) and the PR-2 sorted searchsorted index for the
candidate-batch membership oracle (``speedup_vs_searchsorted``).  A
``workers`` stage runs the sharded engine at ``workers=1`` and
``workers=4`` on the same seed and records whether the outputs were
bit-identical.

``REPRO_BENCH_CANDIDATES`` scales *every* stage — generation and the
scan side (oracle sweep subsample, scalar reference, candidate batch,
scan experiment, campaign budget) — so CI smoke passes run the whole
pipeline small.

Two stages added with the fused pipeline PR: ``sample_decode_fused``
times :func:`repro.bayes.sampling.sample_packed` (BN states drawn
straight into the packed-uint64 row layout) against the retained
two-step ``sample_codes`` → ``decode_to_set`` reference on identical
RNG streams (``sample_decode_twostep``), recording bit-identity of the
packed rows; and a top-level ``backends`` record inserts ~10× the
candidate scale into the in-memory ``BucketTable`` and the /64-sharded
``ShardedBucketTable`` side by side (identical batches, periodic
``limit=`` rollbacks), verifying identical verdicts while timing both.

The serving-runtime PR adds a top-level ``service_throughput`` record:
concurrent client threads pulling generate requests through the
:class:`~repro.serve.service.HitlistService` facade, recording
requests/s with p50/p99 request latency and verifying every served
stream bit-identical to the serial direct-library reference
(``identical_to_direct``).

The streaming-ingest PR adds a top-level ``streaming_ingest`` record:
the :class:`~repro.ingest.IngestPipeline` fed a drifting temporal
snapshot series in batches, recording sustained ingest rows/s, refit
count and per-refit latency against the refit-every-batch reference
(a from-scratch ``EntropyIP.fit`` on the cumulative rows after every
batch), and verifying both land on the same final model digest
(``digest_equal_to_reference`` — the incremental path's bit-identity
contract).

The fault-tolerance PR adds a top-level ``fault_overhead`` record: the
same sharded draw timed disarmed (no fault plan) and under an armed
plan whose rules never match, recording the armed/disarmed wall-time
ratio (the whole measurable cost of the ``fault_point`` probes woven
into the shard tasks), a per-call microbenchmark of the disarmed
probe, and bit-identity of the two draws — consulting a site never
touches the stream.

Usage::

    PYTHONPATH=src python benchmarks/perf_generation.py \
        [--n 1000000] [--networks S1 R1] [--out BENCH_generation.json]

By default the record is written to ``benchmarks/out/`` (gitignored
scratch); set ``REPRO_BENCH_WRITE=1`` to update the committed
repo-root ``BENCH_generation.json`` — do that only from an idle host.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import threading
import time
from typing import Dict, List, Optional

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_baseline_seed.json"
DEFAULT_OUT = REPO_ROOT / "BENCH_generation.json"
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


def record_output_path() -> pathlib.Path:
    """Where a benchmark run writes its record.

    Defaults to the gitignored ``benchmarks/out/`` scratch directory so
    a casual (or loaded-host) run can never clobber the committed
    repo-root ``BENCH_generation.json``; exporting
    ``REPRO_BENCH_WRITE=1`` opts into updating the tracked record —
    only do that from an idle host (see ROADMAP perf notes).
    """
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        return DEFAULT_OUT
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR / "BENCH_generation.json"

#: Paper scale, overridable for reduced-size CI smoke passes.
DEFAULT_N_CANDIDATES = int(os.environ.get("REPRO_BENCH_CANDIDATES", 1_000_000))

TRAIN_SIZE = 1000
NETWORKS = ["S1", "R1"]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def measure_network(
    network_name: str,
    n_candidates: int,
    train_size: int = TRAIN_SIZE,
    seed: int = 0,
) -> Dict:
    """Time each generation stage for one network."""
    from repro.core.pipeline import EntropyIP
    from repro.datasets.networks import build_network
    from repro.ipv6.sets import AddressSet

    network = build_network(network_name)
    train = network.sample(train_size, seed=seed)
    analysis = EntropyIP.fit(train)
    model = analysis.model
    encoder = model.encoder

    stages: Dict[str, Dict[str, float]] = {}

    def record(name: str, seconds: float, rows: int):
        stages[name] = {
            "seconds": round(seconds, 6),
            "addresses_per_second": round(rows / seconds, 1) if seconds else 0.0,
        }

    # --- stage 0: the EntropyIP fit path itself ---------------------
    # Vectorized fit (segmentation → mining → structure learning) vs
    # the retained scalar reference (``EntropyIP._fit_reference``),
    # best of three each so one scheduler hiccup cannot decide the
    # reported ratio.  The golden-fit suite asserts the two paths
    # produce bit-identical models; here we only time them.
    fit_elapsed = min(
        _timed(lambda: EntropyIP.fit(train))[1] for _ in range(3)
    )
    record("fit", fit_elapsed, train_size)
    if hasattr(EntropyIP, "_fit_reference"):
        reference_elapsed = min(
            _timed(lambda: EntropyIP._fit_reference(train))[1]
            for _ in range(3)
        )
        record("fit_reference", reference_elapsed, train_size)
        if fit_elapsed:
            stages["fit"]["speedup_vs_reference"] = round(
                reference_elapsed / fit_elapsed, 2
            )

    # --- stage 1: BN forward sampling -------------------------------
    rng = np.random.default_rng(seed)
    codes, elapsed = _timed(lambda: model.sample_codes(n_candidates, rng))
    record("sample", elapsed, n_candidates)

    # --- stage 2: code matrix → addresses ---------------------------
    rng = np.random.default_rng(seed + 1)
    if hasattr(encoder, "decode_to_set"):
        decoded, elapsed = _timed(lambda: encoder.decode_to_set(codes, rng))
    else:  # seed path: Python-int assembly + hex re-parse
        def _seed_decode():
            values = encoder.decode_matrix(codes, rng)
            return AddressSet.from_ints(
                values, width=encoder.width, already_truncated=True
            )

        decoded, elapsed = _timed(_seed_decode)
    record("decode", elapsed, n_candidates)

    # --- stage 2b: fused sample→packed vs the two-step reference ----
    fused_stages = measure_fused_stage(model, n_candidates, seed)
    if fused_stages is not None:
        stages.update(fused_stages)

    # --- stage 3: dedup against the training set --------------------
    if hasattr(decoded, "contains_rows"):
        _, elapsed = _timed(lambda: train.contains_rows(decoded))
    else:  # seed path: per-address Python set membership
        def _seed_dedup():
            training = set(train.to_ints())
            return [v in training for v in decoded.to_ints()]

        _, elapsed = _timed(_seed_dedup)
    record("dedup", elapsed, n_candidates)

    # --- stage 4: end-to-end generate_set ---------------------------
    rng = np.random.default_rng(seed + 2)
    exclude = set(train.to_ints())
    generated, elapsed = _timed(
        lambda: model.generate_set(n_candidates, rng, exclude=exclude)
    )
    record("end_to_end", elapsed, len(generated))

    result = {
        "generated": len(generated),
        "stages": stages,
        "scan": measure_scan_stages(
            network, generated, n_candidates, train_size=train_size, seed=seed
        ),
    }

    # --- stage 5: sharded engine (workers=1 vs workers=4) -----------
    # Only present when the model supports the workers parameter; the
    # two runs share a seed, so bit-identical output is the engine's
    # determinism contract made measurable.
    workers_stage = measure_workers_stage(model, train, n_candidates, seed)
    if workers_stage is not None:
        result["workers"] = workers_stage
    return result


def measure_fused_stage(model, n_candidates: int, seed: int) -> Optional[Dict]:
    """Time the fused sample→packed path against the retained two-step
    reference on identical RNG streams.

    The two-step reference is the real pipeline the fused path
    replaces — ``sample_codes`` materializing the (n, num_vars) code
    matrix, then ``decode_to_set`` re-gathering it through the nybble
    tables — so the ratio is the fusion win, not a microbenchmark.
    Both paths draw from a fresh generator seeded identically and must
    produce bit-identical packed rows (the fused path consumes the RNG
    stream in exactly the reference's order); best of two per path so
    one scheduler hiccup cannot decide the reported ratio.  Returns
    None on trees without a fused plan (or encoders whose segment
    layout straddles a word boundary).
    """
    encoder = model.encoder
    if not hasattr(encoder, "fused_plan"):
        return None
    plan = encoder.fused_plan()
    if plan is None:
        return None
    from repro.bayes.sampling import sample_packed

    def two_step():
        rng = np.random.default_rng(seed + 5)
        codes = model.sample_codes(n_candidates, rng)
        return encoder.decode_to_set(codes, rng, validate=False)

    def fused():
        rng = np.random.default_rng(seed + 5)
        return sample_packed(model.network, plan, n_candidates, rng)

    reference, twostep_elapsed = _timed(two_step)
    fused_words, fused_elapsed = _timed(fused)
    _, again = _timed(two_step)
    twostep_elapsed = min(twostep_elapsed, again)
    _, again = _timed(fused)
    fused_elapsed = min(fused_elapsed, again)
    return {
        "sample_decode_twostep": {
            "seconds": round(twostep_elapsed, 6),
            "addresses_per_second": (
                round(n_candidates / twostep_elapsed, 1)
                if twostep_elapsed
                else 0.0
            ),
        },
        "sample_decode_fused": {
            "seconds": round(fused_elapsed, 6),
            "addresses_per_second": (
                round(n_candidates / fused_elapsed, 1)
                if fused_elapsed
                else 0.0
            ),
            "bit_identical": bool(
                np.array_equal(fused_words, reference.packed_rows())
            ),
            "speedup_vs_twostep": (
                round(twostep_elapsed / fused_elapsed, 2)
                if fused_elapsed
                else 0.0
            ),
        },
    }


def measure_workers_stage(
    model, train, n_candidates: int, seed: int
) -> Optional[Dict]:
    """Time sharded generation and verify worker-count invariance."""
    import inspect

    if "workers" not in inspect.signature(model.generate_set).parameters:
        return None
    runs = {}
    for workers in (1, 4):
        rng = np.random.default_rng(seed + 3)
        out, elapsed = _timed(
            lambda: model.generate_set(
                n_candidates, rng, exclude=train, workers=workers
            )
        )
        runs[workers] = (out, elapsed)
    serial, parallel = runs[1][0], runs[4][0]
    return {
        "workers_1_seconds": round(runs[1][1], 6),
        "workers_4_seconds": round(runs[4][1], 6),
        "addresses_per_second": (
            round(len(parallel) / runs[4][1], 1) if runs[4][1] else 0.0
        ),
        "bit_identical": bool(
            serial.matrix.shape == parallel.matrix.shape
            and np.array_equal(serial.matrix, parallel.matrix)
        ),
    }


#: Subsample size for the in-harness scalar oracle reference (the
#: per-int ``ping()`` loop is ~3 orders of magnitude slower, so it is
#: timed on a slice and reported as extrapolated addr/s).
SCALAR_ORACLE_SAMPLE = 50_000

#: Below this candidate count the run is a smoke pass: fixed costs
#: (training-set size, observed dataset) shrink along with the batch.
SMOKE_THRESHOLD = 200_000

#: Probe budget / round size of the adaptive-campaign stage.
CAMPAIGN_BUDGET = 150_000
CAMPAIGN_ROUND = 50_000

#: The steady-state campaign stage: many fixed-size rounds, so the
#: per-round cost curve (and the re-seeding reference's quadratic
#: history cost) is actually observable.  Flatness is gated on the
#: *second half* of the rounds — the steady-state window, after the
#: session's working set has aged past the young-campaign transient
#: (a growing table's per-probe cost rises with cache residency while
#: it is small; claiming a 1k-row round and a 100k-row round cost the
#: same would gate cache physics, not the accounting this stage
#: exists to check).
STEADY_ROUNDS = 100
STEADY_BUDGET = 200_000


def measure_membership_oracle(
    responder, candidates, bucket_record: Dict
) -> Optional[Dict]:
    """Time the PR-2 searchsorted membership path on the same batch.

    Both indexes are pre-built outside the timed region, so the two
    numbers compare pure random-probe cost: the bucket table's ~1-2
    gathers per row against the sorted index's log2(n) binary-search
    steps.  Attaches ``speedup_vs_searchsorted`` to the bucket stage.
    Returns None on trees without the sorted reference path.
    """
    population = getattr(responder, "_population", None)
    if population is None or not hasattr(population, "_match_rows_sorted"):
        return None
    population.match_rows(candidates)  # warm the bucket index
    population._match_rows_sorted(candidates)  # warm the sorted index
    # Best of three per path: a single warm probe is ~100 ms at paper
    # scale, small enough that one scheduler hiccup would otherwise
    # decide the reported ratio.
    bucket_positions, bucket_elapsed = _timed(
        lambda: population.match_rows(candidates)
    )
    sorted_positions, sorted_elapsed = _timed(
        lambda: population._match_rows_sorted(candidates)
    )
    for _ in range(2):
        _, again = _timed(lambda: population.match_rows(candidates))
        bucket_elapsed = min(bucket_elapsed, again)
        _, again = _timed(lambda: population._match_rows_sorted(candidates))
        sorted_elapsed = min(sorted_elapsed, again)
    assert np.array_equal(bucket_positions, sorted_positions)
    # Re-time the bucket probe warm (the candidate_oracle stage above
    # included building the index and gathering verdicts).
    bucket_record["warm_probe_seconds"] = round(bucket_elapsed, 6)
    if bucket_elapsed:
        bucket_record["speedup_vs_searchsorted"] = round(
            sorted_elapsed / bucket_elapsed, 2
        )
    return {
        "seconds": round(sorted_elapsed, 6),
        "addresses_per_second": (
            round(len(candidates) / sorted_elapsed, 1)
            if sorted_elapsed
            else 0.0
        ),
    }


def measure_scan_stages(
    network,
    candidates,
    n_candidates: int,
    train_size: int = TRAIN_SIZE,
    seed: int = 0,
) -> Dict:
    """Time the scan-side §5.5 stages: oracle sweep, full experiment,
    multi-round adaptive campaign.

    ``candidates`` is the pre-generated :class:`AddressSet` batch from
    the generation stages (the oracle timing should not re-pay for
    generation).
    """
    from repro.scan.campaign import run_campaign
    from repro.scan.evaluate import scan_experiment
    from repro.scan.responder import SimulatedResponder

    full_population = network.population(seed)
    # Honor the requested scale uniformly: a reduced-size smoke pass
    # sweeps a (deterministic) population subsample instead of paying
    # for the full deployment.
    if n_candidates < len(full_population):
        population = full_population.sample(
            n_candidates, np.random.default_rng(seed + 99)
        )
    else:
        population = full_population
    responder = SimulatedResponder(
        population,
        ping_rate=network.ping_rate,
        rdns_rate=network.rdns_rate,
        seed=seed,
    )
    stages: Dict[str, Dict] = {}

    # --- oracle: full ping sweep over the deployed population -------
    # Every member pays the keyed hash — the per-hit cost of scoring,
    # and the whole of the seed's per-int ``responding_population``
    # loop.  A fresh responder is timed so no lazy cache is pre-warmed.
    cold = SimulatedResponder(
        population,
        ping_rate=network.ping_rate,
        rdns_rate=network.rdns_rate,
        seed=seed,
    )
    if hasattr(cold, "responding_set"):
        _, elapsed = _timed(cold.responding_set)
    else:  # seed path: the per-int loop (returns Python ints)
        _, elapsed = _timed(cold.responding_population)
    stages["oracle"] = {
        "seconds": round(elapsed, 6),
        "addresses_per_second": (
            round(len(population) / elapsed, 1) if elapsed else 0.0
        ),
    }

    # --- scalar reference: the seed's per-int population sweep ------
    scalar_sample = min(SCALAR_ORACLE_SAMPLE, n_candidates)
    members = sorted(set(population.to_ints()))[:scalar_sample]
    responder.ping(0)  # materialize the lazy member set outside timing
    _, elapsed = _timed(lambda: [v for v in members if responder.ping(v)])
    scalar_rate = round(len(members) / elapsed, 1) if elapsed else 0.0
    stages["oracle_scalar_reference"] = {
        "seconds": round(elapsed, 6),
        "sample": len(members),
        "addresses_per_second": scalar_rate,
    }
    if scalar_rate:
        stages["oracle"]["speedup_vs_scalar"] = round(
            stages["oracle"]["addresses_per_second"] / scalar_rate, 2
        )

    # --- oracle over the generated 1M-candidate batch ---------------
    # Mostly non-members for sparse networks: membership-bound, the
    # batch cost ``scan_experiment`` pays three times.  Two references
    # ride along, timed on the same batch: cheap Python set misses on
    # a subsample (``speedup_vs_scalar``) and, when the bucket table is
    # live, the PR-2 sorted searchsorted index at full batch size
    # (``speedup_vs_searchsorted``) with both indexes pre-built so the
    # comparison is pure query cost.
    if hasattr(responder, "ping_mask"):
        _, elapsed = _timed(lambda: responder.ping_mask(candidates))
    else:
        values = candidates.to_ints()
        _, elapsed = _timed(lambda: responder.ping_many(values))
    stages["candidate_oracle"] = {
        "seconds": round(elapsed, 6),
        "addresses_per_second": (
            round(len(candidates) / elapsed, 1) if elapsed else 0.0
        ),
    }
    sample = candidates.take(
        np.arange(min(len(candidates), scalar_sample))
    ).to_ints()
    _, elapsed = _timed(lambda: [v for v in sample if responder.ping(v)])
    if elapsed:
        stages["candidate_oracle"]["speedup_vs_scalar"] = round(
            stages["candidate_oracle"]["addresses_per_second"]
            / (len(sample) / elapsed),
            2,
        )
    bucket_stage = measure_membership_oracle(
        responder, candidates, stages["candidate_oracle"]
    )
    if bucket_stage is not None:
        stages["candidate_oracle_searchsorted_reference"] = bucket_stage

    # --- the complete Table 4 experiment at the requested scale -----
    # A smoke pass shrinks the training set and observed dataset along
    # with the candidate count, so the fixed model-fit cost cannot
    # dominate a reduced-size CI run; the full-scale defaults are
    # untouched.
    smoke = n_candidates < SMOKE_THRESHOLD
    experiment_train = (
        train_size if not smoke else max(100, n_candidates // 100)
    )
    experiment_dataset = (
        None
        if not smoke
        else max(
            experiment_train * 2 + 1,
            min(2 * n_candidates, len(full_population) // 2),
        )
    )
    result, elapsed = _timed(
        lambda: scan_experiment(
            network,
            train_size=experiment_train,
            n_candidates=n_candidates,
            dataset_size=experiment_dataset,
            seed=seed,
        )
    )
    stages["scan_experiment"] = {
        "seconds": round(elapsed, 6),
        "n_candidates": result.n_candidates,
        "candidates_per_second": (
            round(result.n_candidates / elapsed, 1) if elapsed else 0.0
        ),
        "found_overall": result.found_overall,
        "new_prefixes64": result.new_prefixes64,
    }

    # --- multi-round adaptive campaign (bootstrap loop) -------------
    train = network.sample(experiment_train, seed=seed)
    budget = min(CAMPAIGN_BUDGET, n_candidates)
    campaign, elapsed = _timed(
        lambda: run_campaign(
            train,
            responder,
            probe_budget=budget,
            round_size=max(budget // 3, 1),  # at least 3 rounds
            adaptive=True,
            seed=seed,
        )
    )
    stages["adaptive_campaign"] = {
        "seconds": round(elapsed, 6),
        "probes": campaign.total_probes,
        "probes_per_second": (
            round(campaign.total_probes / elapsed, 1) if elapsed else 0.0
        ),
        "rounds": len(campaign.rounds),
        "hits": campaign.total_hits,
        "new_prefixes64": len(campaign.discovered_prefixes64),
    }

    # --- steady-state campaign: many rounds at fixed size -----------
    steady = measure_campaign_steady_state(
        train, responder, n_candidates, seed=seed
    )
    if steady is not None:
        stages.update(steady)
    return stages


def measure_campaign_steady_state(
    train, responder, n_candidates: int, seed: int = 0
) -> Optional[Dict]:
    """Time a long fixed-round-size campaign on the persistent-session
    engine against the retained re-seeding reference loop.

    The steady-state claim is per-round cost staying ~flat however old
    the campaign gets — gated on the second half of the rounds (see
    the note at ``STEADY_ROUNDS``); the reference re-pays its history
    every round (re-seeded exclusion table, recomputed /64
    accounting), so its total grows quadratically with the round
    count.  Both runs use the same seed and must produce identical
    outcomes round for round (recorded as ``identical_to_reseed``).
    Returns None on trees without the reference loop.
    """
    from repro.scan.campaign import ScanCampaign

    if not hasattr(ScanCampaign, "_run_reseed_reference"):
        return None
    budget = min(STEADY_BUDGET, n_candidates)
    round_size = max(budget // STEADY_ROUNDS, 1)

    def build():
        return ScanCampaign(
            train,
            responder,
            probe_budget=budget,
            round_size=round_size,
            adaptive=False,
            seed=seed,
        )

    session_result, session_elapsed = _timed(lambda: build().run())
    reseed_result, reseed_elapsed = _timed(
        lambda: build()._run_reseed_reference()
    )
    per_round = [r.seconds for r in session_result.rounds]
    # The steady-state window: the second half of the campaign, where
    # the session already carries half the final history.
    window = per_round[len(per_round) // 2:]
    first5 = sum(window[:5]) / max(len(window[:5]), 1)
    last5 = sum(window[-5:]) / max(len(window[-5:]), 1)
    identical = (
        session_result.discovered == reseed_result.discovered
        and session_result.discovered_prefixes64
        == reseed_result.discovered_prefixes64
        and [
            (r.probes_sent, r.hits, r.cumulative_probes, r.cumulative_hits,
             r.new_prefixes64)
            for r in session_result.rounds
        ]
        == [
            (r.probes_sent, r.hits, r.cumulative_probes, r.cumulative_hits,
             r.new_prefixes64)
            for r in reseed_result.rounds
        ]
    )
    steady_stage = {
        "seconds": round(session_elapsed, 6),
        "probes": session_result.total_probes,
        "probes_per_second": (
            round(session_result.total_probes / session_elapsed, 1)
            if session_elapsed
            else 0.0
        ),
        "rounds": len(session_result.rounds),
        "round_size": round_size,
        "hits": session_result.total_hits,
        "window_rounds": len(window),
        "first5_round_seconds": round(first5, 6),
        "last5_round_seconds": round(last5, 6),
        "round_flatness_ratio": (
            round(last5 / first5, 3) if first5 else 0.0
        ),
        "identical_to_reseed": bool(identical),
    }
    if session_elapsed:
        steady_stage["speedup_vs_reseed"] = round(
            reseed_elapsed / session_elapsed, 2
        )
    return {
        "campaign_steady_state": steady_stage,
        "campaign_steady_state_reseed": {
            "seconds": round(reseed_elapsed, 6),
            "probes": reseed_result.total_probes,
            "probes_per_second": (
                round(reseed_result.total_probes / reseed_elapsed, 1)
                if reseed_elapsed
                else 0.0
            ),
            "rounds": len(reseed_result.rounds),
        },
    }


#: The service stage: this many client threads, each issuing this many
#: generate requests through the :class:`HitlistService` facade; the
#: candidate scale is split evenly across the requests so the stage's
#: total row volume tracks ``REPRO_BENCH_CANDIDATES`` like every other
#: stage.
SERVICE_CLIENTS = 4
SERVICE_REQUESTS_PER_CLIENT = 8
SERVICE_NETWORK = "S1"


def measure_service_stage(n_candidates: int, seed: int = 0) -> Optional[Dict]:
    """Drive the concurrent serving facade and verify bit-identity.

    ``SERVICE_CLIENTS`` threads hammer one :class:`HitlistService`
    (worker pool sized to the client count), each pulling
    ``SERVICE_REQUESTS_PER_CLIENT`` generate requests off its own warm
    stream.  Requests/s and per-request p50/p99 latency come from the
    service's own accounting (wall clock including queue wait — what a
    caller observes); afterwards every client's concatenated stream is
    replayed against the serial direct-library reference
    (``model.session(exclude=train)`` + ``generate_set`` on a fresh RNG
    with the same seed) and must be bit-identical
    (``identical_to_direct``).  ``overhead_vs_direct`` is the
    concurrent service wall time over the serial direct wall time for
    the same total row volume.  Returns None on trees without the
    serving runtime.
    """
    try:
        from repro.serve import HitlistService, ModelRegistry
    except ImportError:
        return None
    from repro.core.pipeline import EntropyIP
    from repro.datasets.networks import build_network

    network = build_network(SERVICE_NETWORK)
    train = network.sample(TRAIN_SIZE, seed=seed)
    analysis = EntropyIP.fit(train)
    total_requests = SERVICE_CLIENTS * SERVICE_REQUESTS_PER_CLIENT
    batch_rows = max(n_candidates // total_requests, 1)

    registry = ModelRegistry()
    registry.register(SERVICE_NETWORK, analysis)
    served: Dict[str, np.ndarray] = {}
    errors: List[BaseException] = []
    barrier = threading.Barrier(SERVICE_CLIENTS)

    def run_client(index: int, service) -> None:
        client = f"bench-{index}"
        try:
            barrier.wait()  # maximize interleaving
            batches = [
                service.generate(
                    SERVICE_NETWORK, client, batch_rows, seed=seed + index
                ).packed_rows()
                for _ in range(SERVICE_REQUESTS_PER_CLIENT)
            ]
            served[client] = np.vstack(batches)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    with HitlistService(
        registry=registry, workers=SERVICE_CLIENTS
    ) as service:
        threads = [
            threading.Thread(target=run_client, args=(index, service))
            for index in range(SERVICE_CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service_elapsed = time.perf_counter() - started
        stats = service.stats()
    if errors:
        raise errors[0]

    # The serial direct-library reference: the same per-client streams
    # drawn one after another with no service in the way.
    def direct() -> Dict[str, np.ndarray]:
        rows = {}
        for index in range(SERVICE_CLIENTS):
            session = analysis.model.session(exclude=train)
            rng = np.random.default_rng(seed + index)
            rows[f"bench-{index}"] = np.vstack(
                [
                    analysis.model.generate_set(
                        batch_rows, rng, state=session
                    ).packed_rows()
                    for _ in range(SERVICE_REQUESTS_PER_CLIENT)
                ]
            )
        return rows

    reference, direct_elapsed = _timed(direct)
    identical = all(
        np.array_equal(served[client], rows)
        for client, rows in reference.items()
    )
    generate_stats = stats["kinds"].get("generate", {})
    rows_total = total_requests * batch_rows
    return {
        "network": SERVICE_NETWORK,
        "clients": SERVICE_CLIENTS,
        "requests": total_requests,
        "rows_per_request": batch_rows,
        "seconds": round(service_elapsed, 6),
        "requests_per_second": (
            round(total_requests / service_elapsed, 1)
            if service_elapsed
            else 0.0
        ),
        "rows_per_second": (
            round(rows_total / service_elapsed, 1) if service_elapsed else 0.0
        ),
        "p50_ms": generate_stats.get("p50_ms", 0.0),
        "p99_ms": generate_stats.get("p99_ms", 0.0),
        "direct_seconds": round(direct_elapsed, 6),
        "overhead_vs_direct": (
            round(service_elapsed / direct_elapsed, 3)
            if direct_elapsed
            else 0.0
        ),
        "identical_to_direct": bool(identical),
    }


#: The backends stage inserts this multiple of the candidate scale —
#: at the default 1M that is a 10M-row exclusion set, one order past
#: the generation benchmark's own working set (the 100M-row target is
#: the same code path at 10x this, sized out of CI's time budget).
BACKEND_SCALE_MULTIPLIER = 10

#: Rows per insert batch (clamped to a tenth of the total for smoke
#: runs so the stage always sees multiple batches).
BACKEND_BATCH_ROWS = 1_000_000


def measure_backends_stage(n_candidates: int, seed: int = 0) -> Optional[Dict]:
    """Drive both AddressSet storage backends through an identical
    large-scale insert/lookup schedule and verify identical verdicts.

    Synthesizes ``BACKEND_SCALE_MULTIPLIER * n_candidates`` two-word
    rows with ~25% duplicate pressure (values drawn from a pool of
    0.75x the total; word 0 maps each value onto one of ~total/256
    distinct /64 prefixes, so shard routing sees realistic clustering
    — many IIDs per prefix, many prefixes per shard), then feeds the
    same batches to the in-memory ``BucketTable`` and the /64-sharded
    ``ShardedBucketTable``.  Every fourth batch runs through
    ``insert_packed(limit=)`` so the sharded backend's cross-shard
    rollback is exercised at scale.  Fresh-row masks and lookup
    verdicts must match batch for batch (``identical``); per-backend
    insert/lookup totals and the worst single-batch stall are timed.
    Returns None on trees without the backend module.
    """
    try:
        from repro.ipv6.backends import ShardedBucketTable
        from repro.ipv6.sets import BucketTable
    except ImportError:
        return None
    total = BACKEND_SCALE_MULTIPLIER * n_candidates
    word_count = 2
    batch_rows = max(min(BACKEND_BATCH_ROWS, total // 10), 1)
    pool = max(int(total * 0.75), 4)
    # ~256 IIDs per /64 prefix; both words derive from the same value
    # so duplicate rows stay duplicates across the whole row.
    num_prefixes64 = np.uint64(max(total // 256, 2))
    prefix_base = np.uint64(0x20010DB8 << 32)
    rng = np.random.default_rng(seed + 17)
    tables = {
        "memory": BucketTable(word_count),
        "sharded64": ShardedBucketTable(word_count),
    }
    stats = {
        name: {
            "insert_seconds": 0.0,
            "worst_batch_seconds": 0.0,
            "lookup_seconds": 0.0,
        }
        for name in tables
    }
    identical = True
    offered = 0
    lookup_rows = 0
    batch_index = 0
    while offered < total:
        m = min(batch_rows, total - offered)
        values = rng.integers(0, pool, size=m, dtype=np.int64).astype(
            np.uint64
        )
        words = np.empty((m, word_count), dtype=np.uint64)
        words[:, 0] = prefix_base + values % num_prefixes64
        words[:, 1] = values
        limit = None if batch_index % 4 else max(m // 2, 1)
        masks = {}
        for name, table in tables.items():
            started = time.perf_counter()
            masks[name] = table.insert_packed(words, limit=limit)
            elapsed = time.perf_counter() - started
            stats[name]["insert_seconds"] += elapsed
            stats[name]["worst_batch_seconds"] = max(
                stats[name]["worst_batch_seconds"], elapsed
            )
        identical = identical and bool(
            np.array_equal(masks["memory"], masks["sharded64"])
        )
        # Lookup parity on a probe slice: members interleaved with
        # guaranteed misses (a flipped high bit in the IID word).
        probe = words[:: max(m // 4096, 1)].copy()
        probe[::2, 1] ^= np.uint64(1) << np.uint64(63)
        lookup_rows += len(probe)
        hits = {}
        for name, table in tables.items():
            started = time.perf_counter()
            hits[name] = table.lookup(probe)
            stats[name]["lookup_seconds"] += time.perf_counter() - started
        identical = identical and bool(
            np.array_equal(hits["memory"], hits["sharded64"])
        )
        offered += m
        batch_index += 1
    identical = identical and bool(
        len(tables["memory"]) == len(tables["sharded64"])
    )
    record: Dict = {
        "rows_offered": offered,
        "distinct_rows": len(tables["memory"]),
        "scale_multiplier": BACKEND_SCALE_MULTIPLIER,
        "batches": batch_index,
        "lookup_rows": lookup_rows,
        "identical": identical,
    }
    for name, table in tables.items():
        entry = {
            "insert_seconds": round(stats[name]["insert_seconds"], 6),
            "insert_rows_per_second": (
                round(offered / stats[name]["insert_seconds"], 1)
                if stats[name]["insert_seconds"]
                else 0.0
            ),
            "worst_batch_seconds": round(
                stats[name]["worst_batch_seconds"], 6
            ),
            "lookup_seconds": round(stats[name]["lookup_seconds"], 6),
            "slot_count": table.slot_count,
        }
        record[name] = entry
    record["sharded64"]["shards"] = tables["sharded64"].shard_count
    record["sharded64"]["max_shard_rows"] = tables["sharded64"].max_shard_rows
    return record


#: The streaming-ingest stage: a drifting temporal feed (steady churn,
#: plus a renumbering event at the first post-training snapshot so the
#: event signal is observable undiluted) sliced into per-snapshot
#: batches.  The
#: snapshot sample size tracks the candidate scale (clamped so a smoke
#: pass still sees multiple refit-worthy windows) and the threshold
#: sits between churn noise and the renumbering signal on this feed;
#: ``min_refit_rows`` (one snapshot's worth of rows) keeps tiny pending
#: windows — whose small-sample JS noise swamps any threshold — from
#: firing on every batch.
INGEST_NETWORK = "S1"
INGEST_SNAPSHOTS = 6
INGEST_BATCHES_PER_SNAPSHOT = 3
INGEST_RENUMBER_AT = 1
INGEST_CHURN = 0.3
INGEST_THRESHOLD = 0.06


def measure_streaming_ingest_stage(
    n_candidates: int, seed: int = 0
) -> Optional[Dict]:
    """Drive the streaming-ingest pipeline over a drifting feed and
    compare it to the refit-every-batch reference.

    The pipeline fits on snapshot 0, then ingests every later snapshot
    in ``INGEST_BATCHES_PER_SNAPSHOT`` slices; drift-triggered refits
    run inline, and one forced catch-up refit at the end covers any
    still-pending rows so the final model spans the whole feed.  The
    reference pays a from-scratch ``EntropyIP.fit`` on the cumulative
    rows after *every* batch — the naive way to keep a model current.
    The two must land on the **same final digest** (the pipeline's
    bit-identity contract) while the pipeline pays strictly fewer
    refits; sustained ingest rows/s and per-refit latency are recorded.
    Returns None on trees without the ingest subsystem.
    """
    try:
        from repro.ingest import IngestConfig, IngestPipeline
    except ImportError:
        return None
    from repro.core.pipeline import EntropyIP
    from repro.datasets.networks import build_network
    from repro.datasets.temporal import SnapshotSeries, TemporalEvent
    from repro.ipv6.sets import AddressSet
    from repro.serve.registry import model_digest

    network = build_network(INGEST_NETWORK)
    sample_size = max(min(n_candidates // 400, 2500), 200)
    snapshots = SnapshotSeries(
        network,
        n_snapshots=INGEST_SNAPSHOTS,
        sample_size=sample_size,
        churn=INGEST_CHURN,
        events=(
            TemporalEvent(at_index=INGEST_RENUMBER_AT, kind="renumber"),
        ),
        seed=seed,
    ).build()
    train = snapshots[0]
    batches = []
    for snapshot in snapshots[1:]:
        bounds = np.linspace(
            0, len(snapshot), INGEST_BATCHES_PER_SNAPSHOT + 1, dtype=int
        )
        batches.extend(
            snapshot.take(range(low, high))
            for low, high in zip(bounds[:-1], bounds[1:])
        )

    analysis = EntropyIP.fit(train)
    pipeline = IngestPipeline(
        "bench",
        analysis,
        config=IngestConfig(
            threshold=INGEST_THRESHOLD, min_refit_rows=sample_size
        ),
    )
    started = time.perf_counter()
    for batch in batches:
        pipeline.ingest(batch)
    drift_refits = pipeline.refits
    if pipeline.pending_rows:
        pipeline.refit()  # catch up so the final model spans the feed
    ingest_elapsed = time.perf_counter() - started
    rows_ingested = pipeline.total_rows - len(train)

    # The refit-every-batch reference: a from-scratch fit on the
    # cumulative rows after each batch (final iteration == the full
    # cumulative fit the pipeline's last refit must reproduce).
    matrices = [train.matrix]
    reference = analysis
    started = time.perf_counter()
    for batch in batches:
        matrices.append(batch.matrix)
        reference = EntropyIP.fit(
            AddressSet(np.concatenate(matrices, axis=0))
        )
    reference_elapsed = time.perf_counter() - started
    reference_refits = len(batches)

    mean_refit = (
        pipeline.refit_seconds_total / pipeline.refits
        if pipeline.refits
        else 0.0
    )
    return {
        "network": INGEST_NETWORK,
        "snapshots": INGEST_SNAPSHOTS,
        "sample_size": sample_size,
        "batches": len(batches),
        "rows_ingested": rows_ingested,
        "seconds": round(ingest_elapsed, 6),
        "rows_per_second": (
            round(rows_ingested / ingest_elapsed, 1) if ingest_elapsed else 0.0
        ),
        "threshold": INGEST_THRESHOLD,
        "drift_refits": drift_refits,
        "refits": pipeline.refits,
        "refit_seconds_total": round(pipeline.refit_seconds_total, 6),
        "mean_refit_seconds": round(mean_refit, 6),
        "last_refit_seconds": round(pipeline.last_refit_seconds or 0.0, 6),
        "final_version": pipeline.version,
        "reference_refits": reference_refits,
        "reference_seconds": round(reference_elapsed, 6),
        "speedup_vs_refit_every_batch": (
            round(reference_elapsed / ingest_elapsed, 2)
            if ingest_elapsed
            else 0.0
        ),
        "digest_equal_to_reference": bool(
            pipeline.digest == model_digest(reference)
        ),
    }


def measure_fault_overhead_stage(
    n_candidates: int, seed: int = 0
) -> Optional[Dict]:
    """Price the fault-injection probes woven into the generation path.

    The fault harness plants a ``fault_point`` probe inside every
    per-shard task.  Disarmed (no plan)
    a probe is a single module-global read; armed with a plan whose
    rules never match it adds one site lookup per shard.  This stage
    times the identical sharded draw both ways on the same host — best
    of two per arm, interleaved, so one scheduler hiccup cannot decide
    the ratio — and reports ``overhead_ratio`` (armed/disarmed wall
    time, gated at full scale), a per-call microbenchmark of the
    disarmed probe, and bit-identity of the two draws: consulting a
    site must never touch the RNG stream.
    """
    import inspect

    from repro.core.pipeline import EntropyIP
    from repro.datasets.networks import build_network
    from repro.faults import FaultPlan, fault_point

    train = build_network("S1").sample(TRAIN_SIZE, seed=seed)
    model = EntropyIP.fit(train).model
    if "workers" not in inspect.signature(model.generate_set).parameters:
        return None

    def draw():
        rng = np.random.default_rng(seed + 11)
        return model.generate_set(n_candidates, rng, workers=2)

    def armed_draw():
        # A fresh plan per arm: the selector can never fire, so the
        # probes pay the full armed lookup on every shard without ever
        # injecting anything.
        with FaultPlan.parse(
            "pool.shard@999999999:raise=RuntimeError"
        ).armed():
            return _timed(draw)

    disarmed_out, disarmed_elapsed = _timed(draw)
    armed_out, armed_elapsed = armed_draw()
    _, again = _timed(draw)
    disarmed_elapsed = min(disarmed_elapsed, again)
    _, again = armed_draw()
    armed_elapsed = min(armed_elapsed, again)

    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        fault_point("pool.shard", call=0, shard=0)
    disarmed_site_ns = (time.perf_counter() - start) / calls * 1e9

    return {
        "disarmed_seconds": round(disarmed_elapsed, 6),
        "armed_seconds": round(armed_elapsed, 6),
        "addresses_per_second": (
            round(n_candidates / disarmed_elapsed, 1)
            if disarmed_elapsed
            else 0.0
        ),
        "overhead_ratio": (
            round(armed_elapsed / disarmed_elapsed, 3)
            if disarmed_elapsed
            else 0.0
        ),
        "disarmed_site_ns": round(disarmed_site_ns, 1),
        "bit_identical": bool(
            np.array_equal(disarmed_out.matrix, armed_out.matrix)
        ),
    }


def measure(
    n_candidates: int,
    networks: Optional[List[str]] = None,
    train_size: int = TRAIN_SIZE,
    seed: int = 0,
) -> Dict:
    """Measure every requested network; return the combined record."""
    result = {
        "n_candidates": n_candidates,
        "train_size": train_size,
        "networks": {
            name: measure_network(
                name, n_candidates, train_size=train_size, seed=seed
            )
            for name in (networks or NETWORKS)
        },
    }
    backends = measure_backends_stage(n_candidates, seed=seed)
    if backends is not None:
        result["backends"] = backends
    service = measure_service_stage(n_candidates, seed=seed)
    if service is not None:
        result["service_throughput"] = service
    ingest = measure_streaming_ingest_stage(n_candidates, seed=seed)
    if ingest is not None:
        result["streaming_ingest"] = ingest
    fault_overhead = measure_fault_overhead_stage(n_candidates, seed=seed)
    if fault_overhead is not None:
        result["fault_overhead"] = fault_overhead
    return result


def attach_speedups(result: Dict, baseline_path: pathlib.Path = BASELINE_PATH) -> Dict:
    """Add per-stage throughput speedups vs the checked-in seed baseline."""
    if not baseline_path.exists():
        return result
    baseline = json.loads(baseline_path.read_text())
    for name, record in result["networks"].items():
        base_stages = baseline.get("networks", {}).get(name, {}).get("stages", {})
        speedups = {}
        for stage_name, stage in record["stages"].items():
            base = base_stages.get(stage_name)
            if base and base.get("addresses_per_second"):
                speedups[stage_name] = round(
                    stage["addresses_per_second"]
                    / base["addresses_per_second"],
                    2,
                )
        record["speedup_vs_seed"] = speedups
    result["baseline"] = {
        "n_candidates": baseline.get("n_candidates"),
        "path": str(baseline_path.relative_to(REPO_ROOT)),
    }
    return result


def main(argv: Optional[list] = None) -> Dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=DEFAULT_N_CANDIDATES)
    parser.add_argument("--networks", nargs="+", default=NETWORKS)
    parser.add_argument("--train-size", type=int, default=TRAIN_SIZE)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help=(
            "record destination (default: benchmarks/out/, or the "
            "committed repo-root record when REPRO_BENCH_WRITE=1)"
        ),
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = record_output_path()

    result = measure(
        args.n,
        networks=args.networks,
        train_size=args.train_size,
        seed=args.seed,
    )
    result = attach_speedups(result)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    return result


if __name__ == "__main__":
    main()
