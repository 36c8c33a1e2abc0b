"""Generation + scan throughput benchmark (§5.5 at paper scale).

Runs the perf harness at the paper's 1M-candidate scale, writes the
result record (to ``benchmarks/out/`` by default; the committed
repo-root ``BENCH_generation.json`` only when ``REPRO_BENCH_WRITE=1``,
so a loaded-host run can never clobber the tracked perf trajectory),
and asserts the headline properties: a 1M-candidate end-to-end run
finishes far inside the CI budget, the vectorized generation stages
hold their speedups over the checked-in seed baseline, the fused
sample→packed path is bit-identical to — and ≥1.5x faster than — the
retained two-step ``sample_codes``/``decode_to_set`` reference on S1,
the vectorized ``EntropyIP.fit`` holds ≥3x per network and ≥5x
headline over the retained scalar ``_fit_reference`` path (the PR-4
fit-path rewrite), the scan-side oracle sweep holds ≥10x over its
per-int scalar reference, the bucket-table candidate-batch oracle
holds ≥2x over the PR-2 searchsorted path, the sharded engine's
``workers=4`` output is bit-identical to ``workers=1``, and the steady-state
campaign engine (persistent generation session + incremental
accounting) holds per-round cost ~flat across the steady window of a
100-round campaign and ≥2x end-to-end over the retained re-seeding
reference loop while matching it round for round, and the concurrent
``HitlistService`` facade serves client streams bit-identical to the
serial direct-library path while recording requests/s at p50/p99
request latency (the ``service_throughput`` stage), and the streaming
ingest pipeline lands on the refit-every-batch reference's exact final
model with strictly fewer refits — the drift signal firing on the
feed's renumbering event, not on every batch (the
``streaming_ingest`` stage), and the sharded engine's output is
bit-identical across worker counts (the ``workers`` stage).

With ``REPRO_BENCH_CANDIDATES`` set below the full scale the run is a
smoke pass: the whole pipeline still executes and the structural and
determinism assertions still apply, but throughput gates are skipped —
small batches cannot amortize fixed vectorization overheads, so
asserting ratios there would only measure noise.
"""

import json

from conftest import N_CANDIDATES, TRAIN_SIZE

from perf_generation import (
    SMOKE_THRESHOLD,
    attach_speedups,
    measure,
    record_output_path,
)

#: The acceptance budget for one end-to-end 1M-candidate run.
END_TO_END_BUDGET_SECONDS = 60.0

#: Stages the vectorized rewrite targets, each with its own floor.
#: The headline ≥10× must hold for at least one stage per network
#: (dedup sits at ~25-90×).  The decode floor is deliberately loose:
#: the stage is timed cold (first large decode of the process) and its
#: wall time is dominated by first-touch page faulting — it swings
#: ~0.3-1.4s for identical code on the same idle host — while the
#: fused-path gate below now carries the generation throughput
#: contract on a warm, best-of-two measurement.
VECTORIZED_STAGES = ("decode", "dedup")
MIN_STAGE_SPEEDUPS = {"decode": 2.5, "dedup": 8.0}
MIN_HEADLINE_SPEEDUP = 10.0

#: The fused sample→packed path (``sample_decode_fused``) must beat
#: the retained two-step reference by ≥1.2x on S1 (the pure-throughput
#: network) and be bit-identical on every network at any scale.  The
#: floor was re-anchored from 1.5x: the ratio drifts with host state
#: on this class of VM — ~2.1x at the PR-6 recording, a stable
#: ~1.25-1.4x on the identical unmodified tree measured weeks later —
#: while a real regression (fused no faster than two-step) reads ~1.0x.
MIN_FUSED_SPEEDUP = 1.2
FUSED_GATE_NETWORK = "S1"

#: End-to-end gates: the per-network floor guards noisy CI neighbours;
#: the headline was raised from 5x when the fused pipeline landed
#: (measured S1 ~5.1x, R1 ~6.2x idle).
MIN_END_TO_END_SPEEDUP = 4.0
MIN_END_TO_END_HEADLINE = 5.5

#: The array-native oracle must beat the per-int scalar loop by at
#: least this factor (measured in-harness, not against the seed file).
MIN_ORACLE_SPEEDUP = 10.0

#: The PR-4 fit-path gates: the vectorized ``EntropyIP.fit`` must beat
#: the retained scalar ``_fit_reference`` path by ≥3× on every
#: benchmark network (noisy-machine floor) and by ≥5× on at least one
#: (the acceptance headline; R1/S1 measure ~7.5×/~4.5-5× on an idle
#: host).  Both paths produce bit-identical models — asserted by
#: tests/core/test_fit_golden.py, not here.
MIN_FIT_SPEEDUP = 3.0
MIN_FIT_HEADLINE = 5.0

#: The bucket-table membership probe must beat the PR-2 searchsorted
#: index by at least this factor on the same candidate batch.
MIN_BUCKET_SPEEDUP = 2.0

#: Steady-state campaign gates: across a 100-round fixed-size campaign
#: the persistent-session engine must (a) hold per-round cost ~flat
#: over the steady-state window (the second half of the rounds: mean
#: of its last 5 rounds at most 1.5x the mean of its first 5 — the
#: re-seeding loop it replaced degrades monotonically with campaign
#: age) and (b) finish the whole campaign at least 2x faster than the
#: retained re-seeding reference loop on the same seed (measured
#: ~5.5-7.5x on this class of host).
MAX_STEADY_FLATNESS = 1.5
MIN_STEADY_SPEEDUP = 2.0
MIN_STEADY_WINDOW_ROUNDS = 25

#: Serving-facade gate: the concurrent service wall time for the full
#: request schedule may cost at most this multiple of the serial
#: direct-library wall time for the same row volume (the queue and
#: session bookkeeping ride on top of GIL-bound draws, so ~1.0 is the
#: expectation on an idle host; measured ~0.9-1.1).  Bit-identity of
#: every served stream to the direct path is asserted at any scale.
MAX_SERVICE_OVERHEAD = 1.5

#: Streaming-ingest gates.  At any scale (all deterministic): the
#: pipeline's final model must be bit-identical to the refit-every-batch
#: reference's (``digest_equal_to_reference``), it must pay strictly
#: fewer refits than the reference's one-per-batch, and the drift signal
#: must actually fire on the renumbering event (``drift_refits >= 1``).
#: At full scale: drift-triggered refits stay at or below half the
#: reference count (measured 1/15 on an idle host — one refit at the
#: event, quiescent through churn) and sustained ingest throughput
#: clears a loose floor (measured ~125k rows/s; the floor guards
#: order-of-magnitude regressions, not host noise).
MAX_INGEST_REFIT_FRACTION = 0.5
MIN_INGEST_ROWS_PER_SECOND = 2_000.0

#: Fault-harness gate.  The ``fault_point`` probes woven into the
#: shard tasks must be invisible: the armed-but-never-matching
#: draw may cost at most this multiple of the disarmed draw (expected
#: ~1.0 — the probe is one global read disarmed, one site lookup per
#: shard armed; the ceiling absorbs scheduler noise, not real cost),
#: and the two draws must be bit-identical at any scale.
MAX_FAULT_OVERHEAD = 1.25

#: Throughput gates only run at (near) paper scale; below the shared
#: smoke threshold the run is a smoke pass.
FULL_SCALE = N_CANDIDATES >= SMOKE_THRESHOLD


def test_perf_generation(benchmark, artifact):
    def run():
        return attach_speedups(
            measure(N_CANDIDATES, train_size=TRAIN_SIZE, seed=0)
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    record_output_path().write_text(json.dumps(result, indent=2) + "\n")
    lines = [f"Generation throughput (train={TRAIN_SIZE}, n={N_CANDIDATES})"]
    for name, record in result["networks"].items():
        for stage, data in record["stages"].items():
            speedup = record.get("speedup_vs_seed", {}).get(stage)
            suffix = f"  ({speedup}x vs seed)" if speedup else ""
            if not suffix and data.get("speedup_vs_reference"):
                suffix = f"  ({data['speedup_vs_reference']}x vs reference)"
            if not suffix and data.get("speedup_vs_twostep"):
                suffix = (
                    f"  ({data['speedup_vs_twostep']}x vs two-step, "
                    f"bit_identical={data['bit_identical']})"
                )
            lines.append(
                f"{name:>4} {stage:>10}: "
                f"{data['addresses_per_second']:>12,.0f} addr/s"
                f"{suffix}"
            )
        for stage, data in record.get("scan", {}).items():
            rate = (
                data.get("addresses_per_second")
                or data.get("candidates_per_second")
                or data.get("probes_per_second")
                or 0.0
            )
            speedup = data.get("speedup_vs_searchsorted") or data.get(
                "speedup_vs_scalar"
            )
            reference = (
                "searchsorted"
                if "speedup_vs_searchsorted" in data
                else "scalar"
            )
            suffix = f"  ({speedup}x vs {reference})" if speedup else ""
            lines.append(
                f"{name:>4} {'scan/' + stage:>42}: "
                f"{rate:>12,.0f} addr/s in {data['seconds']:.3f}s{suffix}"
            )
        workers = record.get("workers")
        if workers:
            lines.append(
                f"{name:>4} {'workers=4':>10}: "
                f"{workers['addresses_per_second']:>12,.0f} addr/s "
                f"(bit_identical={workers['bit_identical']})"
            )
    service = result.get("service_throughput")
    if service:
        lines.append(
            f"serve {service['clients']:>2} clients: "
            f"{service['requests_per_second']:>12,.1f} req/s "
            f"({service['rows_per_second']:,.0f} rows/s, "
            f"p50={service['p50_ms']}ms p99={service['p99_ms']}ms, "
            f"overhead={service['overhead_vs_direct']}x vs direct, "
            f"identical={service['identical_to_direct']})"
        )
    ingest = result.get("streaming_ingest")
    if ingest:
        lines.append(
            f"ingest {ingest['batches']:>2} batches: "
            f"{ingest['rows_per_second']:>12,.0f} rows/s "
            f"({ingest['refits']} refits vs "
            f"{ingest['reference_refits']} refit-every-batch, "
            f"mean refit {ingest['mean_refit_seconds']:.3f}s, "
            f"{ingest['speedup_vs_refit_every_batch']}x, "
            f"digest_equal={ingest['digest_equal_to_reference']})"
        )
    fault = result.get("fault_overhead")
    if fault:
        lines.append(
            f"fault sites: "
            f"{fault['addresses_per_second']:>12,.0f} addr/s disarmed "
            f"(armed/disarmed {fault['overhead_ratio']}x, "
            f"probe {fault['disarmed_site_ns']}ns, "
            f"bit_identical={fault['bit_identical']})"
        )
    artifact("perf_generation", "\n".join(lines))

    for name, record in result["networks"].items():
        assert record["generated"] == N_CANDIDATES, name
        scan = record["scan"]
        # Structural assertions hold at any scale.
        assert scan["scan_experiment"]["n_candidates"] > 0, name
        assert scan["adaptive_campaign"]["rounds"] >= 2, (
            name,
            scan["adaptive_campaign"],
        )
        # The sharded engine must be bit-identical at any scale.
        assert record["workers"]["bit_identical"], name
        # So must the fused sample→packed path vs the retained
        # two-step reference (same RNG stream, same rows).
        fused = record["stages"].get("sample_decode_fused")
        assert fused is not None and fused["bit_identical"], (name, fused)
        # The steady-state session engine must match the re-seeding
        # reference round for round at any scale (correctness, not
        # throughput).
        assert scan["campaign_steady_state"]["identical_to_reseed"], (
            name,
            scan["campaign_steady_state"],
        )

        if not FULL_SCALE:
            continue
        assert (
            record["stages"]["end_to_end"]["seconds"]
            * (1_000_000 / N_CANDIDATES)
            < END_TO_END_BUDGET_SECONDS
        ), name
        speedups = record.get("speedup_vs_seed")
        # The baseline file travels with the repo, so speedups exist.
        assert speedups, "missing benchmarks/BENCH_baseline_seed.json"
        for stage in VECTORIZED_STAGES:
            assert speedups[stage] >= MIN_STAGE_SPEEDUPS[stage], (
                name,
                stage,
                speedups,
            )
        assert (
            max(speedups[stage] for stage in VECTORIZED_STAGES)
            >= MIN_HEADLINE_SPEEDUP
        ), (name, speedups)
        assert speedups["end_to_end"] >= MIN_END_TO_END_SPEEDUP, (
            name,
            speedups,
        )

        # Fused-path throughput gate on the pure-throughput network.
        if name == FUSED_GATE_NETWORK:
            assert fused["speedup_vs_twostep"] >= MIN_FUSED_SPEEDUP, (
                name,
                fused,
            )

        # Scan-side gates: the population sweep must clear 10x over the
        # per-int scalar reference, and the bucket-table candidate
        # oracle must clear 2x over the searchsorted reference.
        assert (
            scan["oracle"]["speedup_vs_scalar"] >= MIN_ORACLE_SPEEDUP
        ), (name, scan["oracle"])
        assert (
            scan["candidate_oracle"]["speedup_vs_searchsorted"]
            >= MIN_BUCKET_SPEEDUP
        ), (name, scan["candidate_oracle"])

        # Fit-path gate: the vectorized EntropyIP.fit vs the retained
        # scalar reference, measured in-harness on the same training
        # set (best of three each).
        assert (
            record["stages"]["fit"]["speedup_vs_reference"]
            >= MIN_FIT_SPEEDUP
        ), (name, record["stages"]["fit"])

        # Steady-state campaign gates: enough rounds to observe the
        # cost curve, ~flat per-round time across the steady window,
        # and ≥2x end-to-end over the re-seeding reference loop.
        steady = scan["campaign_steady_state"]
        assert steady["window_rounds"] >= MIN_STEADY_WINDOW_ROUNDS, (
            name,
            steady,
        )
        assert steady["round_flatness_ratio"] <= MAX_STEADY_FLATNESS, (
            name,
            steady,
        )
        assert steady["speedup_vs_reseed"] >= MIN_STEADY_SPEEDUP, (
            name,
            steady,
        )

    # The concurrent serving facade must serve every client stream
    # bit-identical to the serial direct-library path, at any scale.
    service = result.get("service_throughput")
    assert service is not None and service["identical_to_direct"], service

    # Streaming ingest: the incremental pipeline must land on the
    # reference's exact final model with strictly fewer refits, and the
    # drift signal must fire on the renumbering event — all
    # deterministic, so asserted at any scale.
    ingest = result.get("streaming_ingest")
    assert ingest is not None and ingest["digest_equal_to_reference"], ingest
    assert ingest["refits"] < ingest["reference_refits"], ingest
    assert ingest["drift_refits"] >= 1, ingest

    # The fault-injection probes must never touch the stream (any
    # scale) and must cost nothing measurable (full scale).
    fault = result.get("fault_overhead")
    assert fault is not None, "fault_overhead stage missing"
    assert fault["bit_identical"], fault
    if FULL_SCALE:
        assert fault["overhead_ratio"] <= MAX_FAULT_OVERHEAD, fault
    if FULL_SCALE:
        assert (
            ingest["refits"]
            <= ingest["reference_refits"] * MAX_INGEST_REFIT_FRACTION
        ), ingest
        assert (
            ingest["rows_per_second"] >= MIN_INGEST_ROWS_PER_SECOND
        ), ingest

    if FULL_SCALE:
        # Latency accounting must be live and sane, and the facade may
        # not cost more than the loose overhead ceiling over direct.
        assert service["requests_per_second"] > 0, service
        assert service["p99_ms"] >= service["p50_ms"] > 0, service
        assert service["overhead_vs_direct"] <= MAX_SERVICE_OVERHEAD, service

    if FULL_SCALE:
        # The ≥5x fit headline must hold on at least one network.
        assert any(
            record["stages"]["fit"]["speedup_vs_reference"]
            >= MIN_FIT_HEADLINE
            for record in result["networks"].values()
        ), {
            name: record["stages"]["fit"].get("speedup_vs_reference")
            for name, record in result["networks"].items()
        }
        # The ≥5x end-to-end headline must hold somewhere (it holds on
        # every measured network on a quiet machine; the per-network
        # floor above guards regressions on noisy ones).
        assert any(
            record["speedup_vs_seed"]["end_to_end"] >= MIN_END_TO_END_HEADLINE
            for record in result["networks"].values()
        ), {
            name: record["speedup_vs_seed"]["end_to_end"]
            for name, record in result["networks"].items()
        }
