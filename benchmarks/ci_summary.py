"""Render BENCH_generation.json as a CI step-summary markdown table.

Usage::

    python benchmarks/ci_summary.py            # markdown to stdout
    python benchmarks/ci_summary.py --check    # exit 2 on gate regression

The perf CI job appends the markdown output to ``$GITHUB_STEP_SUMMARY``
(stage, addr/s, speedup vs the frozen seed baseline) and then runs
``--check``, which re-applies the same speedup gates the benchmark
suite asserts (see ``test_perf_generation``) so a regression turns the
(non-blocking) job red without anyone reading logs.  Gates only apply
to full-scale records; a reduced smoke record renders the table and
passes the check trivially.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List

from perf_generation import (
    BASELINE_PATH,
    DEFAULT_OUT,
    OUT_DIR,
    SMOKE_THRESHOLD,
)

#: Mirrors of the asserted gates in test_perf_generation (kept in one
#: import chain so they cannot drift).
from test_perf_generation import (
    FUSED_GATE_NETWORK,
    MAX_FAULT_OVERHEAD,
    MAX_INGEST_REFIT_FRACTION,
    MAX_SERVICE_OVERHEAD,
    MAX_STEADY_FLATNESS,
    MIN_BUCKET_SPEEDUP,
    MIN_END_TO_END_HEADLINE,
    MIN_END_TO_END_SPEEDUP,
    MIN_FIT_HEADLINE,
    MIN_FIT_SPEEDUP,
    MIN_FUSED_SPEEDUP,
    MIN_HEADLINE_SPEEDUP,
    MIN_INGEST_ROWS_PER_SECOND,
    MIN_ORACLE_SPEEDUP,
    MIN_STAGE_SPEEDUPS,
    MIN_STEADY_SPEEDUP,
    VECTORIZED_STAGES,
)

FULL_SCALE_THRESHOLD = SMOKE_THRESHOLD


def default_record_path() -> pathlib.Path:
    """The record to summarize when ``--record`` is not given.

    A benchmark run writes to ``benchmarks/out/`` unless
    ``REPRO_BENCH_WRITE=1`` updated the committed repo-root record, so
    the summary reads whichever of the two exists — the more recently
    written one when both do (the CI perf job's fresh run beats the
    committed snapshot riding along in the checkout).
    """
    scratch = OUT_DIR / "BENCH_generation.json"
    candidates = [p for p in (scratch, DEFAULT_OUT) if p.exists()]
    if not candidates:
        return DEFAULT_OUT
    return max(candidates, key=lambda p: p.stat().st_mtime)


def _rate(stage: Dict) -> float:
    return (
        stage.get("addresses_per_second")
        or stage.get("candidates_per_second")
        or stage.get("probes_per_second")
        or 0.0
    )


def render_markdown(record: Dict) -> str:
    """The step-summary table for one benchmark record."""
    n = record.get("n_candidates", 0)
    lines = [
        "## Generation perf benchmark",
        "",
        f"`n_candidates={n:,}`, train={record.get('train_size', '?')}, "
        f"baseline `{record.get('baseline', {}).get('path', 'none')}`",
        "",
        "| network | stage | addr/s | speedup vs seed |",
        "|---|---|---:|---:|",
    ]
    for name, network in record.get("networks", {}).items():
        speedups = network.get("speedup_vs_seed", {})
        for stage_name, stage in network.get("stages", {}).items():
            speedup = speedups.get(stage_name)
            cell = f"{speedup}x" if speedup else "—"
            if not speedup and stage.get("speedup_vs_reference"):
                # Fit stages measure in-harness against the retained
                # scalar _fit_reference path, not the seed baseline.
                cell = f"{stage['speedup_vs_reference']}x vs reference"
            if not speedup and stage.get("speedup_vs_twostep"):
                # The fused stage measures in-harness against the
                # retained two-step sample→decode reference.
                verdict = "✅" if stage.get("bit_identical") else "❌"
                cell = (
                    f"{stage['speedup_vs_twostep']}x vs two-step, "
                    f"bit-identical {verdict}"
                )
            lines.append(
                f"| {name} | {stage_name} | {_rate(stage):,.0f} | {cell} |"
            )
        for stage_name, stage in network.get("scan", {}).items():
            speedup = (
                stage.get("speedup_vs_searchsorted")
                or stage.get("speedup_vs_reseed")
                or stage.get("speedup_vs_scalar")
            )
            if "speedup_vs_searchsorted" in stage:
                reference = "vs searchsorted"
            elif "speedup_vs_reseed" in stage:
                reference = "vs reseed"
            else:
                reference = "vs scalar"
            cell = f"{speedup}x {reference}" if speedup else "—"
            if "round_flatness_ratio" in stage:
                cell += (
                    f", round flatness {stage['round_flatness_ratio']}"
                    if speedup
                    else ""
                )
            lines.append(
                f"| {name} | scan/{stage_name} | {_rate(stage):,.0f} | "
                f"{cell} |"
            )
        workers = network.get("workers")
        if workers:
            verdict = "✅" if workers.get("bit_identical") else "❌"
            lines.append(
                f"| {name} | workers=4 engine | "
                f"{workers.get('addresses_per_second', 0):,.0f} | "
                f"bit-identical {verdict} |"
            )
    backends = record.get("backends")
    if backends:
        verdict = "✅" if backends.get("identical") else "❌"
        for backend_name in ("memory", "sharded64"):
            stage = backends.get(backend_name)
            if not stage:
                continue
            lines.append(
                f"| — | backend/{backend_name} "
                f"({backends.get('rows_offered', 0):,} rows) | "
                f"{stage.get('insert_rows_per_second', 0):,.0f} | "
                f"identical verdicts {verdict} |"
            )
    service = record.get("service_throughput")
    if service:
        verdict = "✅" if service.get("identical_to_direct") else "❌"
        lines.append(
            f"| — | service_throughput ({service.get('clients', 0)} "
            f"clients × {service.get('requests', 0)} requests) | "
            f"{service.get('rows_per_second', 0):,.0f} | "
            f"{service.get('requests_per_second', 0):,.1f} req/s, "
            f"p50 {service.get('p50_ms', 0)}ms / "
            f"p99 {service.get('p99_ms', 0)}ms, "
            f"bit-identical {verdict} |"
        )
    ingest = record.get("streaming_ingest")
    if ingest:
        verdict = "✅" if ingest.get("digest_equal_to_reference") else "❌"
        lines.append(
            f"| — | streaming_ingest ({ingest.get('batches', 0)} batches, "
            f"{ingest.get('rows_ingested', 0):,} rows) | "
            f"{ingest.get('rows_per_second', 0):,.0f} | "
            f"{ingest.get('refits', 0)} refits vs "
            f"{ingest.get('reference_refits', 0)} refit-every-batch "
            f"({ingest.get('speedup_vs_refit_every_batch', 0)}x, mean refit "
            f"{ingest.get('mean_refit_seconds', 0)}s), "
            f"digest-identical {verdict} |"
        )
    fault = record.get("fault_overhead")
    if fault:
        verdict = "✅" if fault.get("bit_identical") else "❌"
        lines.append(
            f"| — | fault_overhead (disarmed sites) | "
            f"{fault.get('addresses_per_second', 0):,.0f} | "
            f"armed/disarmed {fault.get('overhead_ratio', 0)}x, "
            f"probe {fault.get('disarmed_site_ns', 0)}ns, "
            f"bit-identical {verdict} |"
        )
    return "\n".join(lines)


def check_gates(record: Dict) -> List[str]:
    """Re-apply the asserted speedup gates; return failure messages."""
    failures: List[str] = []
    networks = record.get("networks", {})
    if not networks:
        return ["record has no networks"]
    for name, network in networks.items():
        workers = network.get("workers")
        if workers is not None and not workers.get("bit_identical"):
            failures.append(f"{name}: workers=4 output not bit-identical")
        fused = network.get("stages", {}).get("sample_decode_fused")
        if fused is not None and not fused.get("bit_identical"):
            failures.append(
                f"{name}: fused sample→packed output not bit-identical "
                "to the two-step reference"
            )
        steady = network.get("scan", {}).get("campaign_steady_state")
        if steady is not None and not steady.get("identical_to_reseed"):
            failures.append(
                f"{name}: steady-state campaign diverged from the "
                "re-seeding reference"
            )
    backends = record.get("backends")
    if backends is not None and not backends.get("identical"):
        failures.append(
            "storage backends returned different verdicts under the "
            "identical insert/lookup schedule"
        )
    service = record.get("service_throughput")
    if service is not None and not service.get("identical_to_direct"):
        failures.append(
            "service-served streams not bit-identical to the direct "
            "library path"
        )
    ingest = record.get("streaming_ingest")
    if ingest is not None:
        # Deterministic correctness gates: applied at any scale.
        if not ingest.get("digest_equal_to_reference"):
            failures.append(
                "streaming ingest's final model digest differs from the "
                "refit-every-batch reference"
            )
        if ingest.get("refits", 0) >= ingest.get("reference_refits", 0):
            failures.append(
                f"streaming ingest paid {ingest.get('refits')} refits — "
                f"not fewer than the reference's "
                f"{ingest.get('reference_refits')} (one per batch)"
            )
        if ingest.get("drift_refits", 0) < 1:
            failures.append(
                "streaming ingest's drift signal never fired on the "
                "feed's renumbering event"
            )
    fault = record.get("fault_overhead")
    if fault is not None and not fault.get("bit_identical"):
        failures.append(
            "armed-but-never-matching fault plan changed the generated "
            "stream (disarmed vs armed draws differ)"
        )
    if record.get("n_candidates", 0) < FULL_SCALE_THRESHOLD:
        return failures  # smoke record: no throughput gates
    if fault is not None:
        ratio = fault.get("overhead_ratio", 0.0)
        if ratio > MAX_FAULT_OVERHEAD:
            failures.append(
                f"fault-site overhead {ratio}x > {MAX_FAULT_OVERHEAD}x "
                "(armed vs disarmed draw)"
            )
    if ingest is not None:
        refit_cap = ingest.get("reference_refits", 0) * MAX_INGEST_REFIT_FRACTION
        if ingest.get("refits", 0) > refit_cap:
            failures.append(
                f"streaming ingest refit count {ingest.get('refits')} > "
                f"{MAX_INGEST_REFIT_FRACTION:.0%} of the reference's "
                f"{ingest.get('reference_refits')}"
            )
        rate = ingest.get("rows_per_second", 0.0)
        if rate < MIN_INGEST_ROWS_PER_SECOND:
            failures.append(
                f"streaming ingest {rate:,.0f} rows/s < "
                f"{MIN_INGEST_ROWS_PER_SECOND:,.0f} floor"
            )
    if service is not None:
        p50 = service.get("p50_ms", 0.0)
        p99 = service.get("p99_ms", 0.0)
        if not p99 >= p50 > 0:
            failures.append(
                f"service latency accounting not live/sane "
                f"(p50={p50}ms, p99={p99}ms)"
            )
        overhead = service.get("overhead_vs_direct", 0.0)
        if overhead > MAX_SERVICE_OVERHEAD:
            failures.append(
                f"service overhead {overhead}x > {MAX_SERVICE_OVERHEAD}x "
                "vs the serial direct path"
            )
    headline_end_to_end = 0.0
    headline_fit = 0.0
    for name, network in networks.items():
        speedups = network.get("speedup_vs_seed", {})
        fit = network.get("stages", {}).get("fit", {}).get(
            "speedup_vs_reference", 0.0
        )
        headline_fit = max(headline_fit, fit)
        if fit < MIN_FIT_SPEEDUP:
            failures.append(
                f"{name}: fit {fit}x < {MIN_FIT_SPEEDUP}x vs the scalar "
                "reference"
            )
        for stage in VECTORIZED_STAGES:
            if speedups.get(stage, 0.0) < MIN_STAGE_SPEEDUPS[stage]:
                failures.append(
                    f"{name}: {stage} {speedups.get(stage)}x < "
                    f"{MIN_STAGE_SPEEDUPS[stage]}x floor"
                )
        if name == FUSED_GATE_NETWORK:
            fused_speedup = (
                network.get("stages", {})
                .get("sample_decode_fused", {})
                .get("speedup_vs_twostep", 0.0)
            )
            if fused_speedup < MIN_FUSED_SPEEDUP:
                failures.append(
                    f"{name}: fused sample→packed {fused_speedup}x < "
                    f"{MIN_FUSED_SPEEDUP}x vs the two-step reference"
                )
        if (
            max((speedups.get(stage, 0.0) for stage in VECTORIZED_STAGES))
            < MIN_HEADLINE_SPEEDUP
        ):
            failures.append(
                f"{name}: no vectorized stage at {MIN_HEADLINE_SPEEDUP}x"
            )
        end_to_end = speedups.get("end_to_end", 0.0)
        headline_end_to_end = max(headline_end_to_end, end_to_end)
        if end_to_end < MIN_END_TO_END_SPEEDUP:
            failures.append(
                f"{name}: end_to_end {end_to_end}x < "
                f"{MIN_END_TO_END_SPEEDUP}x floor"
            )
        scan = network.get("scan", {})
        oracle = scan.get("oracle", {}).get("speedup_vs_scalar", 0.0)
        if oracle < MIN_ORACLE_SPEEDUP:
            failures.append(
                f"{name}: oracle sweep {oracle}x < {MIN_ORACLE_SPEEDUP}x"
            )
        bucket = scan.get("candidate_oracle", {}).get(
            "speedup_vs_searchsorted", 0.0
        )
        if bucket < MIN_BUCKET_SPEEDUP:
            failures.append(
                f"{name}: candidate oracle {bucket}x < "
                f"{MIN_BUCKET_SPEEDUP}x vs searchsorted"
            )
        steady = scan.get("campaign_steady_state", {})
        flatness = steady.get("round_flatness_ratio", 0.0)
        if flatness > MAX_STEADY_FLATNESS:
            failures.append(
                f"{name}: steady-state round flatness {flatness} > "
                f"{MAX_STEADY_FLATNESS} (per-round cost not flat)"
            )
        steady_speedup = steady.get("speedup_vs_reseed", 0.0)
        if steady_speedup < MIN_STEADY_SPEEDUP:
            failures.append(
                f"{name}: steady-state campaign {steady_speedup}x < "
                f"{MIN_STEADY_SPEEDUP}x vs the re-seeding reference"
            )
    if headline_end_to_end < MIN_END_TO_END_HEADLINE:
        failures.append(
            f"no network reached the {MIN_END_TO_END_HEADLINE}x "
            f"end-to-end headline (best {headline_end_to_end}x)"
        )
    if headline_fit < MIN_FIT_HEADLINE:
        failures.append(
            f"no network reached the {MIN_FIT_HEADLINE}x fit headline "
            f"vs the scalar reference (best {headline_fit}x)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--record", type=pathlib.Path, default=None,
        help=(
            "benchmark record to summarize (default: the most recent "
            "of benchmarks/out/BENCH_generation.json and the committed "
            "repo-root BENCH_generation.json)"
        ),
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 2 when any asserted speedup gate regressed",
    )
    args = parser.parse_args(argv)
    if args.record is None:
        args.record = default_record_path()
    if not args.record.exists():
        print(f"benchmark record not found: {args.record}", file=sys.stderr)
        return 1
    record = json.loads(args.record.read_text())
    if args.check:
        failures = check_gates(record)
        if failures:
            print("perf gates regressed:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 2
        print("perf gates OK")
        return 0
    print(render_markdown(record))
    if not BASELINE_PATH.exists():
        print("\n> ⚠️ seed baseline missing; speedups unavailable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
