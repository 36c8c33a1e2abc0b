"""Show that every output check can fail.

    python3 perfbench/selftest.py

Builds small real outputs with the program (R1, a few thousand rows),
requires each check to pass on them, then hands each check a corrupted
copy and requires it to report the op failed.  Exits 1 if a check
misses its corruption or rejects a correct output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import ipaddress
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N = 4000


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.cli
    from repro.core.pipeline import EntropyIP
    from repro.ipv6.sets import AddressSet
    from repro.scan.campaign import ScanCampaign
    from repro.scan.responder import SimulatedResponder
    from repro.serve import HitlistService
    from repro.serve.lifecycle import SessionSpec
    from repro.serve.registry import model_digest

    from perfbench import checks, inputs

    pop = inputs.population("R1")
    ping_rate, rdns_rate = inputs.network_rates("R1")
    responder = SimulatedResponder(pop, ping_rate=ping_rate,
                                   rdns_rate=rdns_rate, seed=3)
    train, test = inputs.split(pop, inputs.rng_for(3, 0))
    model = EntropyIP.fit(train).model
    results = []

    def expect(name, failures, fails):
        ok = bool(failures) == fails
        results.append(ok)
        verdict = "reported failed" if failures else "passed"
        print(f"{'ok  ' if ok else 'BAD '} {name}: {verdict}"
              + (f" ({failures[0]})" if failures else ""))

    # scan-s1's check, on a small R1 scan
    session = SessionSpec(exclude=train, capacity=N + len(train)).open(model)
    cands = model.generate_set(N, np.random.default_rng(1), state=session)
    session.close()
    in_test = test.match_words(cands.packed_rows()) >= 0
    _, ping, rdns = responder.oracle_masks(cands)
    active = in_test | ping | rdns
    hits = cands.take(np.flatnonzero(active))
    new64 = len(np.setdiff1d(hits.prefixes64(), train.prefixes64()))

    def scan(matrix, new_64s=new64):
        return checks.scan_op(matrix, train.matrix, test.matrix, pop.matrix,
                              responder, N, int(active.sum()), new_64s)

    expect("scan: correct output", scan(cands.matrix), False)
    duplicated = cands.matrix.copy()
    duplicated[-1] = duplicated[0]
    expect("scan: duplicated candidate", scan(duplicated), True)
    leaked = cands.matrix.copy()
    leaked[7] = train.matrix[0]
    expect("scan: leaked training row", scan(leaked), True)
    expect("scan: wrong /64 count", scan(cands.matrix, new64 + 1), True)

    with tempfile.TemporaryDirectory() as tmp:
        train_path = Path(tmp) / "train.txt"
        train_path.write_text("\n".join(
            str(ipaddress.IPv6Address(v)) for v in inputs.ints(train.matrix)
        ) + "\n")
        out = Path(tmp) / "targets.txt"
        with open(out, "w") as f, contextlib.redirect_stdout(f):
            repro.cli.main(["generate", str(train_path), "--count", str(N)])
        expect("targets: correct output",
               checks.targets_op(out, train_path, N, 0), False)
        lines = out.read_text().splitlines()
        lines[5] = ipaddress.IPv6Address(lines[5]).exploded
        out.write_text("\n".join(lines) + "\n")
        expect("targets: rewritten text line",
               checks.targets_op(out, train_path, N, 0), True)

    # campaign-r1's check, on a small campaign
    result = ScanCampaign(train, responder, probe_budget=N, round_size=1000,
                          adaptive=True, seed=2, workers=2).run()
    members = set(inputs.ints(pop.matrix))
    expect("campaign: correct output",
           checks.campaign_op(result, train.matrix, members, responder, N),
           False)
    silent = next(v for v in sorted(members) if not responder.ping(v)
                  and v not in result.discovered)
    swapped = dataclasses.replace(
        result, discovered=(silent,) + tuple(result.discovered[1:])
    )
    expect("campaign: hit that does not answer ping",
           checks.campaign_op(swapped, train.matrix, members, responder, N),
           True)
    fewer = dataclasses.replace(
        result, discovered_prefixes64=set(list(result.discovered_prefixes64)[1:])
    )
    expect("campaign: wrong /64 count",
           checks.campaign_op(fewer, train.matrix, members, responder, N),
           True)

    # serve-ingest's stream check, on a short served stream
    with HitlistService(workers=2) as service:
        service.fit("R1", train)
        service.open_session("R1", "c", seed=4)
        managed = service.sessions.get("R1", "c")
        observed = pop.matrix[~np.isin(inputs.keys(pop.matrix),
                                       inputs.keys(train.matrix))][:64]
        first = service.generate("R1", "c", 500).matrix
        seen = managed.membership(AddressSet(first[:8]))
        fresh = managed.observe(AddressSet(observed))
        second = service.generate("R1", "c", 500).matrix
    events = [("generate", first, 500), ("membership", first[:8], seen),
              ("observe", observed, fresh), ("generate", second, 500)]
    expect("serve: correct stream", checks.serve_stream(train.matrix, events),
           False)
    reserved = second.copy()
    reserved[3] = observed[0]
    events[-1] = ("generate", reserved, 500)
    expect("serve: row re-served after observe",
           checks.serve_stream(train.matrix, events), True)

    batch = [pop.matrix[:300]]

    def fit(matrix):
        return EntropyIP.fit(AddressSet(matrix))

    fresh_digest = model_digest(fit(np.concatenate([train.matrix] + batch)))
    stale_digest = model_digest(fit(train.matrix))
    expect("ingest: refitted digest",
           checks.ingest_digest(fresh_digest, {"c": fresh_digest},
                                train.matrix, batch, fit, model_digest),
           False)
    expect("ingest: stale digest",
           checks.ingest_digest(stale_digest, {"c": stale_digest},
                                train.matrix, batch, fit, model_digest),
           True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
