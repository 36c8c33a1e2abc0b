"""Output checks, computed apart from the program.

Rows are compared as 16-byte keys built here from the nybble matrices
(:func:`perfbench.inputs.keys`), addresses as Python ints, text through
stdlib :mod:`ipaddress`.  Each check returns a list of failures; an
empty list means the op's output is correct.  The program is consulted
only for what the checks recount against: the responder's per-address
``ping``/``rdns`` verdicts and, for the ingest digest, a from-scratch
``EntropyIP.fit``.
"""

from __future__ import annotations

import ipaddress
import random
import socket
from typing import List

import numpy as np

from perfbench.inputs import ints, keys

#: Lines of a target list round-tripped through stdlib ipaddress.
TEXT_SAMPLE = 20_000


def _has_duplicates(k: np.ndarray) -> bool:
    return len(np.unique(k)) != len(k)


def _isin(k: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Sorted-array membership of keys ``k`` in ``reference``."""
    ref = np.unique(reference)
    if not len(ref):
        return np.zeros(len(k), dtype=bool)
    pos = np.minimum(np.searchsorted(ref, k), len(ref) - 1)
    return ref[pos] == k


def new_64s(hit_ints, train_ints) -> int:
    """/64s holding hits that training does not contain."""
    return len({v >> 64 for v in hit_ints} - {v >> 64 for v in train_ints})


def scan_op(cands, train, test, population, responder, n, hits, new64):
    """One scan-s1 op: ``cands`` nybble matrix, reported ``hits`` and
    ``new64`` against a recount."""
    failures: List[str] = []
    if len(cands) != n:
        failures.append(f"{len(cands)} candidates, expected {n}")
    k = keys(cands)
    if _has_duplicates(k):
        failures.append("candidates are not pairwise distinct")
    if _isin(k, keys(train)).any():
        failures.append("a candidate is a training row")
    in_test = _isin(k, keys(test))
    member = _isin(k, keys(population))
    active = in_test.copy()
    for row, value in zip(np.flatnonzero(member), ints(cands[member])):
        active[row] |= responder.ping(value) or responder.rdns(value)
    if int(active.sum()) != hits:
        failures.append(f"hits {hits}, recount {int(active.sum())}")
    recount = new_64s(ints(cands[active]), ints(train))
    if recount != new64:
        failures.append(f"new /64s {new64}, recount {recount}")
    return failures


def targets_op(out_path, train_path, n, seed):
    """One targets-r1 op: the text file the CLI wrote.  Lines are
    compared as the 16 bytes ``socket.inet_pton`` parses them to; a
    seeded sample must round-trip unchanged through stdlib ipaddress
    (RFC 5952 text)."""
    failures: List[str] = []
    with open(out_path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if len(lines) != n:
        failures.append(f"{len(lines)} lines, expected {n}")
    try:
        packed = {socket.inet_pton(socket.AF_INET6, line) for line in lines}
        with open(train_path, encoding="utf-8") as f:
            train = {socket.inet_pton(socket.AF_INET6, s) for s in f.read().split()}
    except OSError as exc:
        return failures + [f"unparseable line: {exc}"]
    if len(packed) != len(lines):
        failures.append("lines are not distinct addresses")
    if train & packed:
        failures.append("a line is a training address")
    sample = random.Random(seed).sample(lines, min(TEXT_SAMPLE, len(lines)))
    changed = [s for s in sample if str(ipaddress.IPv6Address(s)) != s]
    if changed:
        failures.append(f"line {changed[0]!r} does not round-trip")
    return failures


def campaign_op(result, train, members, responder, budget):
    """One campaign-r1 op: a ``CampaignResult``; ``members`` is the
    population as a set of ints."""
    failures: List[str] = []
    probes = sum(r.probes_sent for r in result.rounds)
    if probes != budget or result.total_probes != budget:
        failures.append(f"{probes} probes sent, budget {budget}")
    found = list(result.discovered)
    if len(set(found)) != len(found):
        failures.append("discovered addresses repeat")
    train_ints = ints(train)
    if set(train_ints).intersection(found):
        failures.append("a discovered address is a training row")
    silent = [v for v in found if v not in members or not responder.ping(v)]
    if silent:
        failures.append(f"{len(silent)} discovered addresses do not answer ping")
    if sum(r.hits for r in result.rounds) != result.total_hits or (
        result.total_hits != len(found)
    ):
        failures.append("per-round hits do not sum to the total")
    recount = new_64s(found, train_ints)
    reported = len(result.discovered_prefixes64)
    if recount != reported or result.rounds[-1].new_prefixes64 != reported:
        failures.append(f"new /64s {reported}, recount {recount}")
    return failures


def serve_stream(train, events):
    """One serve-ingest client stream, in request order.  ``events``
    holds ``("generate", rows, n)``, ``("membership", rows, answer)``
    and ``("observe", rows, fresh_count)`` tuples."""
    failures: List[str] = []
    served, served_at, observed, observed_at = [], [], [], []
    for index, (kind, rows, answer) in enumerate(events):
        if kind == "generate":
            if len(rows) != answer:
                failures.append(f"generate {index}: {len(rows)} of {answer} rows")
            served.append(keys(rows))
            served_at.append(np.full(len(rows), index))
        elif kind == "observe":
            observed.append(keys(rows))
            observed_at.append(np.full(len(rows), index))
    empty = np.empty(0, dtype="V16")
    s_keys = np.concatenate(served) if served else empty
    s_at = np.concatenate(served_at) if served else np.empty(0, int)
    o_keys = np.concatenate(observed) if observed else empty
    o_at = np.concatenate(observed_at) if observed else np.empty(0, int)
    if _has_duplicates(s_keys):
        failures.append("the stream repeated a row")
    t_keys = keys(train)
    if _isin(s_keys, t_keys).any():
        failures.append("the stream served a training row")

    def first_seen(k, sorted_keys, sorted_at):
        """Earliest event index holding each key (a large number when
        none does)."""
        out = np.full(len(k), len(events) + 1)
        if not len(sorted_keys):
            return out
        pos = np.minimum(np.searchsorted(sorted_keys, k), len(sorted_keys) - 1)
        hit = sorted_keys[pos] == k
        out[hit] = sorted_at[pos[hit]]
        return out

    s_order = np.argsort(s_keys, kind="stable")
    s_sorted, s_first = s_keys[s_order], s_at[s_order]
    # Stable sorts keep a repeated key's earliest event first.
    o_order = np.argsort(o_keys, kind="stable")
    o_sorted, o_first = o_keys[o_order], o_at[o_order]
    if len(o_sorted):
        first = np.ones(len(o_sorted), dtype=bool)
        first[1:] = o_sorted[1:] != o_sorted[:-1]
        o_sorted, o_first = o_sorted[first], o_first[first]
    if (first_seen(s_keys, o_sorted, o_first) < s_at).any():
        failures.append("the stream served a row observed earlier")

    for index, (kind, rows, answer) in enumerate(events):
        if kind == "generate":
            continue
        k = keys(rows)
        retired = (
            _isin(k, t_keys)
            | (first_seen(k, s_sorted, s_first) < index)
            | (first_seen(k, o_sorted, o_first) < index)
        )
        if kind == "membership" and not np.array_equal(retired, answer):
            failures.append(f"membership {index} disagrees with the recount")
        if kind == "observe":
            _, first = np.unique(k, return_index=True)
            fresh = int((~retired[first]).sum())
            if fresh != answer:
                failures.append(f"observe {index}: {answer} new, recount {fresh}")
    return failures


def ingest_digest(pipeline_digest, session_digests, train, fed, fit, digest):
    """The catch-up-refitted pipeline against a from-scratch fit of
    training plus every fed row; every live session on that digest."""
    expected = digest(fit(np.concatenate([train] + list(fed))))
    failures: List[str] = []
    if pipeline_digest != expected:
        failures.append("pipeline digest differs from a from-scratch fit")
    stale = [name for name, d in session_digests.items() if d != expected]
    if stale:
        failures.append(f"sessions {stale} are not on the refitted model")
    return failures
