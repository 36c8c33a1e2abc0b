"""Seeded benchmark inputs, built before any timed code runs.

Populations are the networks' deployed address sets at population seed
0 -- the deployment ``repro scan`` and the paper-table benchmarks
score against.  They do not depend on the benchmark seed and the S1
one takes 12-28 s to build, so each is built once per checkout and
cached under ``.perfbench_cache/``.  Everything else is drawn from the
benchmark seed and written as files the set-up reads: training sets,
held-out splits, the R1 training file and the drifting S1 feed.
"""

from __future__ import annotations

import ipaddress
import os
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"

TRAIN_SIZE = 1000
#: Models per scan-s1 round: hits summed over several training sets
#: vary less from seed to seed than one model's.
SCAN_MODELS = 4
#: S1 feed: snapshot 0 trains the served model, snapshots 1..2 are
#: fed.  Snapshot 1 renumbers the network, which is what makes drift
#: fire; a series without it never refits.
FEED_SNAPSHOTS = 3
FEED_BATCHES_PER_SNAPSHOT = 10
FEED_CHURN = 0.3
#: Client-observed rows per serve client; a round observes the first
#: 960 (60 cycles of 16 rows) and probes the next 16 as unseen.
OBSERVE_POOL = 12_000


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def population(name: str):
    """The network's deployed addresses, cached as a nybble matrix."""
    from repro.datasets.networks import build_network
    from repro.ipv6.sets import AddressSet

    path = CACHE / "populations" / f"{name}-0.npy"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        matrix = build_network(name).population(0).matrix
        partial = path.with_suffix(".partial.npy")
        np.save(partial, matrix)
        os.replace(partial, path)
    return AddressSet(np.load(path))


def network_rates(name: str):
    from repro.datasets.networks import build_network

    network = build_network(name)
    return network.ping_rate, network.rdns_rate


def split(pop, rng):
    """Observed dataset (half the population) -> 1K train + held-out
    test, exactly as ``scan_experiment`` draws them."""
    from repro.ipv6.sets import split_train_test

    dataset = pop.sample(max(TRAIN_SIZE * 2, len(pop) // 2), rng)
    return split_train_test(dataset, TRAIN_SIZE, rng)


class _Deployed:
    """A network whose population is already built (all
    ``SnapshotSeries.build`` asks of its network)."""

    def __init__(self, pop):
        self._pop = pop

    def population(self, seed: int):
        return self._pop


def build(workload: str, seed: int, directory: Path) -> None:
    """Write ``workload``'s inputs for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "scan-s1":
        pop = population("S1")
        arrays = {}
        for k in range(SCAN_MODELS):
            train, test = split(pop, rng_for(seed, 1, k))
            arrays[f"train{k}"] = train.matrix
            arrays[f"test{k}"] = test.matrix
        np.savez(directory / "splits.npz", **arrays)
    elif workload == "targets-r1":
        train, _ = split(population("R1"), rng_for(seed, 2))
        lines = [
            ipaddress.IPv6Address(value).compressed
            for value in ints(train.matrix)
        ]
        (directory / "train.txt").write_text("\n".join(lines) + "\n")
    elif workload == "campaign-r1":
        train, _ = split(population("R1"), rng_for(seed, 3))
        np.save(directory / "train.npy", train.matrix)
    elif workload == "serve-ingest":
        _build_feed(seed, directory)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _build_feed(seed: int, directory: Path) -> None:
    from repro.datasets.temporal import SnapshotSeries, TemporalEvent

    pop = population("S1")
    snapshots = SnapshotSeries(
        _Deployed(pop),
        n_snapshots=FEED_SNAPSHOTS,
        sample_size=TRAIN_SIZE,
        churn=FEED_CHURN,
        events=(TemporalEvent(at_index=1, kind="renumber"),),
        seed=seed,
    ).build()
    batches = []
    for snapshot in snapshots[1:]:
        bounds = np.linspace(
            0, len(snapshot), FEED_BATCHES_PER_SNAPSHOT + 1, dtype=int
        )
        batches.extend(
            snapshot.matrix[low:high] for low, high in zip(bounds, bounds[1:])
        )
    # Client-observed rows: deployed addresses outside training, so the
    # model can draw them and exclusion has something to do.
    train = snapshots[0].matrix
    outside = np.flatnonzero(~np.isin(keys(pop.matrix), keys(train)))
    order = rng_for(seed, 4).permutation(outside)
    np.savez(
        directory / "feed.npz",
        train=train,
        batches=np.concatenate(batches),
        bounds=np.cumsum([0] + [len(b) for b in batches]),
        observe0=pop.matrix[order[:OBSERVE_POOL]],
        observe1=pop.matrix[order[OBSERVE_POOL:2 * OBSERVE_POOL]],
    )


# -- independent row arithmetic (shared with the checks) ---------------


def row_bytes(matrix: np.ndarray) -> np.ndarray:
    """(n, 32) nybbles -> (n, 16) address bytes, most significant first."""
    m = np.ascontiguousarray(matrix, dtype=np.uint8)
    return np.ascontiguousarray((m[:, 0::2] << 4) | m[:, 1::2])


def words(matrix: np.ndarray) -> np.ndarray:
    """(n, 32) nybbles -> (n, 2) uint64 words (high, low)."""
    return row_bytes(matrix).view(">u8").astype(np.uint64)


def keys(matrix: np.ndarray) -> np.ndarray:
    """One 16-byte key per row; byte order makes key order numeric."""
    return row_bytes(matrix).view("V16").ravel()


def ints(matrix: np.ndarray):
    """Rows as Python ints."""
    return [
        (int(hi) << 64) | int(lo) for hi, lo in words(matrix).tolist()
    ]
