"""The four workloads: set-up, timed rounds and output checks.

A round is a fixed sequence of ops; a run repeats whole rounds until
its time is up, and later rounds repeat the first one exactly (same
seeds), so their outputs must match it bit for bit.  The first
round's outputs are kept on disk -- not in memory, where they would
inflate the peak resident set -- and checked after the timed window.
serve-ingest is the exception: each of its rounds runs on a fresh
service whose two clients and feed interleave by timing, so the rows
served differ from round to round and every round is checked.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import numpy as np

from perfbench import checks, inputs
from perfbench.spans import Tracer, clock

cpu_clock = time.process_time

N_CANDIDATES = 1_000_000
CAMPAIGN_BUDGET = 200_000
CAMPAIGN_ROUND = 10_000
CAMPAIGN_WORKERS = 2
CAMPAIGNS_PER_ROUND = 2
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
SERVE_ROWS = 20_000
#: Rows per membership source (last batch, observed, training, new)
#: and per observe request.
PROBE_ROWS = 16
#: Drift gate of the served model's ingest pipeline.  Judged on single
#: 100-row batches, a 0.06 gate refit on nearly every batch in trials;
#: waiting for 500 pending rows leaves 1-3 refits in the renumbered
#: snapshot 1 and none in snapshot 2 (score ~0.04).
DRIFT_THRESHOLD = 0.06
DRIFT_MIN_ROWS = 500
#: Request cycles (generate, membership, observe) per serve client and
#: round: 1.2M rows, so every round crosses the same table doublings.
SERVE_CYCLES = 60
#: Seconds between feed batches (20 batches per round).
FEED_INTERVAL = 0.1


def op_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def digest(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def tail(values: List[float]) -> float:
    """Highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than 40 samples)."""
    ordered = sorted(values)
    if len(ordered) < 40:
        return ordered[-1]
    return ordered[-11]


@dataclass
class Op:
    kind: str
    seconds: float
    rows: int
    #: Process CPU seconds (all threads) while the op ran.
    cpu: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: First-round outputs the checks read.
    detail: dict = field(default_factory=dict)


class _Spanned:
    """An op span when tracing, nothing otherwise."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer

    def __enter__(self):
        self.span = self.tracer.begin("op") if self.tracer else None

    def __exit__(self, *exc):
        if self.span is not None:
            self.tracer.end(self.span)


class Workload:
    name = ""
    #: True when a round needs a fresh set-up (its state is consumed).
    fresh_state_per_round = False
    #: Kind of the ops whose latency is the op latency (None: every op).
    primary_kind: Optional[str] = None

    def __init__(self, seed: int, directory: Path):
        self.seed = seed
        self.dir = directory
        self.rounds = 0
        self.first: Dict[int, Op] = {}
        self.summary: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, seconds: float, tracer: Optional[Tracer]) -> List[Op]:
        raise NotImplementedError

    def end_round(self) -> None:
        """Per-round teardown of workloads with fresh state per round."""

    def figures(self, ops: List[Op]) -> Dict[str, float]:
        """Workload figures that are not end-to-end metrics."""
        return dict(self.summary)

    def check(self) -> None:
        """Check the kept outputs; failures land on their ops."""

    def close(self) -> None:
        pass

    def _repeat(self, index: int, op: Op, fingerprint) -> bool:
        """Record op ``index``'s output fingerprint on the first round;
        on later rounds require the same one.  True on the first."""
        if self.rounds == 0:
            self.first[index] = op
            op.detail["fingerprint"] = fingerprint
            return True
        if fingerprint != self.first[index].detail["fingerprint"]:
            op.failures.append("output differs from the first round's")
        return False


class ScanS1(Workload):
    """1M candidates from a 1K-trained S1 model, scored for hits."""

    name = "scan-s1"

    def setup(self) -> None:
        from repro.core.pipeline import EntropyIP
        from repro.ipv6.sets import AddressSet
        from repro.scan.responder import SimulatedResponder

        data = np.load(self.dir / "splits.npz")
        self.population = inputs.population("S1")
        ping_rate, rdns_rate = inputs.network_rates("S1")
        self.responder = SimulatedResponder(
            self.population, ping_rate=ping_rate, rdns_rate=rdns_rate,
            seed=self.seed,
        )
        models = range(inputs.SCAN_MODELS)
        self.trains = [AddressSet(data[f"train{k}"]) for k in models]
        self.tests = [AddressSet(data[f"test{k}"]) for k in models]
        self.models = [EntropyIP.fit(t, width=t.width).model for t in self.trains]
        # Lazy indexes the first op would otherwise build.
        self.responder.oracle_masks(self.trains[0])
        for train, test in zip(self.trains, self.tests):
            test.match_rows(train)

    def run_round(self, seconds, tracer):
        from repro.serve.lifecycle import SessionSpec

        ops = []
        for k, (model, train, test) in enumerate(
            zip(self.models, self.trains, self.tests)
        ):
            rng = np.random.default_rng(op_seed(self.seed, 5, k))
            with _Spanned(tracer):
                start, cpu = clock(), cpu_clock()
                session = SessionSpec(
                    exclude=train, capacity=N_CANDIDATES + len(train)
                ).open(model)
                try:
                    cands = model.generate_set(N_CANDIDATES, rng, state=session)
                finally:
                    session.close()
                packed = cands.packed_rows()
                in_test = test.match_words(packed) >= 0
                _, ping, rdns = self.responder.oracle_masks(cands)
                active = in_test | ping | rdns
                hits = cands.take(np.flatnonzero(active))
                new64 = np.setdiff1d(
                    hits.prefixes64(), train.prefixes64(), assume_unique=True
                )
                seconds_taken, cpu = clock() - start, cpu_clock() - cpu
            op = Op("scan", seconds_taken, len(cands), cpu)
            result = (int(active.sum()), len(new64))
            if self._repeat(k, op, (digest(cands.matrix.tobytes()), result)):
                op.detail["hits"], op.detail["new64"] = result
                np.save(self.dir / f"scan{k}.npy", cands.matrix)
            ops.append(op)
            del cands, packed, hits  # one op's 1M rows alive at a time
        self.rounds += 1
        return ops

    def check(self) -> None:
        for k, op in self.first.items():
            cands = np.load(self.dir / f"scan{k}.npy")
            op.failures += checks.scan_op(
                cands, self.trains[k].matrix, self.tests[k].matrix,
                self.population.matrix, self.responder, N_CANDIDATES,
                op.detail["hits"], op.detail["new64"],
            )
        firsts = [op.detail for op in self.first.values()]
        self.summary["hits"] = sum(d["hits"] for d in firsts)
        self.summary["new_64s"] = sum(d["new64"] for d in firsts)


class TargetsR1(Workload):
    """``repro generate <1K R1 file> --count 1000000`` in-process."""

    name = "targets-r1"

    def setup(self) -> None:
        import repro.cli

        self.cli = repro.cli
        self.train_path = self.dir / "train.txt"
        if not self.train_path.is_file():
            raise FileNotFoundError(self.train_path)

    def run_round(self, seconds, tracer):
        out = self.dir / ("targets.txt" if self.rounds == 0 else "again.txt")
        argv = ["generate", str(self.train_path), "--count",
                str(N_CANDIDATES), "--seed", str(op_seed(self.seed, 7))]
        with _Spanned(tracer):
            start, cpu = clock(), cpu_clock()
            with open(out, "w", encoding="utf-8") as f, \
                    contextlib.redirect_stdout(f):
                code = self.cli.main(argv)
            seconds_taken, cpu = clock() - start, cpu_clock() - cpu
        op = Op("generate", seconds_taken, N_CANDIDATES, cpu)
        if code != 0:
            op.failures.append(f"repro generate exited with {code}")
        self._repeat(0, op, digest(out.read_bytes()))
        if self.rounds:
            out.unlink()
        self.rounds += 1
        return [op]

    def check(self) -> None:
        op = self.first[0]
        op.failures += checks.targets_op(
            self.dir / "targets.txt", self.train_path, N_CANDIDATES, self.seed
        )


class CampaignR1(Workload):
    """Adaptive R1 scan campaigns on a two-thread worker pool."""

    name = "campaign-r1"

    def setup(self) -> None:
        from repro.ipv6.sets import AddressSet
        from repro.scan.responder import SimulatedResponder

        self.population = inputs.population("R1")
        ping_rate, rdns_rate = inputs.network_rates("R1")
        self.responder = SimulatedResponder(
            self.population, ping_rate=ping_rate, rdns_rate=rdns_rate,
            seed=self.seed,
        )
        self.train = AddressSet(np.load(self.dir / "train.npy"))
        self.responder.oracle_masks(self.train)

    def run_round(self, seconds, tracer):
        from repro.scan.campaign import ScanCampaign

        ops = []
        for j in range(CAMPAIGNS_PER_ROUND):
            with _Spanned(tracer):
                start, cpu = clock(), cpu_clock()
                result = ScanCampaign(
                    self.train, self.responder,
                    probe_budget=CAMPAIGN_BUDGET, round_size=CAMPAIGN_ROUND,
                    adaptive=True, seed=op_seed(self.seed, 6, j),
                    workers=CAMPAIGN_WORKERS,
                ).run()
                seconds_taken, cpu = clock() - start, cpu_clock() - cpu
            op = Op("campaign", seconds_taken, result.total_probes, cpu)
            fingerprint = (
                [r.hits for r in result.rounds],
                digest(repr(result.discovered).encode()),
            )
            if self._repeat(j, op, fingerprint):
                op.detail["result"] = result
            ops.append(op)
        self.rounds += 1
        return ops

    def check(self) -> None:
        members = set(inputs.ints(self.population.matrix))
        for op in self.first.values():
            op.failures += checks.campaign_op(
                op.detail["result"], self.train.matrix, members, self.responder,
                CAMPAIGN_BUDGET,
            )
        results = [op.detail["result"] for op in self.first.values()]
        self.summary["hits"] = sum(r.total_hits for r in results)
        self.summary["new_64s"] = sum(
            len(r.discovered_prefixes64) for r in results
        )


@dataclass
class _Client:
    name: str
    pool: np.ndarray
    rng: np.random.Generator
    spill: object
    step: int = 0
    observed: int = 0
    spilled: int = 0
    last: Optional[np.ndarray] = None
    events: list = field(default_factory=list)
    ops: list = field(default_factory=list)


class ServeIngest(Workload):
    """Two closed-loop client streams plus a scheduled drifting feed on
    one live ``HitlistService``."""

    name = "serve-ingest"
    fresh_state_per_round = True
    primary_kind = "generate"
    MODEL = "S1"
    KINDS = ("generate", "membership", "observe")

    def __init__(self, seed: int, directory: Path):
        super().__init__(seed, directory)
        self.streams: list = []
        self.ingest_ops: List[Op] = []
        self.drive_seconds = 0.0
        self.drive_cpu = 0.0

    def setup(self) -> None:
        from repro.ingest import IngestConfig
        from repro.ipv6.sets import AddressSet
        from repro.serve import HitlistService

        data = np.load(self.dir / "feed.npz")
        self.train = data["train"]
        bounds = data["bounds"]
        self.batches = [
            AddressSet(data["batches"][a:b]) for a, b in zip(bounds, bounds[1:])
        ]
        self.pools = [data["observe0"], data["observe1"]]
        self._address_set = AddressSet
        self.service = HitlistService(workers=SERVE_WORKERS)
        self.service.fit(self.MODEL, AddressSet(self.train))
        for c in range(SERVE_CLIENTS):
            self.service.open_session(
                self.MODEL, f"client-{c}", seed=op_seed(self.seed, 8, c)
            )
        self.pipeline = self.service.open_ingest(
            self.MODEL,
            config=IngestConfig(
                threshold=DRIFT_THRESHOLD, min_refit_rows=DRIFT_MIN_ROWS
            ),
        )

    # -- the closed loop ------------------------------------------------

    def _request(self, client: _Client):
        """Submit the client's next request; returns (future, kind, rows)."""
        service, name = self.service, self.MODEL
        kind = self.KINDS[client.step % len(self.KINDS)]
        client.step += 1
        if kind == "generate":
            return service.generate_async(name, client.name, SERVE_ROWS), kind, None
        session = service.sessions.get(name, client.name)
        pool, n = client.pool, len(client.pool)
        if kind == "observe":
            rows = pool[np.arange(client.observed, client.observed + PROBE_ROWS) % n]
            client.observed += PROBE_ROWS
            task = functools.partial(session.observe, self._address_set(rows))
            return service.submit("other", task), kind, rows
        ahead = np.arange(client.observed + PROBE_ROWS,
                          client.observed + 2 * PROBE_ROWS) % n
        parts = [
            client.last[client.rng.choice(len(client.last), PROBE_ROWS)],
            self.train[client.rng.choice(len(self.train), PROBE_ROWS)],
            pool[ahead],
        ]
        if client.observed:
            seen = client.rng.choice(min(client.observed, n), PROBE_ROWS)
            parts.append(pool[seen])
        rows = np.concatenate(parts)
        task = functools.partial(session.membership, self._address_set(rows))
        return service.submit("membership", task), kind, rows

    def run_round(self, seconds, tracer):
        """Every client runs ``SERVE_CYCLES`` cycles while the feed
        pushes each batch at its due time; ends when all are done."""
        clients = [
            _Client(
                f"client-{c}", self.pools[c],
                np.random.default_rng(op_seed(self.seed, 9, c)),
                open(self.dir / f"served{c}-{self.rounds}.bin", "wb"),
            )
            for c in range(SERVE_CLIENTS)
        ]
        pending: Dict = {}
        done_at: Dict = {}
        cycles = SERVE_CYCLES * len(self.KINDS)

        def submit(client: Optional[_Client], batch: Optional[int] = None):
            span = tracer.begin("op") if tracer else None
            submitted = clock()
            if client is None:
                rows = self.batches[batch]
                future = self.service.submit(
                    "ingest", functools.partial(self.pipeline.ingest, rows)
                )
                kind = "ingest"
            else:
                future, kind, rows = self._request(client)
            if tracer:
                tracer.release()
            future.add_done_callback(
                lambda f: done_at.__setitem__(f, clock())
            )
            pending[future] = (client, kind, rows, submitted, span, batch)

        start, cpu = clock(), cpu_clock()
        due = [start + (i + 1) * FEED_INTERVAL for i in range(len(self.batches))]
        ops: List[Op] = []
        for client in clients:
            submit(client)
        fed = 0
        while pending or fed < len(due):
            while fed < len(due) and clock() >= due[fed]:
                submit(None, fed)
                fed += 1
            timeout = max(0.0, due[fed] - clock()) if fed < len(due) else None
            if not pending:
                time.sleep(timeout or 0.0)
                continue
            finished, _ = wait(list(pending), timeout=timeout,
                               return_when=FIRST_COMPLETED)
            for future in finished:
                client, kind, rows, submitted, span, batch = pending.pop(future)
                ended = done_at.get(future) or clock()
                if span is not None:
                    tracer.finish(span, ended)
                op = Op(kind, ended - submitted, 0)
                ops.append(op)
                try:
                    answer = future.result()
                except Exception as exc:  # a failed request is a failed op
                    op.failures.append(f"{kind} raised {exc!r}")
                    answer = None
                if client is None:
                    op.detail["from_due"] = ended - due[batch]
                    op.detail["late"] = submitted - due[batch]
                    self.ingest_ops.append(op)
                    continue
                client.ops.append(op)
                if kind == "generate" and answer is not None:
                    matrix = answer.matrix
                    op.rows = len(matrix)
                    matrix.tofile(client.spill)
                    client.events.append(
                        (kind, (client.spilled, len(matrix)), SERVE_ROWS)
                    )
                    client.spilled += len(matrix)
                    client.last = matrix
                elif answer is not None:
                    client.events.append((kind, rows, answer))
                if client.step < cycles:
                    submit(client)
        self.drive_seconds += clock() - start
        self.drive_cpu += cpu_clock() - cpu
        for client in clients:
            client.spill.close()
        self.streams.append((self.rounds, clients))
        self.fed = [b.matrix for b in self.batches[:fed]]
        self.rounds += 1
        return ops

    def end_round(self) -> None:
        """Catch up on pending feed rows and compare the live model with
        a from-scratch fit while the service still runs; then stop it."""
        from repro.core.pipeline import EntropyIP
        from repro.serve.registry import model_digest

        problems = []
        self.summary["refits"] = self.summary.get("refits", 0) + self.pipeline.refits
        if self.pipeline.refits < 1:
            problems.append("drift never refit the model")
        self.pipeline.refit()
        problems += checks.ingest_digest(
            self.pipeline.digest,
            {
                c.name: self.service.sessions.get(self.MODEL, c.name).entry.digest
                for c in self.streams[-1][1]
            },
            self.train, self.fed,
            lambda m: EntropyIP.fit(self._address_set(m)), model_digest,
        )
        if problems:
            self.ingest_ops[-1].failures += problems
        self.service_stats = self.service.stats()
        self.service.close()

    def close(self) -> None:
        self.service.close()

    def figures(self, ops: List[Op]) -> Dict[str, float]:
        ingests = [op.detail for op in ops if op.kind == "ingest"]
        generates = [op.seconds for op in ops if op.kind == "generate"]
        return {
            **self.summary,
            "op_tail_ms": 1e3 * tail(generates),
            "ingest_p50_ms": 1e3 * median(d["from_due"] for d in ingests),
            "feed_late_ms": 1e3 * median(d["late"] for d in ingests),
        }

    def check(self) -> None:
        for index, clients in self.streams:
            for c, client in enumerate(clients):
                spilled = np.fromfile(
                    self.dir / f"served{c}-{index}.bin", dtype=np.uint8
                ).reshape(-1, 32)
                events = [
                    (kind, spilled[at[0]:at[0] + at[1]], answer)
                    if kind == "generate" else (kind, at, answer)
                    for kind, at, answer in client.events
                ]
                failures = checks.serve_stream(self.train, events)
                if failures:
                    client.ops[-1].failures += failures


WORKLOADS = {w.name: w for w in (ScanS1, TargetsR1, CampaignR1, ServeIngest)}
