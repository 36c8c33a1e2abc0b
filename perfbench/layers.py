"""Which public calls each layer's spans wrap, and the per-layer
metrics computed from a traced run's spans."""

from __future__ import annotations

import importlib
import statistics
from typing import Dict, List

import numpy as np

from perfbench.spans import SpanIndex, Tracer, clock

#: ``module:attr`` -> span name.  A layer's metrics read these spans.
SPANS = {
    "repro.bayes.sampling:sample_packed": "sampling.draw",
    "repro.core.model:AddressModel.sample_codes": "sampling.draw",
    "repro.core.encoding:AddressEncoder.decode_to_set": "sampling.draw",
    "repro.ipv6.sets:BucketTable.insert_packed": "sets.insert",
    "repro.ipv6.sets:BucketTable.revert_insert": "sets.rollback",
    "repro.ipv6.sets:BucketTable.lookup": "sets.lookup",
    "repro.ipv6.sets:unpack_rows": "sets.unpack",
    "repro.core.model:run_generation_rounds": "model.rounds",
    "repro.core.model:AddressModel.generate_set": "model.generate",
    "repro.scan.responder:SimulatedResponder.oracle_masks": "scan.oracle",
    "repro.scan.campaign:ScanCampaign.run": "scan.campaign",
    "repro.core.pipeline:EntropyIP.fit": "fit",
    "repro.ingest.pipeline:IngestPipeline.refit": "ingest.refit",
    "repro.stats.entropy:nybble_entropies": "fit.entropy",
    "repro.core.segmentation:boundaries_from_entropy": "fit.segment",
    "repro.core.mining:mine_segments": "fit.mine",
    "repro.core.encoding:AddressEncoder.encode_set": "fit.encode",
    "repro.bayes.structure:learn_structure": "fit.structure",
    "repro.serve.lifecycle:ManagedSession.generate": "serve.session",
    "repro.serve.lifecycle:SessionManager.adopt_model": "serve.adopt",
    "repro.serve.registry:ModelRegistry.register": "serve.register",
    "repro.ingest.stats:IncrementalStats.update": "ingest.fold",
    "repro.ingest.stats:IncrementalStats.materialize": "ingest.materialize",
    "repro.ingest.drift:DriftDetector.update": "ingest.drift",
    "repro.ingest.drift:DriftDetector.signal": "ingest.drift",
    "repro.ipv6.sets:AddressSet.addresses": "cli.objects",
}

#: Counts stored on spans: ``target -> info(args, kwargs, result)``.
_INFO = {
    "repro.bayes.sampling:sample_packed": lambda a, k, r: {"rows": len(r)},
    "repro.core.model:AddressModel.sample_codes": (
        lambda a, k, r: {"rows": a[1] if len(a) > 1 else k["n"]}
    ),
    "repro.ipv6.sets:BucketTable.insert_packed": lambda a, k, r: {
        "offered": len(a[1]),
        "admitted": int(np.count_nonzero(r)),
    },
    "repro.core.model:run_generation_rounds": lambda a, k, r: {"kept": len(r)},
}

FIT_SPANS = ("fit", "ingest.refit")


def install(tracer: Tracer, counters: Dict[str, float]) -> None:
    """Wrap every traced call; ``tracer.restore()`` undoes it."""
    # Rebinding a module function reaches only modules already loaded.
    for module in ("repro.cli", "repro.exec", "repro.ingest", "repro.scan",
                   "repro.scan.campaign", "repro.serve"):
        importlib.import_module(module)
    for target, name in SPANS.items():
        info = _INFO.get(target)
        tracer.patch(target, lambda fn, n=name, i=info: tracer.wrap(fn, n, i))
    tracer.patch(
        "repro.ipv6.address:addresses_from_text",
        lambda fn: tracer.wrap_generator(fn, "cli.parse"),
    )

    def pool_map(fn):
        def map(self, task, items):
            span = tracer.begin("exec.map")
            retries, degradations = self.retries, self.degradations
            try:
                return fn(self, tracer.wrap_handoff(task, "exec.shard"), items)
            finally:
                span.info["retries"] = self.retries - retries
                span.info["degradations"] = self.degradations - degradations
                tracer.end(span)

        return map

    def submit(fn):
        def traced_submit(self, kind, task, deadline=None):
            task = tracer.wrap_handoff(task, "serve.exec", queued_at=clock())
            return fn(self, kind, task, deadline)

        return traced_submit

    def close(fn):
        def traced_close(self, *args, **kwargs):
            if not getattr(self, "_closed", True):
                stats = self.stats()
                counters["serve.shed"] += stats["rejected"]
                counters["serve.timeouts"] += stats["timeouts"]
                counters["serve.retries"] += stats["retries"]
            return fn(self, *args, **kwargs)

        return traced_close

    tracer.patch("repro.exec.pool:WorkerPool.map", pool_map)
    tracer.patch("repro.serve.service:HitlistService.submit", submit)
    tracer.patch("repro.serve.service:HitlistService.close", close)


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def compute(
    tracer: Tracer, counters: Dict[str, float], workload: str
) -> Dict[str, float]:
    """Per-layer metrics of one traced run (seconds summed over the
    traced set-up and ops unless named ``_ms``)."""
    ix = SpanIndex(tracer.spans())

    def total(*names) -> float:
        return sum(s.seconds for s in ix.outermost(names))

    def self_total(name) -> float:
        return sum(ix.self_seconds(s) for s in ix.named(name))

    def kids(span, name) -> List:
        return [k for k in ix.children.get(span.sid, ()) if k.name == name]

    m: Dict[str, float] = {}
    m["sampling.draw_s"] = total("sampling.draw")
    m["sampling.rows"] = sum(
        s.info.get("rows", 0) for s in ix.named("sampling.draw")
    )
    inserts = ix.named("sets.insert")
    m["sets.insert_s"] = sum(ix.self_seconds(s) for s in inserts)
    m["sets.rollback_s"] = total("sets.rollback")
    m["sets.reinsert_rows"] = sum(
        s.info["admitted"] for s in inserts if kids(s, "sets.rollback")
    )
    m["sets.lookup_s"] = total("sets.lookup")
    m["sets.unpack_s"] = total("sets.unpack")

    rounds = ix.named("model.rounds")
    batches = [b for r in rounds for b in kids(r, "sets.insert")]
    drawn = sum(b.info["offered"] for b in batches)
    m["model.rounds_self_s"] = self_total("model.rounds")
    m["model.batches"] = len(batches)
    m["model.yield"] = (
        sum(r.info["kept"] for r in rounds) / drawn if drawn else 0.0
    )

    maps = ix.named("exec.map")
    m["exec.map_s"] = total("exec.map")
    m["exec.shard_busy_s"] = sum(s.seconds for s in ix.named("exec.shard"))
    m["exec.retries"] = sum(s.info["retries"] for s in maps)
    m["exec.degradations"] = sum(s.info["degradations"] for s in maps)

    m["scan.oracle_s"] = total("scan.oracle")
    m["scan.round_self_s"] = self_total("scan.campaign")
    m["scan.hits"] = counters["scan.hits"]
    m["scan.new_64s"] = counters["scan.new_64s"]

    fits = ix.outermost(FIT_SPANS)
    m["fit.s"] = sum(s.seconds for s in fits)
    m["fit.calls"] = len(fits)
    for stage in ("entropy", "segment", "mine", "encode", "structure"):
        m[f"fit.{stage}_s"] = sum(
            s.seconds for s in ix.named(f"fit.{stage}")
            if ix.under(s, FIT_SPANS)
        )

    execs = ix.named("serve.exec")
    m["serve.queue_wait_ms"] = 1e3 * _p50(
        [s.info["queue_wait"] for s in execs]
    )
    m["serve.exec_s"] = sum(s.seconds for s in execs)
    m["serve.session_self_s"] = self_total("serve.session")
    m["serve.adopt_s"] = total("serve.adopt")
    m["serve.register_s"] = total("serve.register")
    for key in ("serve.shed", "serve.timeouts", "serve.retries"):
        m[key] = counters[key]
    m["serve.generate_tail_ms"] = counters["serve.generate_tail_ms"]

    m["ingest.fold_s"] = total("ingest.fold")
    m["ingest.materialize_s"] = total("ingest.materialize")
    m["ingest.drift_s"] = total("ingest.drift")
    m["ingest.refit_s"] = total("ingest.refit")
    m["ingest.refits"] = len(ix.named("ingest.refit"))
    m["ingest.batch_p50_ms"] = counters["ingest.batch_p50_ms"]

    ops = ix.named("op")
    m["cli.parse_s"] = total("cli.parse")
    m["cli.objects_s"] = total("cli.objects")
    m["cli.text_s"] = (
        sum(ix.self_seconds(s) for s in ops) if workload == "targets-r1"
        else 0.0
    )

    m["proc.cpu_s"] = counters["proc.cpu_s"]
    m["proc.cpu_util"] = (
        counters["proc.cpu_s"] / counters["proc.wall_s"]
        if counters["proc.wall_s"] else 0.0
    )
    m["feed.late_ms"] = counters["feed.late_ms"]
    op_seconds = sum(s.seconds for s in ops)
    m["trace.coverage"] = (
        sum(ix.descendant_cover(s) for s in ops) / op_seconds
        if op_seconds else 0.0
    )
    m["trace.overhead"] = counters["trace.overhead"]
    return m


def describe(name: str) -> Dict[str, str]:
    """Unit and better direction of a per-layer metric, as
    BENCHMARK.json lists them."""
    counts = {
        "sampling.rows": "rows", "sets.reinsert_rows": "rows",
        "model.batches": "count", "exec.retries": "count",
        "exec.degradations": "count", "fit.calls": "count",
        "serve.shed": "count", "serve.timeouts": "count",
        "serve.retries": "count", "ingest.refits": "count",
        "scan.hits": "count", "scan.new_64s": "count",
    }
    ratios = {"model.yield", "proc.cpu_util", "trace.coverage",
              "trace.overhead"}
    higher = {"sampling.rows", "model.yield", "scan.hits", "scan.new_64s",
              "proc.cpu_util", "trace.coverage"}
    if name in counts:
        unit = counts[name]
    elif name in ratios:
        unit = "ratio"
    elif name.endswith("_ms"):
        unit = "ms"
    else:
        unit = "s"
    return {"name": name, "unit": unit,
            "better": "higher" if name in higher else "lower"}
