"""Sharded parallel execution engine for generation and scanning.

Generation and oracle scoring split their rows into shards; this
package supplies the machinery:

- :mod:`repro.exec.sharding` — deterministic work decomposition:
  balanced shard sizes and per-shard RNG streams spawned from one
  ``numpy.random.SeedSequence``;
- :mod:`repro.exec.pool` — a thin ordered thread pool over
  ``concurrent.futures`` (an inline loop when ``workers <= 1``);
- :mod:`repro.exec.engine` — the sharded §5.5 drivers:
  :func:`~repro.exec.engine.sharded_generate_set` (the parallel
  counterpart of :meth:`repro.core.model.AddressModel.generate_set`)
  and :func:`~repro.exec.engine.sharded_map_rows` (row-sharded oracle
  scoring).  Both send a batch to the pool only when its shards reach
  :data:`~repro.exec.engine.MIN_ROWS_PER_SHARD` rows; smaller batches
  run the same shards inline, where threads cost more wall time than
  they save.

The design contract throughout: the *decomposition* is fixed by the
``shards`` count and the caller's RNG, and workers (and the size gate)
only change how the shards are executed.  ``workers=4`` is therefore
bit-identical to ``workers=1`` at the same seed — parallelism is a
pure throughput knob, never a determinism knob.
"""

from repro.exec.engine import (
    DEFAULT_SHARDS,
    sharded_generate_set,
    sharded_map_rows,
)
from repro.exec.pool import WorkerPool, available_cpus, resolve_workers
from repro.exec.sharding import derive_seed_sequence, shard_bounds, shard_sizes

__all__ = [
    "DEFAULT_SHARDS",
    "WorkerPool",
    "available_cpus",
    "derive_seed_sequence",
    "resolve_workers",
    "shard_bounds",
    "shard_sizes",
    "sharded_generate_set",
    "sharded_map_rows",
]
