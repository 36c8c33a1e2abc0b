"""The sharded §5.5 drivers: parallel generation and row-sharded scoring.

:func:`sharded_generate_set` is the parallel counterpart of
:meth:`repro.core.model.AddressModel.generate_set`.  Each oversampling
round is split into ``shards`` fixed sub-draws; every shard samples and
decodes with its own ``SeedSequence``-spawned RNG stream, and the shard
outputs are merged *in shard order* into the same growing
:class:`~repro.ipv6.sets.BucketTable` dedup the serial loop uses.  The
decomposition (shard count, shard sizes, shard streams) is a pure
function of the caller's RNG and ``shards`` — workers only decide how
many shards run concurrently — so ``workers=N`` output is
bit-identical to ``workers=1`` at the same seed.

Where the shards run is decided per batch by one rule: a batch goes to
the :class:`~repro.exec.pool.WorkerPool` threads only when its largest
shard holds at least :data:`MIN_ROWS_PER_SHARD` rows; a smaller batch
runs the same shard tasks inline, in shard order, on the caller's
thread.  Below that size the thread handoff (task dispatch, GIL
contention between short numpy kernels) costs more than the overlap
saves.  The gate reads the batch, not a setting, and changes no row.

Zero-size shards (a batch smaller than ``shards``) are never
dispatched: skipping an empty shard is output-neutral because each
shard's RNG stream is independent and an empty shard contributes no
rows.

:func:`sharded_map_rows` is the scoring-side helper: it splits a row
range into contiguous chunks and runs a pure per-chunk function across
the pool under the same size rule, concatenating in order.  Oracle
masks are pure per-row functions, so this is trivially exact for any
worker count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exec.pool import WorkerPool
from repro.exec.sharding import (
    derive_seed_sequence,
    shard_bounds,
    shard_sizes,
)
from repro.faults import fault_point
from repro.ipv6.sets import AddressSet

#: Default shard count per generation round.  Part of the determinism
#: contract: changing ``shards`` changes which RNG stream draws which
#: row (and therefore the output); changing ``workers`` never does.
DEFAULT_SHARDS = 8

#: Rows a batch's largest shard must hold before its shards run on
#: pool threads; smaller batches run inline on the caller's thread.
#: The smallest power of two at which threads at ``workers=2`` were no
#: slower in wall time than inline for generation and scoring on S1
#: and R1 fits (README, "Parallel execution", has the crossover
#: table).  Dispatch only: it never changes the decomposition or the
#: output.
MIN_ROWS_PER_SHARD = 65536


def sharded_generate_set(
    model,
    n: int,
    rng: np.random.Generator,
    evidence=None,
    exclude=None,
    max_batches: int = 64,
    workers: int = 1,
    shards: Optional[int] = None,
    state=None,
    fused: Optional[bool] = None,
) -> AddressSet:
    """Generate ``n`` distinct candidate rows across a worker pool.

    See :meth:`repro.core.model.AddressModel.generate_set` for the
    contract; this is the engine behind its ``workers=``/``shards=``
    parameters.  Both paths run the one shared round loop
    (:func:`~repro.core.model.run_generation_rounds`) — identical
    oversampling policy, saturation guard and first-occurrence
    semantics — and differ only in how each batch is drawn.  ``state``
    (a persistent :class:`~repro.core.model.GenerationSession`) is
    shared with the serial path: shard outputs merge into the session
    in shard order on the caller's thread, so worker count still never
    changes the output or the session's final contents.  A session also
    owns the pool: repeated calls against one session reuse one
    long-lived executor per worker count instead of re-spawning threads
    per call (the session's ``close`` releases them); stateless calls
    own a pool for the call and close it on the way out.  Only batches
    whose largest shard reaches :data:`MIN_ROWS_PER_SHARD` rows run on
    the pool's threads; smaller ones run inline and never start the
    executor.

    ``fused`` follows the serial path's semantics: by default each
    shard runs :func:`~repro.bayes.sampling.sample_packed` against its
    own spawned stream when the encoder has a fused plan and there is
    no evidence (each shard's fused draw is bit-identical to its
    two-step draw, so the merged output — and the ``workers=N`` ≡
    ``workers=1`` promise — is unchanged); ``fused=False`` forces the
    two-step reference in every shard.
    """
    from repro.bayes.sampling import sample_packed
    from repro.core.model import run_generation_rounds

    if n < 0:
        raise ValueError("n must be non-negative")
    shards = DEFAULT_SHARDS if shards is None else int(shards)
    if shards < 1:
        raise ValueError("shards must be positive")
    resolved = model.normalize_evidence(evidence) if evidence else None
    plan = (
        model.encoder.fused_plan()
        if fused is not False and not resolved
        else None
    )
    width = model.encoder.width
    seed_sequence = derive_seed_sequence(rng)
    if state is not None and hasattr(state, "get_pool"):
        pool = state.get_pool(workers)
        owns_pool = False
    else:
        pool = WorkerPool(workers)
        owns_pool = True

    def task_fn(args):
        size, child, call_index, shard_index = args
        fault_point("pool.shard", call=call_index, shard=shard_index)
        shard_rng = np.random.default_rng(child)
        if plan is not None:
            return None, sample_packed(model.network, plan, size, shard_rng)
        codes = model.sample_codes(size, shard_rng, resolved)
        decoded = model.encoder.decode_to_set(codes, shard_rng, validate=False)
        return decoded.matrix, decoded.packed_rows()

    call_count = 0

    def draw(batch_size: int) -> "tuple[np.ndarray, np.ndarray]":
        nonlocal call_count
        call_index = call_count
        call_count += 1
        sizes = shard_sizes(batch_size, shards)
        children = seed_sequence.spawn(shards)
        # Empty shards are skipped, not dispatched: their streams are
        # independent and they contribute zero rows, so the merged
        # output is unchanged — and no worker ever sees size == 0.
        # (The round loop never asks for fewer than 4096 rows, so at
        # least one shard is non-empty.)
        tasks = [
            (int(size), child, call_index, shard_index)
            for shard_index, (size, child) in enumerate(zip(sizes, children))
            if size > 0
        ]
        # Threads only where the shards pay for the handoff; inline,
        # the same tasks run in shard order, so the rows are the same.
        if sizes.max() >= MIN_ROWS_PER_SHARD:
            parts = pool.map(task_fn, tasks)
        else:
            parts = [task_fn(task) for task in tasks]
        words = np.vstack([part[1] for part in parts])
        if plan is not None:
            return None, words
        matrix = np.vstack([part[0] for part in parts])
        return matrix, words

    try:
        return run_generation_rounds(
            width,
            n,
            draw,
            exclude=exclude,
            max_batches=max_batches,
            constrained=bool(evidence),
            state=state,
        )
    finally:
        if owns_pool:
            pool.close()


def sharded_map_rows(
    fn,
    n_rows: int,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
):
    """Run ``fn(start, stop)`` over contiguous row chunks; concatenate.

    ``fn`` must be a pure function of its row range returning a 1-D or
    2-D array of ``stop - start`` rows (an oracle mask, match
    positions, ...).  The chunks go to the pool only when each holds
    at least :data:`MIN_ROWS_PER_SHARD` rows
    (``n_rows >= shards * MIN_ROWS_PER_SHARD``); with one worker, one
    shard or fewer rows, the single full-range call runs inline, so
    serial callers and small batches pay no handoff.
    """
    pool = WorkerPool(workers)
    if shards is None:
        shards = pool.workers
    if (
        pool.workers <= 1
        or shards <= 1
        or n_rows < shards * MIN_ROWS_PER_SHARD
    ):
        return fn(0, n_rows)
    try:
        bounds = shard_bounds(n_rows, shards)
        parts = pool.map(lambda span: fn(span[0], span[1]), bounds)
        return np.concatenate(parts)
    finally:
        pool.close()
