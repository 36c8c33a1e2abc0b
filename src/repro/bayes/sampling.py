"""Sampling from a Bayesian network.

Candidate-target generation (Section 5.5) draws code vectors from the
learned BN.  Unconstrained generation uses plain forward (ancestral)
sampling, which the ordering constraint makes trivial; generation
constrained to certain segment values ("optionally constrained", §4.4)
uses likelihood weighting with resampling.

Both samplers are fully vectorized and tuned for the paper's
1M-candidate runs:

- each variable is drawn for *all* rows at once by inverse CDF — one
  ``rng.random(n)`` plus a guide-table search into the CPD's
  precomputed cumulative table (:meth:`repro.bayes.cpd.CPD.sampling_cdf`,
  :meth:`~repro.bayes.cpd.CPD.sampling_guide`): a bucket lookup and a
  short scan that returns exactly what ``searchsorted`` would;
- samples accumulate in a ``(num_vars, n)`` matrix so every per-variable
  read and write is contiguous (the transposed view handed back is what
  the encoder consumes column-wise, which that layout also makes
  contiguous);
- degenerate variables (cardinality 1 — common in low-entropy router
  networks) skip both the uniform draw and the search entirely;
- variables whose concatenated CDF outgrows the cache
  (:data:`GROUPED_CDF_THRESHOLD`) switch to *grouped* draws: rows are
  grouped by their parent-state code and each group runs one
  ``searchsorted`` inside its own tiny CDF row
  (:meth:`~repro.bayes.cpd.CPD.sampling_cdf_matrix`) instead of
  binary-searching the full flat table per sample.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.bayes.cpd import CPD, SamplingGuide
from repro.bayes.network import BayesianNetwork

#: Flat-CDF length beyond which grouped per-configuration draws beat
#: one ``searchsorted`` over the whole concatenated table.  Small
#: tables live in L1 where the flat binary search is already memory
#: bound on reading the uniforms; past a few thousand entries the
#: search's random accesses start missing cache while each realized
#: configuration's slice still fits, so grouping wins.  (Tuned against
#: ``searchsorted``, before flat draws went through guide tables; the
#: largest flat table of the S1/R1 models has a few hundred entries.)
GROUPED_CDF_THRESHOLD = 2048


def _flat_parent_configs(
    columns: np.ndarray,
    parent_rows: List[int],
    parent_cards: List[int],
) -> np.ndarray:
    """Mixed-radix flattening of each sample's parent assignment.

    ``columns`` is the ``(num_vars, n)`` sample matrix — one contiguous
    row read per parent.
    """
    flat_config = np.zeros(columns.shape[1], dtype=np.int64)
    for parent_row, parent_card in zip(parent_rows, parent_cards):
        flat_config = flat_config * parent_card + columns[parent_row]
    return flat_config


def _guided_search(guide: SamplingGuide, keys: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, keys, side="right")`` through a guide table
    (:meth:`CPD.sampling_guide <repro.bayes.cpd.CPD.sampling_guide>`):
    a bucket lookup, then a forward scan of the few rows whose bucket
    start is still at or below their key."""
    index = np.multiply(keys, guide.scale).astype(np.intp)
    np.minimum(index, len(guide.guide) - 1, out=index)
    guide.guide.take(index, out=index)
    scan = np.flatnonzero(guide.cdf.take(index) <= keys)
    while scan.size:
        index[scan] += 1
        scan = scan[guide.cdf.take(index[scan]) <= keys[scan]]
    return index


def _draw_states(
    cpd: CPD, flat_config: Optional[np.ndarray], u: np.ndarray
) -> np.ndarray:
    """Inverse-CDF draw of one child state per row, all rows at once.

    ``cpd.sampling_cdf()`` lays the per-configuration CDFs end to end on
    the number line (configuration ``c`` occupies ``[c, c + 1]``), so
    ``searchsorted(cdf, c + u, side="right")`` lands on the first state
    whose cumulative probability exceeds ``u`` — the classic inverse-CDF
    method, with zero-probability states correctly skipped.  The search
    runs through the CPD's guide table (:func:`_guided_search`), which
    returns the same index.  When ``c + u`` rounds up to ``c + 1`` the
    index would fall past configuration ``c``; such rows are clamped to
    the highest state a key below ``c + 1`` reaches.

    When the flat table is large (:data:`GROUPED_CDF_THRESHOLD`), rows
    are grouped by parent-state code instead and each group draws with
    one ``searchsorted`` into its configuration's own CDF row, keeping
    the searched array cache-resident regardless of how many
    configurations the CPD has.
    """
    if not cpd.parents:
        # Root variable: every row shares configuration 0 (callers may
        # pass flat_config=None rather than build a zero vector), and
        # u < 1 keeps every key inside it.
        return _guided_search(cpd.sampling_guide(), u)
    if len(cpd.sampling_cdf()) <= GROUPED_CDF_THRESHOLD:
        guide = cpd.sampling_guide()
        cardinality = cpd.child_cardinality
        states = _guided_search(guide, flat_config + u)
        states -= flat_config * cardinality
        over = np.flatnonzero(states >= cardinality)
        if over.size:
            states[over] = guide.top[flat_config[over]]
        return states
    return _draw_states_grouped(cpd, flat_config, u)


def _draw_states_grouped(
    cpd: CPD, flat_config: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Grouped inverse-CDF draw: one small ``searchsorted`` per realized
    parent configuration (see :meth:`CPD.sampling_cdf_matrix`)."""
    cdf2d = cpd.sampling_cdf_matrix()
    states = np.empty(len(u), dtype=np.int64)
    if not len(u):
        return states
    order = np.argsort(flat_config, kind="stable")
    sorted_config = flat_config[order]
    boundaries = np.flatnonzero(sorted_config[1:] != sorted_config[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(order)]])
    for start, end in zip(starts, ends):
        rows = order[start:end]
        config = sorted_config[start]
        states[rows] = np.searchsorted(
            cdf2d[config], u[rows], side="right"
        )
    return states


def _forward_sample_columns(
    network: BayesianNetwork,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ancestral sampling into the internal ``(num_vars, n)`` buffer.

    The single source of truth for the forward draw order — one
    ``rng.random(n)`` per non-degenerate variable, in
    ``network.variables`` order — shared by :func:`forward_sample` and
    :func:`sample_packed` so the two consume the RNG stream
    identically.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    num_vars = len(network.variables)
    columns = np.zeros((num_vars, n_samples), dtype=np.int64)
    index = {v: i for i, v in enumerate(network.variables)}
    for variable in network.variables:
        cpd = network.cpd(variable)
        if cpd.child_cardinality == 1:
            # Degenerate variable: the only state is 0 (already
            # zero-filled); drawing a uniform for it would be pure
            # waste — R-style low-entropy networks are full of these.
            continue
        row = index[variable]
        if cpd.parents:
            parent_rows = [index[p] for p in cpd.parents]
            parent_cards = [network.cardinality(p) for p in cpd.parents]
            flat_config = _flat_parent_configs(
                columns, parent_rows, parent_cards
            )
        else:
            flat_config = None
        columns[row] = _draw_states(cpd, flat_config, rng.random(n_samples))
    return columns


def forward_sample(
    network: BayesianNetwork,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n_samples`` code vectors by ancestral sampling.

    Returns an (n_samples, num_vars) integer matrix with columns in
    ``network.variables`` order.  One uniform vector and one
    inverse-CDF search per non-degenerate variable — no per-configuration
    Python loops, no uniforms burned on cardinality-1 variables.

    The result is a transposed view of the internal ``(num_vars, n)``
    buffer; reading it column-by-column (as the encoder does) is
    contiguous.
    """
    return _forward_sample_columns(network, n_samples, rng).T


def sample_packed(
    network: BayesianNetwork,
    plan,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fused sample→decode: draw straight into packed uint64 rows.

    ``plan`` is an :class:`repro.core.encoding.FusedPlan` — the
    per-segment ``(word, shift)`` layout plus pre-shifted value tables
    that :meth:`AddressEncoder.fused_plan
    <repro.core.encoding.AddressEncoder.fused_plan>` derives from its
    packed-word assembly plan.  Segments must correspond one-to-one, in
    order, with ``network.variables`` (true by construction for any
    fitted :class:`~repro.core.model.AddressModel`).

    Returns the ``(n_samples, word_count)`` :func:`repro.ipv6.sets.pack_rows`
    image directly: the ``(n, num_vars)`` codes matrix, the ``(n,
    width)`` nybble matrix, and the whole
    :meth:`~repro.core.encoding.AddressEncoder.decode_to_set` pass are
    skipped.  Bit-identity with the two-step reference is a hard
    contract, maintained by consuming the RNG stream in exactly its
    order: first the ancestral draws (shared helper
    :func:`_forward_sample_columns`), then one ranged-offset draw per
    ranged segment in segment order, replicating the reference's
    all-/some-/no-ranged branch structure so the draw *shapes* match
    too.  Constant segments (cardinality 1, no range) are pre-folded
    into the plan's ``constant_words`` and cost nothing per row —
    exactly mirroring the reference's broadcast branch, which consumes
    no randomness either.
    """
    columns = _forward_sample_columns(network, n_samples, rng)
    packed = np.empty((n_samples, plan.word_count), dtype=np.uint64)
    packed[:] = plan.constant_words
    for seg in plan.segments:
        states = columns[seg.column]
        # Fancy-indexed gather → a fresh array, safe to bump in place.
        shifted = seg.shifted_lows[states]
        if seg.has_ranges:
            # Same branch structure — and therefore the same RNG
            # consumption — as decode_to_set: one full-width draw when
            # every row's code is a range, a subset draw when only some
            # are, none when none are.  ``(low + offset) << shift ==
            # (low << shift) + (offset << shift)`` exactly in uint64,
            # and every segment value stays inside its word field, so
            # adding pre-shifted parts equals the reference's
            # shift-after-add bit for bit.
            spans = seg.spans[states]
            ranged = spans > 0
            if ranged.all():
                shifted += (
                    rng.integers(0, spans, dtype=np.uint64, endpoint=True)
                    << seg.shift
                )
            elif ranged.any():
                rows = np.flatnonzero(ranged)
                shifted[rows] += (
                    rng.integers(
                        0, spans[rows], dtype=np.uint64, endpoint=True
                    )
                    << seg.shift
                )
        packed[:, seg.word] |= shifted
    return packed


def likelihood_weighted_sample(
    network: BayesianNetwork,
    n_samples: int,
    rng: np.random.Generator,
    evidence: Mapping[str, int],
    oversample: int = 4,
) -> np.ndarray:
    """Draw approximate posterior samples consistent with ``evidence``.

    Standard likelihood weighting: evidence variables are clamped, other
    variables are forward-sampled, and each trajectory is weighted by the
    probability of the clamped values given its sampled parents.  The
    returned ``n_samples`` rows are drawn from the weighted pool
    (sampling-importance-resampling); ``oversample`` controls the pool
    size multiplier.
    """
    if not evidence:
        return forward_sample(network, n_samples, rng)
    for variable in evidence:
        if variable not in network.variables:
            raise KeyError(f"unknown evidence variable: {variable!r}")
    pool_size = max(n_samples * oversample, 1)
    num_vars = len(network.variables)
    columns = np.zeros((num_vars, pool_size), dtype=np.int64)
    log_weights = np.zeros(pool_size, dtype=np.float64)
    index = {v: i for i, v in enumerate(network.variables)}

    for variable in network.variables:
        cpd = network.cpd(variable)
        row = index[variable]
        parent_rows = [index[p] for p in cpd.parents]
        parent_cards = [network.cardinality(p) for p in cpd.parents]
        if variable in evidence:
            # Evidence weighting needs the flat configuration even for
            # root variables (configuration 0 everywhere).
            flat_config = _flat_parent_configs(
                columns, parent_rows, parent_cards
            )
            state = evidence[variable]
            columns[row] = state
            flat_table = cpd.table.reshape(cpd.child_cardinality, -1)
            probabilities = flat_table[state, flat_config]
            with np.errstate(divide="ignore"):
                log_weights += np.log(probabilities)
            continue
        if cpd.child_cardinality == 1:
            continue
        flat_config = (
            _flat_parent_configs(columns, parent_rows, parent_cards)
            if cpd.parents
            else None
        )
        columns[row] = _draw_states(cpd, flat_config, rng.random(pool_size))

    peak = log_weights.max()
    if not np.isfinite(peak):
        raise ValueError("evidence has zero probability under the model")
    weights = np.exp(log_weights - peak)
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("evidence has zero probability under the model")
    chosen = rng.choice(pool_size, size=n_samples, replace=True, p=weights / total)
    return np.ascontiguousarray(columns[:, chosen].T)


def sample_assignments(
    network: BayesianNetwork,
    n_samples: int,
    rng: np.random.Generator,
    evidence: Optional[Mapping[str, int]] = None,
) -> List[Dict[str, int]]:
    """Samples as variable→state dictionaries (convenience wrapper)."""
    if evidence:
        matrix = likelihood_weighted_sample(network, n_samples, rng, evidence)
    else:
        matrix = forward_sample(network, n_samples, rng)
    return [
        {v: int(matrix[row, col]) for col, v in enumerate(network.variables)}
        for row in range(matrix.shape[0])
    ]
