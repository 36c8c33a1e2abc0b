"""Empirical entropy, as defined in Section 4.1 of the paper.

The paper uses Shannon entropy of the empirical distribution of values at
each nybble position, normalized by the maximum possible entropy
``log k`` (eq. 2), plus the *total entropy* ``H_S`` (eq. 3): the sum of
the 32 per-nybble normalized entropies.

Vectorization design
--------------------
The fit path (segmentation → mining → structure learning) and the §6
mutual-information study both reduce to counting nybble co-occurrences.
Instead of re-scanning the address matrix per column (or per column
pair), everything derives from one **shared contingency pass**:
:func:`nybble_contingency` fuses each row's ``(column_i, column_j)``
nybble pair into a single integer code ``16*x + y`` plus a per-pair
offset and runs ONE ``bincount`` over the fused codes, yielding the full
``(width, width, 16, 16)`` joint-count tensor.  Per-column marginal
counts are its diagonal blocks, per-column entropies come from
:func:`entropy_of_count_rows` (the row-vectorized form of
:func:`entropy_of_counts`), and the MI/NMI matrix of
:mod:`repro.stats.mutual_information` is ``H_i + H_j - H_ij`` over the
same tensor — no second scan of the data.

:func:`nybble_entropies` itself needs only the marginals, so it runs an
even cheaper single fused ``column*16 + value`` bincount.  The pre-PR
per-column scalar loop is retained as :func:`_nybble_entropies_scalar`
(the ``EntropyIP._fit_reference`` path, and the oracle of
``tests/test_properties.py::TestContingencyProperties``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.ipv6.sets import AddressSet

#: Number of possible values of one nybble; ``log NYBBLE_CARDINALITY`` is
#: the normalizer of eq. (2).
NYBBLE_CARDINALITY = 16

#: Row-chunk size budget (in fused codes) of the contingency pass, so a
#: 100K-row training set never materializes an (n, width, width) tensor.
_CONTINGENCY_CHUNK_CODES = 4_000_000


def entropy_of_counts(counts: Sequence[float], base_cardinality: int = None) -> float:
    """Shannon entropy of a count vector, optionally normalized.

    With ``base_cardinality`` set, the result is divided by
    ``log(base_cardinality)`` (the paper's normalization); otherwise the
    raw entropy in nats is returned.

    >>> entropy_of_counts([2, 3], base_cardinality=16)  # eq. (2) example
    0.242792...
    """
    array = np.asarray(counts, dtype=np.float64)
    array = array[array > 0]
    total = array.sum()
    if total <= 0 or array.size <= 1:
        entropy = 0.0
    else:
        p = array / total
        entropy = float(-(p * np.log(p)).sum())
    if base_cardinality is not None:
        if base_cardinality < 2:
            raise ValueError("base_cardinality must be >= 2")
        entropy /= math.log(base_cardinality)
    return entropy


def entropy_of_count_rows(
    counts: np.ndarray, base_cardinality: int = None
) -> np.ndarray:
    """Vectorized :func:`entropy_of_counts` over the last axis.

    ``counts`` has shape ``(..., k)``; the result has shape ``(...)``
    and equals applying :func:`entropy_of_counts` to every length-``k``
    slice (rows with at most one positive entry are exactly 0, matching
    the scalar convention).
    """
    array = np.asarray(counts, dtype=np.float64)
    positive = array > 0
    totals = array.sum(axis=-1, where=positive, keepdims=True)
    safe_totals = np.where(totals > 0, totals, 1.0)
    p = np.where(positive, array, 1.0) / safe_totals
    entropies = -np.sum(p * np.log(p), axis=-1, where=positive)
    degenerate = (totals[..., 0] <= 0) | (positive.sum(axis=-1) <= 1)
    entropies = np.where(degenerate, 0.0, entropies)
    if base_cardinality is not None:
        if base_cardinality < 2:
            raise ValueError("base_cardinality must be >= 2")
        entropies = entropies / math.log(base_cardinality)
    return entropies


def empirical_entropy(
    values: Iterable[Union[int, str]], base_cardinality: int = None
) -> float:
    """Entropy of the empirical distribution of ``values``."""
    counts: Dict[Union[int, str], int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return entropy_of_counts(list(counts.values()), base_cardinality)


def nybble_counts(address_set: AddressSet) -> np.ndarray:
    """Per-column value counts as a ``(width, 16)`` matrix, in one pass.

    Column ``i``'s nybble values are fused into ``16*i + value`` codes
    and counted with a single ``bincount`` over the whole matrix.
    """
    matrix = address_set.matrix
    n, width = matrix.shape
    if n == 0:
        return np.zeros((width, NYBBLE_CARDINALITY), dtype=np.int64)
    offsets = np.arange(width, dtype=np.int64) * NYBBLE_CARDINALITY
    fused = matrix.astype(np.int64, copy=False) + offsets[np.newaxis, :]
    counts = np.bincount(
        fused.ravel(), minlength=width * NYBBLE_CARDINALITY
    )
    return counts.reshape(width, NYBBLE_CARDINALITY)


def nybble_entropies(address_set: AddressSet) -> np.ndarray:
    """Normalized entropy of each nybble column (eq. 1-2).

    Returns an array of ``width`` floats in [0, 1]; element ``i`` is
    ``H^(X_{i+1})`` of Section 4.1.  One fused bincount over the whole
    matrix replaces the per-column loop (retained as
    :func:`_nybble_entropies_scalar`).
    """
    width = address_set.width
    if len(address_set) == 0:
        return np.zeros(width, dtype=np.float64)
    counts = nybble_counts(address_set)
    return entropy_of_count_rows(counts) / math.log(NYBBLE_CARDINALITY)


def _nybble_entropies_scalar(address_set: AddressSet) -> np.ndarray:
    """The pre-vectorization per-column loop (the reference path)."""
    matrix = address_set.matrix
    n, width = matrix.shape
    result = np.zeros(width, dtype=np.float64)
    if n == 0:
        return result
    log_norm = math.log(NYBBLE_CARDINALITY)
    for column in range(width):
        counts = np.bincount(matrix[:, column], minlength=NYBBLE_CARDINALITY)
        result[column] = entropy_of_counts(counts) / log_norm
    return result


def nybble_contingency(address_set: AddressSet) -> np.ndarray:
    """Joint nybble counts for every column pair, from one fused pass.

    Returns a ``(width, width, 16, 16)`` tensor ``J`` with
    ``J[i, j, a, b]`` = number of rows where column ``i`` holds ``a``
    and column ``j`` holds ``b``.  Each row contributes one fused code
    ``256*(i*width + j) + 16*a + b`` per ordered column pair and a
    single ``bincount`` (chunked over rows to bound memory) counts them
    all — entropies, the MI/NMI matrix and any pairwise dependence
    statistic then derive from this tensor without re-scanning rows.

    ``J[i, i]`` is the diagonal matrix of column ``i``'s marginal
    counts; ``J[i, j].sum(axis=1)`` recovers the same marginal for any
    ``j``.
    """
    matrix = address_set.matrix
    n, width = matrix.shape
    cells = NYBBLE_CARDINALITY * NYBBLE_CARDINALITY
    counts = np.zeros(width * width * cells, dtype=np.int64)
    if n == 0:
        return counts.reshape(width, width, NYBBLE_CARDINALITY, NYBBLE_CARDINALITY)
    offsets = (np.arange(width * width, dtype=np.int64) * cells).reshape(
        width, width
    )
    chunk = max(1, _CONTINGENCY_CHUNK_CODES // (width * width))
    for start in range(0, n, chunk):
        block = matrix[start : start + chunk].astype(np.int64, copy=False)
        fused = (
            block[:, :, np.newaxis] * NYBBLE_CARDINALITY
            + block[:, np.newaxis, :]
            + offsets[np.newaxis, :, :]
        )
        counts += np.bincount(fused.ravel(), minlength=counts.size)
    return counts.reshape(width, width, NYBBLE_CARDINALITY, NYBBLE_CARDINALITY)


def total_entropy(address_set: AddressSet) -> float:
    """Total entropy H_S (eq. 3): the sum of per-nybble entropies.

    Quantifies how hard it is to guess addresses in the set by chance;
    e.g. the paper reports H_S = 4.6 for router dataset R1 and
    H_S = 21.2 for client dataset C1.
    """
    return float(nybble_entropies(address_set).sum())


def windowed_entropy(
    address_set: AddressSet,
    bit_step: int = 4,
) -> List[Tuple[int, int, float]]:
    """Unnormalized entropy for every (position, length) address window.

    This reproduces the "windowing analysis" of Section 4.5 / Fig. 5:
    for every window of ``length`` bits starting at ``position`` bits
    (both multiples of ``bit_step``), compute the entropy (in bits,
    unnormalized) of the window's values across the set.

    Returns a list of ``(position_bits, length_bits, entropy_bits)``.
    Windows wider than 64 bits are skipped (their values would not be
    vectorizable and the paper's Fig. 5 colour scale saturates well below
    that anyway — entropy is capped by ``log2 n``).

    Window values are packed *incrementally*: the window ``(start,
    stop)`` extends the packed values of ``(start, stop - step)`` with a
    few shift-or steps instead of re-packing its nybbles from scratch,
    so the whole quadratic window sweep re-reads each matrix column a
    constant number of times per start position.
    """
    if bit_step % 4 != 0:
        raise ValueError("bit_step must be a multiple of 4 (nybble-aligned)")
    nybble_step = bit_step // 4
    matrix = address_set.matrix
    width = address_set.width
    log2 = math.log(2)
    results: List[Tuple[int, int, float]] = []
    for start in range(0, width, nybble_step):
        values = np.zeros(len(address_set), dtype=np.uint64)
        for stop in range(start + nybble_step, width + 1, nybble_step):
            if (stop - start) * 4 > 64:
                break  # every later stop is wider still
            for column in range(stop - nybble_step, stop):
                values = (values << np.uint64(4)) | matrix[:, column].astype(
                    np.uint64
                )
            _, counts = np.unique(values, return_counts=True)
            entropy_nats = entropy_of_counts(counts)
            results.append((start * 4, (stop - start) * 4, entropy_nats / log2))
    return results


def entropy_profile(address_set: AddressSet) -> Dict[str, object]:
    """Convenience bundle: per-nybble entropies plus H_S."""
    entropies = nybble_entropies(address_set)
    return {
        "per_nybble": entropies,
        "total": float(entropies.sum()),
        "n": len(address_set),
        "width": address_set.width,
    }
