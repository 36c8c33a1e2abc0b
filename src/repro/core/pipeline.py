"""The one-stop Entropy/IP facade.

:class:`EntropyIP` runs the full stepwise pipeline of Section 1:

    ingest addresses → compute entropies → discover segments → mine
    segment values → build a BN model

and then exposes exploration (entropy/ACR profiles, the conditional
probability browser, windowing analysis) and candidate generation.

The prefix-prediction mode of Section 5.6 is simply ``width=16``:
the identical pipeline constrained to the top 64 bits.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.bayes.structure import StructureConfig, learn_structure
from repro.core.acr import aggregate_count_ratio
from repro.core.browser import ConditionalBrowser
from repro.core.encoding import AddressEncoder
from repro.core.mining import MinedSegment, MiningConfig, mine_segments
from repro.core.model import AddressModel, EvidenceLike
from repro.core.segmentation import (
    Segment,
    SegmentationConfig,
    boundaries_from_entropy,
    segments_from_boundaries,
)
from repro.core.windowing import WindowingResult, windowing_analysis
from repro.ipv6.address import IPv6Address
from repro.ipv6.sets import AddressSet
from repro.stats.entropy import _nybble_entropies_scalar, nybble_entropies
from repro.stats.rng import default_rng


class EntropyIP:
    """A fitted Entropy/IP analysis of one address set.

    >>> ips = ["2001:db8::%x" % i for i in range(1, 200)]
    >>> analysis = EntropyIP.fit(ips)
    >>> analysis.segments[0].label
    'A'
    """

    def __init__(
        self,
        address_set: AddressSet,
        entropies: np.ndarray,
        segments: List[Segment],
        mined: List[MinedSegment],
        model: AddressModel,
    ):
        self.address_set = address_set
        self.entropies = entropies
        self.segments = segments
        self.mined = mined
        self.model = model

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        addresses: Union[AddressSet, Iterable[Union[str, int, IPv6Address]]],
        width: int = 32,
        segmentation: SegmentationConfig = SegmentationConfig(),
        mining: MiningConfig = MiningConfig(),
        structure: StructureConfig = StructureConfig(),
    ) -> "EntropyIP":
        """Run the full pipeline on a training set.

        ``addresses`` may be an :class:`AddressSet` or any iterable of
        address strings / integers / :class:`IPv6Address`.  ``width=16``
        selects the §5.6 prefix mode (top 64 bits only).
        """
        address_set = _as_address_set(addresses, width)
        if len(address_set) == 0:
            raise ValueError("cannot fit on an empty address set")
        entropies = nybble_entropies(address_set)
        starts = boundaries_from_entropy(entropies, segmentation)
        segments = segments_from_boundaries(starts, address_set.width)
        mined = mine_segments(address_set, segments, mining)
        encoder = AddressEncoder(mined)
        model = AddressModel.fit(address_set, encoder, structure)
        return cls(address_set, entropies, segments, mined, model)

    @classmethod
    def _fit_reference(
        cls,
        addresses: Union[AddressSet, Iterable[Union[str, int, IPv6Address]]],
        width: int = 32,
        segmentation: SegmentationConfig = SegmentationConfig(),
        mining: MiningConfig = MiningConfig(),
        structure: StructureConfig = StructureConfig(),
    ) -> "EntropyIP":
        """The retained pre-vectorization scalar fit path.

        Runs the identical pipeline on the scalar building blocks kept
        for exactly this purpose — the per-column entropy loop, the
        per-value Python histogram / grid-scan DBSCAN mining engine,
        and re-count-per-score structure learning — and produces a
        **bit-identical** fitted model (same segments, mined values, BN
        edges and CPD tables).  ``tests/core/test_fit_golden.py``
        (``TestVectorReferenceBitIdentity``) compares :meth:`fit` with
        it field by field, and ``TestGoldenDigests`` pins its digest.
        """
        address_set = _as_address_set(addresses, width)
        if len(address_set) == 0:
            raise ValueError("cannot fit on an empty address set")
        entropies = _nybble_entropies_scalar(address_set)
        starts = boundaries_from_entropy(entropies, segmentation)
        segments = segments_from_boundaries(starts, address_set.width)
        mined = mine_segments(address_set, segments, mining, engine="reference")
        encoder = AddressEncoder(mined)
        codes = encoder.encode_set(address_set)
        network = learn_structure(
            codes,
            encoder.variable_names,
            encoder.cardinalities,
            structure,
            cache=False,
        )
        model = AddressModel(encoder, network)
        return cls(address_set, entropies, segments, mined, model)

    # ------------------------------------------------------------------
    # exploration
    # ------------------------------------------------------------------

    @property
    def encoder(self) -> AddressEncoder:
        return self.model.encoder

    def entropy(self) -> np.ndarray:
        """Per-nybble normalized entropy (the blue line of the figures)."""
        return self.entropies

    def total_entropy(self) -> float:
        """H_S of eq. (3)."""
        return float(self.entropies.sum())

    def acr(self) -> np.ndarray:
        """4-bit ACR (the dashed red line of the figures)."""
        return aggregate_count_ratio(self.address_set)

    def browse(
        self, evidence: Optional[EvidenceLike] = None
    ) -> ConditionalBrowser:
        """Open the conditional probability browser."""
        return ConditionalBrowser(self.model, evidence)

    def windowing(self, measure: str = "entropy") -> WindowingResult:
        """Fig. 5-style windowed variability analysis."""
        return windowing_analysis(self.address_set, measure=measure)

    def segment_table(self) -> Dict[str, List]:
        """Table-3-style mining dump (code, value, frequency per segment)."""
        return self.encoder.code_table()

    def describe(self) -> str:
        """One-paragraph text summary of the analysis."""
        segments_text = ", ".join(str(s) for s in self.segments)
        return (
            f"Entropy/IP analysis of {len(self.address_set)} addresses "
            f"(width {self.address_set.width} nybbles): H_S = "
            f"{self.total_entropy():.1f}; {len(self.segments)} segments "
            f"[{segments_text}]; BN edges: {self.model.network.edges()}"
        )

    # ------------------------------------------------------------------
    # generation (Sections 5.5-5.6)
    # ------------------------------------------------------------------

    def generate(
        self,
        n: int,
        rng: Optional[np.random.Generator] = None,
        evidence: Optional[EvidenceLike] = None,
        exclude_training: bool = True,
        workers: Optional[int] = None,
    ) -> AddressSet:
        """Generate ``n`` distinct candidate targets.

        With ``exclude_training`` (the default, matching §5.5), no
        candidate equals a training address.  ``workers`` shards the
        generation across a thread pool (see :mod:`repro.exec`); output
        is bit-identical for any worker count.
        """
        rng = default_rng(rng)
        exclude = self.address_set if exclude_training else None
        return self.model.generate_set(
            n, rng, evidence=evidence, exclude=exclude, workers=workers
        )

    def generate_addresses(
        self,
        n: int,
        rng: Optional[np.random.Generator] = None,
        evidence: Optional[EvidenceLike] = None,
        exclude_training: bool = True,
        workers: Optional[int] = None,
    ) -> List[IPv6Address]:
        """Like :meth:`generate`, materialized as address objects."""
        return self.generate(
            n,
            rng,
            evidence=evidence,
            exclude_training=exclude_training,
            workers=workers,
        ).addresses()


def _as_address_set(
    addresses: Union[AddressSet, Iterable[Union[str, int, IPv6Address]]],
    width: int,
) -> AddressSet:
    if isinstance(addresses, AddressSet):
        if addresses.width == width:
            return addresses
        if addresses.width > width:
            return addresses.truncate(width)
        raise ValueError(
            f"address set width {addresses.width} < requested width {width}"
        )
    materialized = list(addresses)
    if materialized and isinstance(materialized[0], str):
        return AddressSet.from_strings(materialized, width=width)
    return AddressSet.from_addresses(materialized, width=width)
