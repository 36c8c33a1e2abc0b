"""Address-scheme composition DSL.

A :class:`AddressScheme` describes how one network builds addresses: an
ordered list of :class:`Field` objects, each a fixed number of nybbles
wide, each drawing its value from a sampler function.  Samplers share a
per-address ``context`` dictionary, which is how cross-field dependencies
are expressed (e.g. dataset C1's Android pattern, where the low segments
are jointly determined, §5.4 — or S1's addressing "variants" selected by
segment B, §5.2).

Samplers are plain callables ``(rng, context) -> int`` so schemes stay
explicit and composable; :mod:`repro.datasets.parts` provides a library
of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.ipv6.sets import AddressSet

#: A sampler draws one field value; it may read/write the shared
#: per-address context to coordinate with other fields.
Sampler = Callable[[np.random.Generator, Dict[str, object]], int]


@dataclass(frozen=True)
class Field:
    """One fixed-width piece of the address layout."""

    name: str
    nybbles: int
    sampler: Sampler

    def __post_init__(self):
        if self.nybbles < 1:
            raise ValueError(f"field {self.name!r}: nybbles must be >= 1")

    @property
    def cardinality(self) -> int:
        return 16 ** self.nybbles


class AddressScheme:
    """A full address layout: fields concatenated to ``width`` nybbles."""

    def __init__(self, fields: Sequence[Field], width: int = 32):
        self.fields: List[Field] = list(fields)
        total = sum(f.nybbles for f in self.fields)
        if total != width:
            raise ValueError(
                f"fields cover {total} nybbles, expected {width}"
            )
        self.width = width
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names: {names}")
        # Per-field constants of the per-row loop, computed once.
        self._layout = [
            (f, f.sampler, 4 * f.nybbles, f.cardinality) for f in self.fields
        ]

    def generate_one(self, rng: np.random.Generator) -> int:
        """Draw a single address as a ``width``-nybble integer."""
        context: Dict[str, object] = {}
        value = 0
        for field, sampler, bits, bound in self._layout:
            piece = int(sampler(rng, context))
            if not 0 <= piece < bound:
                raise ValueError(
                    f"field {field.name!r} sampled {piece:#x}, which does "
                    f"not fit in {field.nybbles} nybbles"
                )
            context[field.name] = piece
            value = (value << bits) | piece
        return value

    def generate(self, n: int, rng: np.random.Generator) -> List[int]:
        """Draw ``n`` addresses (duplicates possible, like real traffic)."""
        return [self.generate_one(rng) for _ in range(n)]

    def generate_unique(
        self, n: int, rng: np.random.Generator, max_rounds: int = 64
    ) -> List[int]:
        """Draw until ``n`` distinct addresses are collected.

        Raises if the scheme's support appears too small to produce
        ``n`` distinct values within ``max_rounds`` of oversampling.
        """
        seen: Dict[int, None] = {}
        for _ in range(max_rounds):
            missing = n - len(seen)
            if missing <= 0:
                break
            for value in self.generate(int(missing * 1.2) + 8, rng):
                if len(seen) >= n:
                    break
                seen.setdefault(value)
        if len(seen) < n:
            raise RuntimeError(
                f"scheme produced only {len(seen)} distinct addresses "
                f"of the requested {n}"
            )
        return list(seen)[:n]

    def generate_set(
        self, n: int, rng: np.random.Generator, unique: bool = True
    ) -> AddressSet:
        """Generate as an :class:`AddressSet`."""
        values = (
            self.generate_unique(n, rng) if unique else self.generate(n, rng)
        )
        return AddressSet.from_ints(
            values, width=self.width, already_truncated=True
        )
