"""Ground sets, bitmask subsets, triplets, and the two orders everything uses.

Conventions:

* A ground set N of n variables (1 <= n <= 12) carries single-character
  labels other than "0" and "|" (see Serialization), by default the first n
  of a, b, c, ...  Subsets of N are int bitmasks: bit i set <=> label i in
  the subset.
* Graded set order on P(N): compare by cardinality first, break ties by
  ascending lexicographic order on the sorted tuple of member indices.
  Subset ranks 0 .. 2^n - 1 enumerate P(N) ascending in this order, so the
  empty set has rank 0 and N has rank 2^n - 1.
* A triplet <A|B|C> has pairwise disjoint subsets A, B, C of N and stands
  for "A independent of B given C".  By symmetry of the first two slots the
  canonical form puts A strictly before B in the graded set order whenever
  both are nonempty.
* Elementary triplets <a|b|C> have singleton A and B.  The elementary order
  compares C in the graded set order, then b, then a; ranks
  0 .. |E(N)| - 1 with |E(N)| = C(n,2) * 2^(n-2).
* The rank tables of both orders depend on n only: built once per n, read-only.
  per_n gives the same rule to every other table that holds no label.

Serialization: a subset prints as its labels concatenated in index order
("acd"), the empty set prints as "0"; a triplet prints as "A|B|C", e.g.
"a|b|cd" or "a|b|0".
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cache, wraps
from types import MappingProxyType


MAX_GROUND_SIZE = 12


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def bit_indices(mask: int) -> tuple[int, ...]:
    """Indices of set bits, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def iter_submasks(mask: int):
    """All submasks of `mask`, in no particular order (includes 0 and mask)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class GroundSet:
    """A fixed set of variables with labels; ranks subsets and elementary triplets.

    All other types hold a reference to their GroundSet, and two objects are
    only comparable/combinable when they share one (same labels).
    """

    def __init__(self, n_or_labels):
        if isinstance(n_or_labels, int):
            n = n_or_labels
            if not 1 <= n <= MAX_GROUND_SIZE:
                raise ValueError(f"ground set size must be in 1..{MAX_GROUND_SIZE}, got {n}")
            labels = tuple(string.ascii_lowercase[:n])
        else:
            labels = tuple(n_or_labels)
            if not 1 <= len(labels) <= MAX_GROUND_SIZE:
                raise ValueError(f"ground set size must be in 1..{MAX_GROUND_SIZE}, got {len(labels)}")
            if any(not (isinstance(l, str) and len(l) == 1) for l in labels):
                raise ValueError("labels must be single characters")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be distinct")
            if "0" in labels or "|" in labels:
                raise ValueError("labels '0' and '|' are reserved for the empty set and triplets")
        self.labels = labels
        self.n = len(labels)
        self.full_mask = (1 << self.n) - 1
        self.num_subsets = 1 << self.n
        self._label_index = {l: i for i, l in enumerate(labels)}

    def __repr__(self):
        return f"GroundSet({''.join(self.labels)!r})"

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    # -- subset ranking ------------------------------------------------

    @staticmethod
    def subset_key(mask: int):
        """Sort key realizing the graded set order."""
        return (popcount(mask), bit_indices(mask))

    @property
    def masks_graded(self) -> tuple[int, ...]:
        """All subset masks ascending in the graded set order."""
        return _subset_tables(self.n)[0]

    def subset_rank(self, mask: int) -> int:
        return _subset_tables(self.n)[1][mask]

    def mask_of_rank(self, rank: int) -> int:
        return _subset_tables(self.n)[0][rank]

    # -- subset parsing/formatting ---------------------------------------

    def subset_str(self, mask: int) -> str:
        if mask == 0:
            return "0"
        return "".join(self.labels[i] for i in bit_indices(mask))

    def parse_subset(self, text: str) -> int:
        if text == "0":
            return 0
        mask = 0
        for ch in text:
            i = self._label_index.get(ch)
            if i is None:
                raise ValueError(f"unknown label {ch!r} for ground set {''.join(self.labels)}")
            if mask & (1 << i):
                raise ValueError(f"repeated label {ch!r} in subset {text!r}")
            mask |= 1 << i
        return mask

    def subset(self, arg) -> "Subset":
        """Build a Subset from a mask, a label string, or an iterable of labels."""
        if isinstance(arg, Subset):
            if arg.ground != self:
                raise ValueError("subset belongs to a different ground set")
            return arg
        if isinstance(arg, int):
            if not 0 <= arg <= self.full_mask:
                raise ValueError(f"mask {arg} out of range for n={self.n}")
            return Subset(self, arg)
        if isinstance(arg, str):
            return Subset(self, self.parse_subset(arg))
        mask = 0
        for l in arg:
            mask |= 1 << self._label_index[l]
        return Subset(self, mask)

    # -- elementary ranking ----------------------------------------------

    @property
    def elementary_triples(self) -> tuple[tuple[int, int, int], ...]:
        """(a_bit, b_bit, c_mask) for all elementary triplets, ascending rank."""
        return _elementary_tables(self.n)[0]

    @property
    def _elementary_rank(self) -> MappingProxyType:
        return _elementary_tables(self.n)[1]

    def elementary_rank(self, x: int, y: int, c_mask: int) -> int:
        """Rank of the elementary triplet <x|y|C>, label indices x != y in
        either order."""
        lo, hi = (x, y) if x < y else (y, x)
        return _elementary_tables(self.n)[1][(lo, hi, c_mask)]

    @property
    def num_elementary(self) -> int:
        return len(self.elementary_triples)


@cache
def _subset_tables(n: int):
    """masks_graded and its inverse, the subset rank of every mask, at size n."""
    masks = tuple(sorted(range(1 << n), key=GroundSet.subset_key))
    return masks, tuple(sorted(range(1 << n), key=masks.__getitem__))


@cache
def _elementary_tables(n: int):
    """elementary_triples (C in graded order, then b, then a) and _elementary_rank at size n."""
    triples = []
    for c_mask in _subset_tables(n)[0]:
        rest = bit_indices(((1 << n) - 1) & ~c_mask)
        triples += [(a, b, c_mask) for j, b in enumerate(rest) for a in rest[:j]]
    return tuple(triples), MappingProxyType({t: r for r, t in enumerate(triples)})


def per_n(build):
    """Cache build(g) by g.n: one table per size, shared by every GroundSet
    of that size.  Only for tables that hold no label (ranks, bit indices,
    values), since the first ground set of a size builds the table for all
    of them; the table must be read-only.  cache_clear() empties it."""
    tables = {}

    @wraps(build)
    def table(g):
        try:
            return tables[g.n]
        except KeyError:
            return tables.setdefault(g.n, build(g))

    table.cache_clear = tables.clear
    return table


@dataclass(frozen=True)
class Subset:
    """A subset of a ground set, stored as a bitmask."""

    ground: GroundSet
    mask: int

    @property
    def cardinality(self) -> int:
        return popcount(self.mask)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.ground.labels[i] for i in bit_indices(self.mask))

    @property
    def rank(self) -> int:
        return self.ground.subset_rank(self.mask)

    def key(self):
        return self.ground.subset_key(self.mask)

    def __str__(self):
        return self.ground.subset_str(self.mask)


@dataclass(frozen=True)
class Triplet:
    """A canonical triplet <A|B|C> of pairwise disjoint subsets.

    Stored as masks.  The constructor canonicalizes by swapping A and B so
    that A comes first in the graded set order (when both are nonempty) and
    rejects overlapping parts.
    """

    ground: GroundSet
    a_mask: int
    b_mask: int
    c_mask: int

    def __post_init__(self):
        g = self.ground
        for m in (self.a_mask, self.b_mask, self.c_mask):
            if not 0 <= m <= g.full_mask:
                raise ValueError("triplet part out of range for ground set")
        if (self.a_mask & self.b_mask) or (self.a_mask & self.c_mask) or (self.b_mask & self.c_mask):
            raise ValueError("triplet parts must be pairwise disjoint")
        if self.a_mask and self.b_mask and g.subset_key(self.b_mask) < g.subset_key(self.a_mask):
            a, b = self.a_mask, self.b_mask
            object.__setattr__(self, "a_mask", b)
            object.__setattr__(self, "b_mask", a)

    @classmethod
    def parse(cls, ground: GroundSet, text: str) -> "Triplet":
        parts = text.split("|")
        if len(parts) != 3:
            raise ValueError(f"triplet must have three '|'-separated parts, got {text!r}")
        a, b, c = (ground.parse_subset(p) for p in parts)
        return cls(ground, a, b, c)

    @property
    def is_elementary(self) -> bool:
        return popcount(self.a_mask) == 1 and popcount(self.b_mask) == 1

    @property
    def is_trivial(self) -> bool:
        """True when A or B is empty (the associated imset is zero)."""
        return self.a_mask == 0 or self.b_mask == 0

    def key(self):
        """Sort key: C, then B, then A in the graded set order.

        Restricted to elementary triplets this realizes the elementary order.
        """
        g = self.ground
        return (g.subset_key(self.c_mask), g.subset_key(self.b_mask), g.subset_key(self.a_mask))

    def __str__(self):
        g = self.ground
        return f"{g.subset_str(self.a_mask)}|{g.subset_str(self.b_mask)}|{g.subset_str(self.c_mask)}"


@dataclass(frozen=True)
class ElementaryIndex:
    """An elementary triplet <a|b|C> together with its rank in E(N).

    a < b as label indices; rank is the position in the elementary order.
    """

    ground: GroundSet
    a_bit: int
    b_bit: int
    c_mask: int

    def __post_init__(self):
        g = self.ground
        if not (0 <= self.a_bit < self.b_bit < g.n):
            raise ValueError("elementary triplet needs distinct singletons a < b")
        if self.c_mask & ((1 << self.a_bit) | (1 << self.b_bit)):
            raise ValueError("conditioning set overlaps {a, b}")
        if not 0 <= self.c_mask <= g.full_mask:
            raise ValueError("conditioning set out of range")

    @classmethod
    def from_rank(cls, ground: GroundSet, rank: int) -> "ElementaryIndex":
        a, b, c = ground.elementary_triples[rank]
        return cls(ground, a, b, c)

    @classmethod
    def from_triplet(cls, t: Triplet) -> "ElementaryIndex":
        if not t.is_elementary:
            raise ValueError(f"triplet {t} is not elementary")
        return cls(t.ground, bit_indices(t.a_mask)[0], bit_indices(t.b_mask)[0], t.c_mask)

    @property
    def rank(self) -> int:
        return self.ground._elementary_rank[(self.a_bit, self.b_bit, self.c_mask)]

    def triplet(self) -> Triplet:
        return Triplet(self.ground, 1 << self.a_bit, 1 << self.b_bit, self.c_mask)

    def __str__(self):
        return str(self.triplet())


def enumerate_elementary(ground: GroundSet):
    """All ElementaryIndex objects ascending in the elementary order."""
    return [ElementaryIndex(ground, a, b, c) for (a, b, c) in ground.elementary_triples]


def enumerate_triplets(ground: GroundSet):
    """All canonical triplets <A|B|C> with A, B nonempty, deterministically.

    The order sorts by (C, B, A) in the graded set order; restricted to
    elementary triplets this is exactly the elementary order, so the
    elementary members of the list match enumerate_elementary rank for rank.
    """
    g = ground
    out = []
    for c_mask in g.masks_graded:
        comp = g.full_mask & ~c_mask
        bs = sorted(iter_submasks(comp), key=g.subset_key)
        for b_mask in bs:
            if b_mask == 0:
                continue
            rest = comp & ~b_mask
            for a_mask in sorted(iter_submasks(rest), key=g.subset_key):
                if a_mask == 0:
                    continue
                if g.subset_key(a_mask) < g.subset_key(b_mask):
                    out.append(Triplet(g, a_mask, b_mask, c_mask))
    return out
