"""Vectors over P(N): set functions, imsets, and the configuration matrix.

A SetFunction is a dense vector of length 2^n indexed by subset rank in the
graded set order; its values are exact (ints, Fractions) or, for
entropy-like quantities, floats.  An imset is an integer-valued
SetFunction (the subclass Imset).  The basic building blocks are

    delta(A)             the indicator of the single subset A,
    u_<A|B|C> = delta(ABC) + delta(C) - delta(AC) - delta(BC)

(the semi-elementary imset of a triplet; zero when A or B is empty).
Elementary imsets are the u_<a|b|C> with singleton a, b; collecting them as
columns, ascending in the elementary order, gives the configuration matrix
of the ground set.

Every elementary column has exactly four nonzeros: +1 at abC and C, -1 at
aC and bC.  elementary_columns(g) lists those four subset ranks per
elementary rank; it holds no label, so it is built once per n and shared
by every ground set of that size (groundset.per_n).  Products of the
configuration with a coefficient vector (elementary_combination), the
configuration matrix itself and the kernel checks elsewhere all read this
table, so an exact product costs O(4·nnz(z)) instead of O(2^n·|E(N)|).
The full configuration is cached per ground set, which it carries; it is
frozen and built of tuples.  An inner product <f, u> with an elementary
imset is column_value(f.values, column), four lookups; the
supermodularity, skeletal and face tests all use it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .groundset import (
    ElementaryIndex,
    GroundSet,
    Subset,
    Triplet,
    enumerate_elementary,
    per_n,
    popcount,
)


def _to_value(x):
    """Ints and floats as they are, anything else as a Fraction."""
    if isinstance(x, (int, float)):
        return x
    return Fraction(x)


def _ranked_entries(ground: GroundSet, entries: dict):
    """(subset rank, key, value) per entry of a {subset-string: value} map;
    ValueError when two keys name the same subset."""
    seen = {}
    for key, v in entries.items():
        r = ground.subset_rank(ground.parse_subset(key))
        if r in seen:
            raise ValueError(f"keys {seen[r]!r} and {key!r} name the same subset")
        seen[r] = key
        yield r, key, v


@dataclass(frozen=True)
class SetFunction:
    """Vector over P(N), indexed by subset rank (graded set order): exact
    (ints, Fractions) or, for entropy-like quantities, float values.  +, -
    and scale keep the type, so an Imset stays an Imset.  A SetFunction and
    an Imset never compare equal, and + or - between them raises TypeError,
    whatever the operand order."""

    ground: GroundSet
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.ground.num_subsets:
            raise ValueError("vector length over P(N) must be 2^n")

    @classmethod
    def from_callable(cls, ground: GroundSet, fn):
        """fn maps a subset bitmask to a value."""
        return cls(ground, tuple(_to_value(fn(m)) for m in ground.masks_graded))

    @classmethod
    def zero(cls, ground: GroundSet):
        return cls(ground, (0,) * ground.num_subsets)

    @classmethod
    def from_dict(cls, ground: GroundSet, entries: dict) -> "SetFunction":
        """Build from {subset-string: "p/q" | number}; missing subsets are 0.
        A bool, a zero denominator ("1/0") or two keys for one subset ("ab",
        "ba") raises ValueError."""
        vals = [Fraction(0)] * ground.num_subsets
        for r, key, v in _ranked_entries(ground, entries):
            if isinstance(v, bool):  # JSON true/false are not numbers
                raise ValueError(f"set function values must be numbers, got {v!r} at {key!r}")
            try:
                vals[r] = Fraction(v)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {v!r} at {key!r}") from None
        return cls(ground, tuple(vals))

    def to_dict(self) -> dict:
        """{subset-string: "p/q"} with zero entries omitted."""
        g = self.ground
        out = {}
        for r, v in enumerate(self.values):
            if v != 0:
                out[g.subset_str(g.mask_of_rank(r))] = str(v)
        return out

    @property
    def is_exact(self) -> bool:
        """No float value: ints and Fractions are exact."""
        return not any(isinstance(v, float) for v in self.values)

    def at(self, mask: int):
        """Value at the subset given as a bitmask."""
        return self.values[self.ground.subset_rank(mask)]

    def _check_same_ground(self, other):
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} and {type(other).__name__}")
        if self.ground != other.ground:
            raise ValueError("vectors over different ground sets")

    def __add__(self, other):
        self._check_same_ground(other)
        return type(self)(self.ground, tuple(x + y for x, y in zip(self.values, other.values)))

    def __sub__(self, other):
        self._check_same_ground(other)
        return type(self)(self.ground, tuple(x - y for x, y in zip(self.values, other.values)))

    def __neg__(self):
        return type(self)(self.ground, tuple(-x for x in self.values))

    def scale(self, c):
        c = _to_value(c)
        return type(self)(self.ground, tuple(c * x for x in self.values))


@dataclass(frozen=True)
class Imset(SetFunction):
    """Integer-valued SetFunction."""

    def __post_init__(self):
        super().__post_init__()
        if any(not isinstance(v, int) for v in self.values):
            raise ValueError("imset values must be integers")

    @classmethod
    def from_dict(cls, ground: GroundSet, entries: dict) -> "Imset":
        """Build from a {subset-string: integer} map; missing subsets are 0.
        A value v with int(v) != v (1.5, "2"), a bool or two keys for one
        subset raise ValueError."""
        vals = [0] * ground.num_subsets
        for r, key, v in _ranked_entries(ground, entries):
            if isinstance(v, bool) or int(v) != v:
                raise ValueError(f"imset values must be integers, got {v!r} at {key!r}")
            vals[r] = int(v)
        return cls(ground, tuple(vals))

    def to_dict(self) -> dict:
        """{subset-string: int} with zero entries omitted, ascending rank."""
        g = self.ground
        return {
            g.subset_str(g.mask_of_rank(r)): v
            for r, v in enumerate(self.values)
            if v != 0
        }

    def items(self):
        """(mask, value) pairs for nonzero entries, ascending rank."""
        g = self.ground
        for r, v in enumerate(self.values):
            if v != 0:
                yield g.mask_of_rank(r), v

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def scale(self, c: int) -> "Imset":
        if not isinstance(c, int):
            raise ValueError("imsets scale by integers only")
        return super().scale(c)

    def __rmul__(self, c: int) -> "Imset":
        return self.scale(c)

    def format_text(self) -> str:
        """Render in delta-notation, descending subset rank (N first).

        The full set prints as N and the empty set as the usual symbol, e.g.
        "δ_N + 2δ_ab − δ_a + δ_∅".
        """
        g = self.ground
        parts = []
        for r in range(g.num_subsets - 1, -1, -1):
            v = self.values[r]
            if v == 0:
                continue
            mask = g.mask_of_rank(r)
            if mask == g.full_mask and g.n > 1:
                name = "N"
            elif mask == 0:
                name = "∅"
            else:
                name = g.subset_str(mask)
            mag = "" if abs(v) == 1 else str(abs(v))
            sign = "−" if v < 0 else "+"
            parts.append((sign, f"{mag}δ_{name}"))
        if not parts:
            return "0"
        first_sign, first_term = parts[0]
        text = ("−" if first_sign == "−" else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


def delta(A: Subset) -> Imset:
    """The imset with value 1 at A and 0 elsewhere."""
    return Imset.from_callable(A.ground, lambda m: int(m == A.mask))


def _four_ranks(g: GroundSet, a_mask: int, b_mask: int, c_mask: int) -> tuple:
    """(ABC, C, AC, BC) subset ranks: the four entries of u_<A|B|C>, +1 at
    the first two and -1 at the last two (distinct when A, B are
    nonempty)."""
    ac, bc = a_mask | c_mask, b_mask | c_mask
    return tuple(map(g.subset_rank, (ac | bc, c_mask, ac, bc)))


def semi_elementary(t: Triplet) -> Imset:
    """u_<A|B|C> = delta(ABC) + delta(C) - delta(AC) - delta(BC).

    Returns the zero imset when A or B is empty.
    """
    g = t.ground
    vals = [0] * g.num_subsets
    if not t.is_trivial:
        abc, c, ac, bc = _four_ranks(g, t.a_mask, t.b_mask, t.c_mask)
        vals[abc] = vals[c] = 1
        vals[ac] = vals[bc] = -1
    return Imset(g, tuple(vals))


def elementary_imset(e: ElementaryIndex) -> Imset:
    return semi_elementary(e.triplet())


def inner(f, u: Imset):
    """<f, u> = Σ_S f(S) u(S); f is any object with rank-aligned .values."""
    if f.ground != u.ground:
        raise ValueError("inner product requires a common ground set")
    return sum(fv * uv for fv, uv in zip(f.values, u.values) if uv != 0)


@dataclass(frozen=True)
class Configuration:
    """Columns = elementary imsets over a common ground set.

    The full configuration has one column per element of E(N), ascending in
    the elementary order; sub-configurations restrict to an explicit column
    list.  matrix[i][j] is the value of column j at the subset of rank i.
    """

    ground: GroundSet
    columns: tuple
    matrix: tuple

    @property
    def num_rows(self) -> int:
        return self.ground.num_subsets

    @property
    def num_cols(self) -> int:
        return len(self.columns)

    def column_vector(self, j: int) -> tuple:
        return tuple(row[j] for row in self.matrix)

    def to_csv(self) -> str:
        """CSV with a header row of triplet strings and a first column of
        subset strings."""
        g = self.ground
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow([""] + [str(e) for e in self.columns])
        for r in range(self.num_rows):
            w.writerow([g.subset_str(g.mask_of_rank(r))] + list(self.matrix[r]))
        return buf.getvalue()


@per_n
def elementary_columns(g: GroundSet) -> tuple:
    """(abC, C, aC, bC) subset ranks of every elementary column, ascending
    in the elementary order; u_<a|b|C> is +1 at the first two and -1 at the
    last two."""
    return tuple(_four_ranks(g, 1 << a, 1 << b, c) for a, b, c in g.elementary_triples)


def column_value(values, column):
    """<f, w> = f(ABC) + f(C) - f(AC) - f(BC) for the column w given by its
    (ABC, C, AC, BC) ranks; values is f's rank-indexed value sequence."""
    abc, c, ac, bc = column
    return values[abc] + values[c] - values[ac] - values[bc]


def elementary_combination(g: GroundSet, coeffs) -> list:
    """Σ_j coeffs[j]·u_j over the elementary imsets in elementary order, as
    a rank-indexed list of length 2^n (the configuration times coeffs)."""
    out = [0] * g.num_subsets
    for (abc, c, ac, bc), x in zip(elementary_columns(g), coeffs):
        if x:
            out[abc] += x
            out[c] += x
            out[ac] -= x
            out[bc] -= x
    return out


@lru_cache(maxsize=32)
def _full_configuration(g: GroundSet) -> "Configuration":
    return configuration(g, enumerate_elementary(g))


def configuration(g: GroundSet, columns=None) -> Configuration:
    """The configuration matrix; optionally restricted to given columns.

    columns: list of ElementaryIndex (defaults to all of E(N) ascending,
    cached per ground set).
    """
    if columns is None:
        if g.n < 2:
            raise ValueError("configuration needs at least two variables")
        return _full_configuration(g)
    columns = tuple(columns)
    table = elementary_columns(g)
    matrix = [[0] * len(columns) for _ in range(g.num_subsets)]
    for j, e in enumerate(columns):
        if e.ground != g:
            raise ValueError("column over a different ground set")
        abc, c, ac, bc = table[e.rank]
        matrix[abc][j] = matrix[c][j] = 1
        matrix[ac][j] = matrix[bc][j] = -1
    return Configuration(g, columns, tuple(map(tuple, matrix)))


def decompose_semi_elementary(t: Triplet):
    """Canonical decomposition of u_<A|B|C> into elementary imsets.

    Splits the largest label off B first (u_<A|B|C> = u_<A|B-d|C> +
    u_<A|d|(B-d)C>), then off A once B is a singleton.  Returns a list of
    (ElementaryIndex, positive multiplicity) pairs ascending in rank; the
    total multiplicity is |A||B|.
    """
    if t.is_trivial:
        raise ValueError("decomposition needs A and B nonempty")
    g = t.ground
    counts: dict = {}

    def split(a_mask, b_mask, c_mask):
        if popcount(b_mask) > 1:
            d = 1 << (b_mask.bit_length() - 1)
            split(a_mask, b_mask & ~d, c_mask)
            split(a_mask, d, (b_mask & ~d) | c_mask)
        elif popcount(a_mask) > 1:
            d = 1 << (a_mask.bit_length() - 1)
            split(a_mask & ~d, b_mask, c_mask)
            split(d, b_mask, (a_mask & ~d) | c_mask)
        else:
            r = g.elementary_rank(a_mask.bit_length() - 1, b_mask.bit_length() - 1, c_mask)
            counts[r] = counts.get(r, 0) + 1

    split(t.a_mask, t.b_mask, t.c_mask)
    return [(ElementaryIndex.from_rank(g, r), k) for r, k in sorted(counts.items())]


def is_member_L_star(u: Imset) -> bool:
    """Membership in the lattice spanned by the elementary imsets.

    Holds iff the total sum of values is 0 and, for every element e, the sum
    over subsets containing e is 0.
    """
    g = u.ground
    if sum(u.values) != 0:
        return False
    for i in range(g.n):
        bit = 1 << i
        if sum(v for mask, v in u.items() if mask & bit) != 0:
            return False
    return True
