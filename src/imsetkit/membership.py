"""Membership tests for the three nested imset classes, with witnesses.

* lattice: integer vectors whose coordinate sums vanish globally and over
  every variable's half of P(N); equivalently integer combinations of
  elementary imsets.
* structural: lattice members that are also nonnegative rational
  combinations of elementary imsets (exact LP over the configuration).
* combinatorial: nonnegative *integer* combinations of elementary imsets.

The combinatorial search exploits the grading ⟨f*, u⟩ with
f*(S) = |S|(|S|-1)/2: every elementary imset has grade exactly 1, so any
nonnegative integer witness for u uses exactly degree(u) summands.  Also,
the lowest-ranked nonzero coordinate of a nonempty sum of elementary
imsets is the least conditioning set among its summands, carrying a
strictly positive entry; the depth-first search branches only over
elementary imsets conditioned on that set, in ascending elementary order,
which makes the enumeration exact and duplicate-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .groundset import ElementaryIndex, GroundSet, popcount
from .imsets import Imset, configuration, elementary_columns, inner, is_member_L_star
from .linalg import lp_feasible
from .supermodular import SetFunction


def degree_function(g: GroundSet) -> SetFunction:
    """f*(S) = |S|(|S|-1)/2; grades every elementary imset at exactly 1."""
    vals = []
    for m in g.masks_graded:
        k = popcount(m)
        vals.append(k * (k - 1) // 2)
    return SetFunction(g, tuple(vals))


def degree(u: Imset) -> int:
    return inner(degree_function(u.ground), u)


@dataclass(frozen=True)
class MembershipResult:
    """Finest class containing u, a witness when one exists, and the degree.

    membership_class: "combinatorial", "structural", "lattice", or "none"
    witness: coefficient vector over E(N) (nonnegative integers for a
    combinatorial witness, nonnegative rationals for a structural one),
    None otherwise.
    """

    ground: GroundSet
    membership_class: str
    witness: tuple | None
    degree: int

    def to_json(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = {}
            for j, c in enumerate(self.witness):
                if c:
                    key = str(ElementaryIndex.from_rank(self.ground, j).triplet())
                    frac = Fraction(c)
                    witness[key] = int(frac) if frac.denominator == 1 else str(frac)
        return {
            "class": self.membership_class,
            "degree": self.degree,
            "witness": witness,
        }


@lru_cache(maxsize=32)
def _blocks_by_conditioning(g: GroundSet):
    """elementary ranks grouped by the subset rank of their conditioning
    set; cached per ground set."""
    blocks = {}
    for j, (_, _, c_mask) in enumerate(g.elementary_triples):
        blocks.setdefault(g.subset_rank(c_mask), []).append(j)
    return MappingProxyType({r: tuple(js) for r, js in blocks.items()})


@lru_cache(maxsize=32)
def _superset_hits(g: GroundSet):
    """The masks T with |T| >= 2, and per elementary column the indices of
    the T that it contributes 1 to; cached per ground set."""
    t_masks = tuple(m for m in g.masks_graded if popcount(m) >= 2)
    hits = []
    for a_bit, b_bit, c_mask in g.elementary_triples:
        abc = (1 << a_bit) | (1 << b_bit) | c_mask
        ac = (1 << a_bit) | c_mask
        bc = (1 << b_bit) | c_mask
        row = []
        for ti, t_mask in enumerate(t_masks):
            val = (
                (abc & t_mask == t_mask)
                - (ac & t_mask == t_mask)
                - (bc & t_mask == t_mask)
                + (c_mask & t_mask == t_mask)
            )
            if val:
                row.append(ti)
        hits.append(tuple(row))
    return t_masks, tuple(hits)


def _superset_inner_data(g: GroundSet, u: Imset):
    """Pruning data for the search: for every T with |T| >= 2, the inner
    product <1_{T ⊆ ·}, u>, plus the T-indices each elementary column
    contributes 1 to.

    Superset indicators are supermodular, so their inner product with any
    elementary imset is 0 or 1; a nonnegative combination therefore keeps
    every such inner product nonnegative, and so does every residual along
    a valid witness prefix.  A residual with a negative entry can never be
    completed and the branch is cut."""
    t_masks, hits = _superset_hits(g)
    support = list(u.items())
    sums = [sum(v for mask, v in support if mask & t_mask == t_mask) for t_mask in t_masks]
    return sums, hits


def _dfs_witnesses(u: Imset, limit=None, excluded=()):
    """Yield nonnegative-integer witnesses (as coefficient tuples) for u,
    one per multiset of elementary imsets, in nondecreasing-sequence
    order; columns in `excluded` are never used."""
    g = u.ground
    table = elementary_columns(g)
    blocks = _blocks_by_conditioning(g)
    excluded = frozenset(excluded)
    residual = list(u.values)
    counts = [0] * g.num_elementary
    sums, hits = _superset_inner_data(g, u)
    if any(s < 0 for s in sums):
        return []
    found = []

    def first_nonzero():
        for r, v in enumerate(residual):
            if v != 0:
                return r
        return None

    def rec(pos):
        if limit is not None and len(found) >= limit:
            return
        r = first_nonzero()
        if r is None:
            found.append(tuple(counts))
            return
        if residual[r] < 0:
            return
        for j in blocks.get(r, ()):
            if j < pos or j in excluded:
                continue
            dead = False
            for ti in hits[j]:
                sums[ti] -= 1
                if sums[ti] < 0:
                    dead = True
            if dead:
                for ti in hits[j]:
                    sums[ti] += 1
                continue
            abc, c, ac, bc = table[j]
            residual[abc] -= 1
            residual[c] -= 1
            residual[ac] += 1
            residual[bc] += 1
            counts[j] += 1
            rec(j)
            counts[j] -= 1
            residual[abc] += 1
            residual[c] += 1
            residual[ac] -= 1
            residual[bc] -= 1
            for ti in hits[j]:
                sums[ti] += 1

    rec(0)
    return found


def classify(u: Imset) -> MembershipResult:
    """Finest of {combinatorial, structural, lattice, none} containing u."""
    g = u.ground
    deg = degree(u)
    if not is_member_L_star(u):
        return MembershipResult(g, "none", None, deg)
    cfg = configuration(g)
    lp = lp_feasible(cfg.matrix, u.values)
    if not lp.feasible:
        return MembershipResult(g, "lattice", None, deg)
    hits = _dfs_witnesses(u, limit=1)
    if hits:
        return MembershipResult(g, "combinatorial", hits[0], deg)
    return MembershipResult(g, "structural", lp.witness, deg)


def combinatorial_decompositions(u: Imset, limit: int = 10) -> list:
    """All (up to `limit`) nonnegative-integer witnesses for u, sorted
    lexicographically by coefficient vector."""
    found = _dfs_witnesses(u)
    if not found:
        raise ValueError("imset is not combinatorial")
    found.sort()
    return found[:limit]
