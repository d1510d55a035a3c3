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

classify orders its exact certificates by cost and runs the simplex only
when nothing cheaper decides: the L* sums, then the grade (a nonzero u of
degree <= 0 is outside the cone), then the superset and subset indicator
cuts (supermodular, 0/1 on every elementary imset, so <f, u> < 0 puts u
outside the cone), then an integer witness from the search, and only then
the LP.  The same cut table prunes the search and gives faces.certify_face
its LP-free exclusions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .groundset import ElementaryIndex, GroundSet, popcount
from .imsets import (
    Imset,
    column_value,
    configuration,
    elementary_columns,
    elementary_combination,
    inner,
    is_member_L_star,
)
from .linalg import InvariantError, lp_feasible
from .supermodular import SetFunction


@lru_cache(maxsize=32)
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


def _superset_indicator(g: GroundSet, mask: int) -> SetFunction:
    """1_{T⊆·} for T = mask."""
    return SetFunction(g, tuple(1 if m & mask == mask else 0 for m in g.masks_graded))


def _subset_indicator(g: GroundSet, mask: int) -> SetFunction:
    """1_{·⊆T} for T = mask."""
    return SetFunction(g, tuple(1 if m & ~mask == 0 else 0 for m in g.masks_graded))


@dataclass(frozen=True)
class _CutTable:
    """The indicator cuts of one ground set; see _cut_table."""

    cuts: tuple
    ones: tuple
    superset: int
    hits: tuple

    def inners(self, values, count=None) -> list:
        """<f, u> for the first `count` cuts f (all by default), u given by
        its rank-indexed values."""
        return [sum(map(values.__getitem__, ones)) for ones in self.ones[:count]]


@lru_cache(maxsize=32)
def _cut_table(g: GroundSet) -> _CutTable:
    """The superset indicators 1_{T⊆·} and then the subset indicators
    1_{·⊆T} that are positive on some elementary column; cached per ground
    set.

    cuts[i] = (f, ranks): f's rank-indexed values and the ranks of the
    columns w with <f, w> = 1; ones[i] holds the subset ranks where f is 1.
    The first `superset` cuts are the superset indicators (those with
    |T| >= 2), and hits[j] lists the superset cuts that are 1 on column j.
    Both families are supermodular, so every cut is 0 or 1 on every
    elementary imset: <f, u> < 0 proves u outside the cone, and <f, u> = 0
    puts every column in `ranks` outside the least face of u.

    Built with an exact check that every cut is 0/1 and f* is 1 on every
    elementary column; a failure raises InvariantError.
    """
    table = elementary_columns(g)
    star = degree_function(g).values
    if any(column_value(star, col) != 1 for col in table):
        raise InvariantError("f* is not 1 on every elementary column")
    cuts, hits, superset = [], [[] for _ in table], 0
    for family in (_superset_indicator, _subset_indicator):
        for mask in g.masks_graded:
            f = family(g, mask).values
            on = [column_value(f, col) for col in table]
            if any(x not in (0, 1) for x in on):
                raise InvariantError("an indicator cut is not 0/1 on every elementary column")
            ranks = tuple(j for j, x in enumerate(on) if x)
            if not ranks:
                continue
            if family is _superset_indicator:
                for j in ranks:
                    hits[j].append(len(cuts))
                superset += 1
            cuts.append((f, ranks))
    ones = tuple(tuple(r for r, x in enumerate(f) if x) for f, _ in cuts)
    return _CutTable(tuple(cuts), ones, superset, tuple(map(tuple, hits)))


class _OutOfBudget(Exception):
    """The search took more steps than its budget allows."""


def _dfs_witnesses(u: Imset, limit=None, excluded=(), budget=None):
    """Nonnegative-integer witnesses (as coefficient tuples) for u, one per
    multiset of elementary imsets, in nondecreasing-sequence order; columns
    in `excluded` are never used.  With a budget, a search that would visit
    more than `budget` nodes stops and returns None instead."""
    g = u.ground
    table = elementary_columns(g)
    blocks = _blocks_by_conditioning(g)
    excluded = frozenset(excluded)
    residual = list(u.values)
    counts = [0] * g.num_elementary
    # <1_{T⊆·}, r> >= 0 for every superset cut and every residual r along a
    # witness prefix, since each summand adds 0 or 1; a branch that drives
    # one negative can never be completed and is cut
    cut_table = _cut_table(g)
    hits = cut_table.hits
    sums = cut_table.inners(residual, cut_table.superset)
    if any(s < 0 for s in sums):
        return []
    found = []
    steps = 0

    def first_nonzero():
        for r, v in enumerate(residual):
            if v != 0:
                return r
        return None

    def rec(pos):
        nonlocal steps
        if limit is not None and len(found) >= limit:
            return
        steps += 1
        if budget is not None and steps > budget:
            raise _OutOfBudget
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

    try:
        rec(0)
    except _OutOfBudget:
        return None
    return found


def classify(u: Imset) -> MembershipResult:
    """Finest of {combinatorial, structural, lattice, none} containing u.

    Each answer rests on the cheapest exact certificate that decides it:

    1. u outside L*: none.
    2. u != 0 with degree(u) <= 0: lattice.  Every elementary imset has
       grade 1, so a nonnegative combination of degree <= 0 is empty.
    3. An indicator cut f (_cut_table) with <f, u> < 0: lattice.
    4. A nonnegative integer witness from the search, re-summed exactly
       (a mismatch raises InvariantError, also under python -O):
       combinatorial.
    5. The exact LP over the configuration: structural with its witness
       when feasible, lattice otherwise.

    The search in step 4 first gets a budget of 2^n·|E(N)| nodes, the size
    of the configuration and about the work of one LP at n = 4 and 5.  A
    search that runs out of it hands over to the LP, and runs again without
    a budget only when the LP is feasible.  So an input that passes every
    cut but is not combinatorial costs at most about one LP more than the
    LP alone, however large its degree.
    """
    g = u.ground
    deg = degree(u)
    if not is_member_L_star(u):
        return MembershipResult(g, "none", None, deg)
    if deg <= 0 and any(u.values):
        return MembershipResult(g, "lattice", None, deg)
    if any(x < 0 for x in _cut_table(g).inners(u.values)):
        return MembershipResult(g, "lattice", None, deg)
    lp = None
    found = _dfs_witnesses(u, limit=1, budget=g.num_subsets * g.num_elementary)
    if found is None:
        lp = lp_feasible(configuration(g).matrix, u.values)
        found = _dfs_witnesses(u, limit=1) if lp.feasible else []
    if found:
        witness = found[0]
        if min(witness, default=0) < 0 or elementary_combination(g, witness) != list(u.values):
            raise InvariantError("search witness does not re-sum to the imset")
        return MembershipResult(g, "combinatorial", witness, deg)
    if lp is None:
        lp = lp_feasible(configuration(g).matrix, u.values)
    if lp.feasible:
        return MembershipResult(g, "structural", lp.witness, deg)
    return MembershipResult(g, "lattice", None, deg)


def combinatorial_decompositions(u: Imset, limit: int = 10) -> list:
    """All (up to `limit`) nonnegative-integer witnesses for u, sorted
    lexicographically by coefficient vector."""
    found = _dfs_witnesses(u)
    if not found:
        raise ValueError("imset is not combinatorial")
    found.sort()
    return found[:limit]
