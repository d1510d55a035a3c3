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
degree <= 0 is outside the cone), then one pass over the separating table
(a functional >= 0 on every elementary imset with <f, u> < 0 puts u
outside the cone), then an integer witness from the search, and only then
the LP.  The separating table is one family per n: at n <= 4 the extreme
rays of the standardized supermodular cone, whose tight sets are the
facets of cone(E(N)), so that a u in L* they pass is in the cone; above
that the superset and subset indicator cuts.  faces.certify_face reads
its LP-free exclusions from the same table.  The indicator cuts (0/1 on
every elementary imset) prune the search at every n: a summand adds 0 or
1 to each cut, so a prefix that takes a cut below 0 has no completion.
The search is a generator; classify pauses it around the LP rather than
running it twice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import count
from types import MappingProxyType

import numpy as np

from .groundset import ElementaryIndex, GroundSet, per_n, popcount
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
from .supermodular import SKELETON_MAX_N, SetFunction, _skeleton, _subset_indicator, _superset_indicator


@lru_cache(maxsize=32)
def degree_function(g: GroundSet) -> SetFunction:
    """f*(S) = |S|(|S|-1)/2; grades every elementary imset at exactly 1."""
    return SetFunction.from_callable(g, lambda m: popcount(m) * (popcount(m) - 1) // 2)


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


@per_n
def _blocks_by_conditioning(g: GroundSet):
    """elementary ranks grouped by the subset rank of their conditioning
    set; built once per n."""
    blocks = {}
    for j, (_, _, c_mask) in enumerate(g.elementary_triples):
        blocks.setdefault(g.subset_rank(c_mask), []).append(j)
    return MappingProxyType({r: tuple(js) for r, js in blocks.items()})


@dataclass(frozen=True)
class _CutTable:
    """A table of separating functionals of one ground set; see _cut_table
    and _separating_table."""

    cuts: tuple
    ones: tuple
    # hits[j]: the rows positive on column j; only the search reads them,
    # off _cut_table, so only _cut_table fills them
    hits: tuple = ()

    @classmethod
    def of(cls, g: GroundSet, rows) -> _CutTable:
        """The table of rows (f, ranks), f rank-indexed values >= 0 on every
        elementary column and ranks the columns f is positive on: ones[r]
        lists the (row, f(r)) pairs with f(r) != 0."""
        ones = [[] for _ in range(g.num_subsets)]
        for i, (f, _) in enumerate(rows):
            for r in (r for r, x in enumerate(f) if x):
                ones[r].append((i, f[r]))
        return cls(tuple(rows), tuple(map(tuple, ones)))

    def inners(self, values) -> list:
        """<f, u> for every row f, u given by its rank-indexed values; costs
        the nonzeros of u."""
        sums = [0] * len(self.cuts)
        for x, on in zip(values, self.ones):
            if x:
                for i, w in on:
                    sums[i] += w * x
        return sums


@per_n
def _cut_table(g: GroundSet) -> _CutTable:
    """The superset indicators 1_{T⊆·} and then the subset indicators
    1_{·⊆T} that are positive on some elementary column; built once per n.

    cuts[i] = (f, ranks): f's rank-indexed values and the ranks of the
    columns w with <f, w> = 1; ones[r] lists the (cut, 1) pairs of the cuts
    that are 1 at the subset of rank r, and hits[j] the cuts that are 1 on
    column j.  Both families are supermodular, so every cut is 0 or 1 on
    every elementary imset: <f, u> < 0 proves u outside the cone, and
    <f, u> = 0 puts every column in `ranks` outside the least face of u.

    `ranks` is read off the column masks, not evaluated: on <a|b|C>,
    1_{T⊆·} is 1 exactly when ab ⊆ T ⊆ abC, 1_{·⊆T} exactly when
    C ⊆ T ⊆ N∖ab, and both are 0 on every other column.  Built with an
    exact check that f* is 1 on every elementary column; a failure raises
    InvariantError.
    """
    star = degree_function(g).values
    if any(column_value(star, col) != 1 for col in elementary_columns(g)):
        raise InvariantError("f* is not 1 on every elementary column")
    triples = np.array(g.elementary_triples, dtype=np.intp).reshape(-1, 3)
    ab, c = 1 << triples[:, 0] | 1 << triples[:, 1], triples[:, 2]
    cuts = []
    # a cut is 1 on the columns with lo ⊆ T ⊆ hi (~ab: T misses a and b)
    for family, lo, hi in ((_superset_indicator, ab, ab | c), (_subset_indicator, c, ~ab)):
        for mask in g.masks_graded:
            ranks = tuple(np.flatnonzero((lo & ~mask == 0) & (mask & ~hi == 0)).tolist())
            if ranks:
                cuts.append((family(g, mask).values, ranks))
    hits = [[] for _ in range(g.num_elementary)]
    for i, (_, ranks) in enumerate(cuts):
        for j in ranks:
            hits[j].append(i)
    return replace(_CutTable.of(g, cuts), hits=tuple(map(tuple, hits)))


@per_n
def _separating_table(g: GroundSet) -> _CutTable:
    """The functionals that decide cone membership and least faces: at
    n <= SKELETON_MAX_N the extreme rays of the standardized supermodular
    cone (supermodular._skeleton), with their values as weights, and above
    it the indicator cuts (_cut_table) themselves; built once per n.

    Every row is >= 0 on every elementary column and lists the columns it
    is positive on, so <f, u> < 0 proves u outside the cone and <f, u> = 0
    puts those columns outside the least face of u.  The rays' tight sets
    are the facets of cone(E(N)): a u in L* that no ray makes negative is
    in the cone, and each indicator cut is a nonnegative combination of
    rays plus a modular function, so the rays decide everything the cuts
    do.  The search prunes on the 0/1 cuts at every n.
    """
    return _cut_table(g) if g.n > SKELETON_MAX_N else _CutTable.of(g, _skeleton(g))


def _search_pause(g: GroundSet) -> int:
    """2^n·|E(N)| nodes (1 at n = 1): the size of the configuration, about
    the work of one LP at n = 4 and 5; see classify."""
    return max(g.num_subsets * g.num_elementary, 1)


def _dfs_witnesses(u: Imset, excluded=(), pause=None):
    """Nonnegative-integer witnesses (as coefficient tuples) for u, one per
    multiset of elementary imsets, yielded in nondecreasing-sequence order;
    columns in `excluded` are never used.  With a pause, the search yields
    None once after `pause` nodes and goes on when resumed."""
    g = u.ground
    table = elementary_columns(g)
    blocks = _blocks_by_conditioning(g)
    excluded = frozenset(excluded)
    residual = list(u.values)
    counts = [0] * g.num_elementary
    # <f, r> >= 0 for every indicator cut f and every residual r along a
    # witness prefix, since each summand adds 0 or 1 to it; a summand that
    # hits a cut at 0 can never be completed and is cut
    cut_table = _cut_table(g)
    hits = cut_table.hits
    sums = cut_table.inners(residual)
    if any(s < 0 for s in sums):
        return

    def first_nonzero(start):
        for r in range(start, len(residual)):
            if residual[r] != 0:
                return r
        return None

    # depth first on an explicit stack: a frame [lead, summands, pos, taken]
    # per inner node, taken being the summand applied below it.  A summand
    # taken at lead C changes only C and strict supersets of C, so the next
    # lead is never below the current one: rescan from there
    frames = []
    pos = lead = 0
    for steps in count():
        if steps == pause:
            yield None
        r = first_nonzero(lead)
        if r is None:
            yield tuple(counts)
        elif residual[r] > 0:
            frames.append([r, iter(blocks.get(r, ())), pos, None])
        while frames:
            frame = frames[-1]
            lead, todo, lo, j = frame
            if j is not None:
                for i in hits[j]:
                    sums[i] += 1
                abc, c, ac, bc = table[j]
                residual[abc] += 1
                residual[c] += 1
                residual[ac] -= 1
                residual[bc] -= 1
                counts[j] -= 1
            for pos in todo:
                if pos >= lo and pos not in excluded and all(map(sums.__getitem__, hits[pos])):
                    break
            else:
                frames.pop()
                continue
            frame[3] = pos
            break
        else:
            return
        for i in hits[pos]:
            sums[i] -= 1
        abc, c, ac, bc = table[pos]
        residual[abc] -= 1
        residual[c] -= 1
        residual[ac] += 1
        residual[bc] += 1
        counts[pos] += 1


def classify(u: Imset) -> MembershipResult:
    """Finest of {combinatorial, structural, lattice, none} containing u.

    Each answer rests on the cheapest exact certificate that decides it:

    1. u outside L*: none.
    2. u != 0 with degree(u) <= 0: lattice.  Every elementary imset has
       grade 1, so a nonnegative combination of degree <= 0 is empty.
    3. A functional f of the separating table (_separating_table) with
       <f, u> < 0: lattice.  At n <= 4 these are the skeleton rays, which
       decide the cone: an input that passes them is structural.
    4. A nonnegative integer witness from the search, re-summed exactly
       (a mismatch raises InvariantError, also under python -O):
       combinatorial.
    5. The exact LP over the configuration: structural with its witness
       when feasible, lattice otherwise.  At n <= 4 it runs only after a
       paused search and is always feasible there (every structural imset
       is combinatorial at n <= 4), so the search resumes.

    The search in step 4 pauses after 2^n·|E(N)| nodes (1 at n = 1),
    the size of the configuration and about the work of one LP at n = 4
    and 5.  A paused search hands over to the LP, and is resumed only
    when the LP is feasible.  So an input that passes the separating table
    but is not combinatorial costs at most about one LP more than the LP alone,
    however large its degree.
    """
    g = u.ground
    deg = degree(u)
    if not is_member_L_star(u):
        return MembershipResult(g, "none", None, deg)
    # steps 2 and 3: the grade first, the table only when it does not decide
    if deg <= 0 and any(u.values) or any(x < 0 for x in _separating_table(g).inners(u.values)):
        return MembershipResult(g, "lattice", None, deg)
    lp = None
    # None: the search paused; False: it is exhausted (a witness may be ())
    search = _dfs_witnesses(u, pause=_search_pause(g))
    witness = next(search, False)
    if witness is None:
        lp = lp_feasible(configuration(g).matrix, u.values)
        witness = next(search, False) if lp.feasible else False
    if witness is not False:
        if min(witness, default=0) < 0 or elementary_combination(g, witness) != list(u.values):
            raise InvariantError("search witness does not re-sum to the imset")
        return MembershipResult(g, "combinatorial", witness, deg)
    lp = lp or lp_feasible(configuration(g).matrix, u.values)
    if lp.feasible:
        return MembershipResult(g, "structural", lp.witness, deg)
    return MembershipResult(g, "lattice", None, deg)


def combinatorial_decompositions(u: Imset, limit: int = 10) -> list:
    """All (up to `limit`) nonnegative-integer witnesses for u, sorted
    lexicographically by coefficient vector."""
    found = list(_dfs_witnesses(u))
    if not found:
        raise ValueError("imset is not combinatorial")
    found.sort()
    return found[:limit]
