"""Faces of the supermodular-dual cone spanned by elementary imsets.

The semi-elementary imset u_<A|B|C> sits in the relative interior of a face
whose extreme rays are exactly the elementary imsets

    E_<A|B|C> = { u_<a|b|Γ> : a in A, b in B, C ⊆ Γ ⊆ ABC∖ab },

a set of size |A||B|·2^(|A|+|B|-2) spanning a space of dimension
(2^|A|-1)(2^|B|-1).  The orthogonal description of the same face is a family
M_<A|B|C> of 0/1-valued supermodular functions (four indicator families of
total size 2^n - (2^|A|-1)(2^|B|-1)): an elementary imset belongs to the
face iff it is orthogonal to every member of M, and every outsider is
separated by some member with inner product exactly 1.  A face is held as
elementary ranks and (kind, T mask) pairs; only orthogonal_set builds the
indicators as vectors, for callers and for the rank in verify_face_theorem.

For any structural imset u, certify_face finds the least face F(u)
containing u: every elementary imset is put inside with a witness or
outside with a separating functional (a row of membership's separating
table, or a Farkas certificate).  The first witness comes from
membership.classify, so a combinatorial u starts from its integer
decomposition and needs no base LP.  One pass over the separating table
then excludes columns with no LP at all: at n <= 4 its rows are the
skeleton (supermodular._skeleton, 37 rays at n = 4), and they decide the
rest with no LP either: F(u) is the intersection of the facets of
cone(E(N)) that contain u, each facet being the tight set of one ray, and
the columns inside share one integer witness from the search.  At n >= 5
the rows are the superset and subset indicators, and a handful of exact
LPs settle what they leave, as they do when that search pauses, instead
of one per elementary imset.  CI models are read off that face
(ci.ci_model_of_imset).
"""

from __future__ import annotations

from dataclasses import dataclass

from .groundset import (
    ElementaryIndex,
    GroundSet,
    Triplet,
    bit_indices,
    iter_submasks,
    popcount,
)
from .imsets import (
    Configuration,
    Imset,
    column_value,
    configuration,
    elementary_columns,
    elementary_combination,
    elementary_imset,
)
from .linalg import InvariantError, lp_feasible, rank
from .membership import _dfs_witnesses, _search_pause, _separating_table, classify
from .supermodular import SKELETON_MAX_N, _subset_indicator, _superset_indicator


def _graded_submasks(g: GroundSet, mask: int):
    return sorted(iter_submasks(mask), key=g.subset_key)


def _require_nontrivial(t: Triplet):
    if t.is_trivial:
        raise ValueError("face analysis needs nonempty A and B")


def _dimension(t: Triplet) -> int:
    """(2^|A|-1)(2^|B|-1), the dimension of the face of u_<A|B|C>."""
    return ((1 << popcount(t.a_mask)) - 1) * ((1 << popcount(t.b_mask)) - 1)


def _extreme_ranks(t: Triplet) -> list:
    """Ranks of <a|b|Γ> with a in A, b in B, C ⊆ Γ ⊆ ABC∖ab, ascending."""
    g = t.ground
    ab = t.a_mask | t.b_mask
    return sorted(
        g.elementary_rank(a, b, t.c_mask | extra)
        for a in bit_indices(t.a_mask)
        for b in bit_indices(t.b_mask)
        for extra in iter_submasks(ab & ~(1 << a | 1 << b))
    )


def extreme_set(t: Triplet) -> list:
    """The elementary imsets <a|b|Γ> with a in A, b in B, C ⊆ Γ ⊆ ABC∖ab,
    ascending in the elementary order."""
    _require_nontrivial(t)
    return [ElementaryIndex.from_rank(t.ground, r) for r in _extreme_ranks(t)]


_INDICATORS = {"superset-of": _superset_indicator, "subset-of": _subset_indicator}


def _orthogonal_masks(t: Triplet) -> list:
    """[(kind, T mask)] of the four families in the order of orthogonal_set;
    kind "superset-of" stands for 1_{T⊆·} and "subset-of" for 1_{·⊆T}."""
    g = t.ground
    ab = t.a_mask | t.b_mask
    abc = ab | t.c_mask
    d_mask = g.full_mask & ~abc
    out = []
    # graded order starts at ∅ and ends at the mask itself
    for a1 in _graded_submasks(g, t.a_mask):
        out.append(("superset-of", a1 | t.c_mask))
    for b1 in _graded_submasks(g, t.b_mask)[1:]:
        out.append(("superset-of", b1 | t.c_mask))
    for e in _graded_submasks(g, ab):
        for c1 in _graded_submasks(g, t.c_mask)[:-1]:
            out.append(("subset-of", e | c1))
    for e in _graded_submasks(g, abc):
        for d1 in _graded_submasks(g, d_mask)[1:]:
            out.append(("superset-of", e | d1))
    return out


def orthogonal_set(t: Triplet) -> list:
    """The four indicator families orthogonal to the face of u_<A|B|C>.

    Order: family 1 (supersets of A₁C, A₁ ⊆ A), family 2 (supersets of B₁C,
    ∅ ≠ B₁ ⊆ B), family 3 (subsets of E∪C₁, E ⊆ AB, C₁ ⊊ C), family 4
    (supersets of E∪D₁, E ⊆ ABC, ∅ ≠ D₁ ⊆ D = N∖ABC); within a family the
    major then minor index ascend in the graded set order.
    """
    _require_nontrivial(t)
    return [_INDICATORS[kind](t.ground, mask) for kind, mask in _orthogonal_masks(t)]


@dataclass(frozen=True)
class FaceDescription:
    """Extreme rays, orthogonal family as _orthogonal_masks pairs, and
    dimension of the face of u_<A|B|C>."""

    triplet: Triplet
    extreme_set: tuple
    family: tuple
    dimension: int

    def to_json(self) -> dict:
        g = self.triplet.ground
        return {
            "triplet": str(self.triplet),
            "dimension": self.dimension,
            "extreme_set": [str(e) for e in self.extreme_set],
            "orthogonal_set": [
                {"kind": kind, "set": g.subset_str(mask)} for kind, mask in self.family
            ],
        }


def face_description(t: Triplet) -> FaceDescription:
    return FaceDescription(t, tuple(extreme_set(t)), tuple(_orthogonal_masks(t)), _dimension(t))


def extreme_rank(t: Triplet) -> int:
    """Rank of the span of the face's extreme rays (should equal the
    dimension formula)."""
    rows = [elementary_imset(e).values for e in extreme_set(t)]
    return rank(rows)


def verify_face_theorem(t: Triplet) -> dict:
    """Check both directions of the face characterization over all of E(N),
    plus linear independence of the orthogonal family and the rank of the
    extreme rays.  Failures are reported, not raised."""
    g = t.ground
    members = set(_extreme_ranks(t))
    family = [f.values for f in orthogonal_set(t)]
    failures = []
    for e_rank, col in enumerate(elementary_columns(g)):
        e = ElementaryIndex.from_rank(g, e_rank)
        inners = [column_value(f, col) for f in family]
        if e_rank in members:
            if any(inners):
                failures.append(f"member {e} not orthogonal to the family")
        elif 1 not in inners:
            failures.append(f"non-member {e} not separated with inner product 1")
    fam_rank = rank(family)
    if fam_rank != len(family):
        failures.append(f"orthogonal family rank {fam_rank} below size {len(family)}")
    dim = _dimension(t)
    ext_rank = extreme_rank(t)
    if ext_rank != dim:
        failures.append(f"extreme-ray rank {ext_rank} differs from dimension {dim}")
    return {
        "ok": not failures,
        "triplet": str(t),
        "orthogonal_family_size": len(family),
        "orthogonal_family_rank": fam_rank,
        "extreme_rank": ext_rank,
        "dimension": dim,
        "failures": failures,
    }


def certify_face(u: Imset) -> tuple:
    """Decide every elementary column for the least face F(u) of a
    structural imset u, each with an exact reason.

    Returns (inside, outside), two dicts keyed by elementary rank that
    together cover E(N):

    * inside[k] = (mu, lam): lam >= 0 over E(N) with lam[k] > 0 and
      Σ_j lam[j]·u_j = mu·u, so mu·u - lam[k]·u_k stays in the cone;
    * outside[k] = f, a rank-indexed functional with <f, w> >= 0 for every
      elementary w, <f, u> = 0 and <f, u_k> > 0, so the face {<f, ·> = 0}
      contains u but not u_k.

    The reasons come in three kinds, found in this order:

    1. Base witness.  Σ lam_j u_j = u with mu = 1, from membership.classify:
       the search's integer witness when u is combinatorial, the base LP's
       witness otherwise; every column of positive weight is inside.  An
       imset that classify does not find structural raises ValueError.
    2. Separating functionals, no LP.  Every row f of
       membership._separating_table is >= 0 on every column; one pass
       reads <f, u> for all of them, and each f with <f, u> = 0 puts the
       columns it is positive on outside.  At n <= 4 the rows are the
       extreme rays of the standardized supermodular cone
       (supermodular._skeleton).  F(u) is the intersection of the facets
       of cone(E(N)) that contain u, so the columns left, R, are all
       inside.  They share one witness: with s = Σ_{k in R} u_k and
       mu >= 1 the least integer with mu·<f, u> >= <f, s> on every ray,
       v = mu·u - s is >= 0 on every ray, hence structural and (n <= 4)
       combinatorial; the search's integer witness w for v, with the
       columns outside excluded, gives lam = w + 1_R, re-summed exactly
       against mu·u.  At n >= 5 the rows are the superset indicators
       1_{T⊆·} and subset indicators 1_{·⊆T}, and the rest goes to step 3.
    3. LP harvest, at n >= 5 or when the search of step 2 pauses (after
       membership._search_pause nodes).  Let s be the sum of the still
       undecided columns and solve mu·u - Σ lam_j u_j = s over mu, lam >= 0.
       A witness puts every summand of s inside (faces are closed under
       taking summands), together with every column of positive weight.  A
       Farkas certificate y gives f = -y with <f, u> = 0 < <f, s>, which puts
       every column f is positive on outside, at least one summand of s
       among them.  Repeat until nothing is undecided.

    LP answers are re-verified exactly inside lp_feasible.  A column marked
    both ways, a Farkas functional not orthogonal to u, a step-2 witness
    that does not re-sum, or a step-2 search exhausted without a witness
    raises InvariantError (also under python -O).  No row of the table is
    negative on u: classify has read the same table.
    """
    g = u.ground
    base = classify(u)
    if base.membership_class not in ("combinatorial", "structural"):
        raise ValueError("imset is not structural")
    table = elementary_columns(g)
    inside, outside = {}, {}

    def include(mu, lam):
        for k, x in enumerate(lam):
            if x > 0:
                if k in outside:
                    raise InvariantError(f"column {k} certified both in and out of the face")
                inside.setdefault(k, (mu, lam))

    def exclude(f, ranks):
        for k in ranks:
            if k in inside:
                raise InvariantError(f"column {k} certified both in and out of the face")
            outside.setdefault(k, f)

    def undecided():
        return [int(j not in inside and j not in outside) for j in range(len(table))]

    include(1, base.witness)
    separating = _separating_table(g)
    sums = separating.inners(u.values)
    for (f, ranks), x in zip(separating.cuts, sums):
        if x == 0:
            exclude(f, ranks)
    rest = undecided()
    if g.n <= SKELETON_MAX_N and any(rest):
        s = elementary_combination(g, rest)
        # the least mu >= 1 with mu·<f, u> >= <f, s> on every loose ray
        mu = max([1, *(-(-y // x) for x, y in zip(sums, separating.inners(s)) if x)])
        v = Imset(g, tuple(mu * x - y for x, y in zip(u.values, s)))
        w = next(_dfs_witnesses(v, excluded=outside, pause=_search_pause(g)), False)
        if w is False:
            raise InvariantError("no integer witness for a structural imset at n <= 4")
        if w is not None:
            lam = tuple(x + y for x, y in zip(w, rest))
            if elementary_combination(g, lam) != [mu * x for x in u.values]:
                raise InvariantError("skeleton witness does not re-sum to mu·u")
            include(mu, lam)
    A = None
    # one LP for the sum of every still undecided column at once
    while any(rest := undecided()):
        # columns [u | -u_j for u_j in E(N)], built when the first LP runs
        A = A or [(x, *(-y for y in row)) for x, row in zip(u.values, configuration(g).matrix)]
        lp = lp_feasible(A, elementary_combination(g, rest))
        if lp.feasible:
            mu, *lam = lp.witness
            include(mu, tuple(x + d for x, d in zip(lam, rest)))
        else:
            f = tuple(-y for y in lp.certificate)
            if sum(x * v for x, v in zip(f, u.values)) != 0:
                raise InvariantError("Farkas functional is not orthogonal to u")
            exclude(f, [k for k, col in enumerate(table) if column_value(f, col) > 0])
    return inside, outside


def face_of_structural(u: Imset) -> list:
    """Extreme rays of the least face F(u) containing a structural imset u:
    the elementary v with mu*u - v in the cone for some mu >= 0, ascending
    by rank.

    Every column is decided by certify_face with an exact reason: a
    witness (integer or LP) for each ray returned, and for each ray left
    out a skeleton ray (n <= 4), a superset or subset indicator (n >= 5) or
    a Farkas functional f with <f, u> = 0 < <f, v>.
    Raises ValueError for an imset that is not structural.
    """
    inside, _ = certify_face(u)
    return [ElementaryIndex.from_rank(u.ground, k) for k in sorted(inside)]


def subconfiguration(t: Triplet) -> Configuration:
    """Configuration restricted to the face's extreme rays; needs the
    triplet to use up the whole ground set (ABC = N)."""
    _require_nontrivial(t)
    g = t.ground
    if t.a_mask | t.b_mask | t.c_mask != g.full_mask:
        raise ValueError("sub-configuration needs ABC = N")
    return configuration(g, columns=extreme_set(t))
