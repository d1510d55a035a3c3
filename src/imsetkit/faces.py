"""Faces of the supermodular-dual cone spanned by elementary imsets.

The semi-elementary imset u_<A|B|C> sits in the relative interior of a face
whose extreme rays are exactly the elementary imsets

    E_<A|B|C> = { u_<a|b|Γ> : a in A, b in B, C ⊆ Γ ⊆ ABC∖ab },

a set of size |A||B|·2^(|A|+|B|-2) spanning a space of dimension
(2^|A|-1)(2^|B|-1).  The orthogonal description of the same face is a family
M_<A|B|C> of 0/1-valued supermodular functions (four indicator families of
total size 2^n - (2^|A|-1)(2^|B|-1)): an elementary imset belongs to the
face iff it is orthogonal to every member of M, and every outsider is
separated by some member with inner product exactly 1.

For any structural imset u, certify_face finds the least face F(u)
containing u: every elementary imset is put inside with a witness or
outside with a separating functional (an indicator from the families above
or a Farkas certificate).  The first witness comes from membership.classify,
so a combinatorial u starts from its integer decomposition and needs no
base LP; the indicators then exclude columns with no LP at all, and a
handful of exact LPs settle the rest instead of one per elementary imset.
CI models are read off that face (ci.ci_model_of_imset).
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
    inner,
)
from .linalg import InvariantError, lp_feasible, rank
from .membership import _cut_table, _subset_indicator, _superset_indicator, classify


def _graded_submasks(g: GroundSet, mask: int):
    return sorted(iter_submasks(mask), key=g.subset_key)


def _require_nontrivial(t: Triplet):
    if t.is_trivial:
        raise ValueError("face analysis needs nonempty A and B")


def extreme_set(t: Triplet) -> list:
    """The elementary imsets <a|b|Γ> with a in A, b in B, C ⊆ Γ ⊆ ABC∖ab,
    ascending in the elementary order."""
    _require_nontrivial(t)
    g = t.ground
    abc = t.a_mask | t.b_mask | t.c_mask
    out = []
    for a in bit_indices(t.a_mask):
        for b in bit_indices(t.b_mask):
            pair = (1 << a) | (1 << b)
            free = abc & ~pair & ~t.c_mask
            for extra in iter_submasks(free):
                lo, hi = (a, b) if a < b else (b, a)
                out.append(ElementaryIndex(g, lo, hi, t.c_mask | extra))
    out.sort(key=lambda e: e.rank)
    return out


def _orthogonal_with_descriptors(t: Triplet) -> list:
    """[(SetFunction, descriptor)] for the four indicator families, in
    canonical order."""
    g = t.ground
    ab = t.a_mask | t.b_mask
    abc = ab | t.c_mask
    d_mask = g.full_mask & ~abc

    def sup(mask):
        return (_superset_indicator(g, mask),
                {"kind": "superset-of", "set": g.subset_str(mask)})

    def sub(mask):
        return (_subset_indicator(g, mask),
                {"kind": "subset-of", "set": g.subset_str(mask)})

    out = []
    for a1 in _graded_submasks(g, t.a_mask):
        out.append(sup(a1 | t.c_mask))
    for b1 in _graded_submasks(g, t.b_mask):
        if b1:
            out.append(sup(b1 | t.c_mask))
    for e in _graded_submasks(g, ab):
        for c1 in _graded_submasks(g, t.c_mask):
            if c1 != t.c_mask:
                out.append(sub(e | c1))
    for e in _graded_submasks(g, abc):
        for d1 in _graded_submasks(g, d_mask):
            if d1:
                out.append(sup(e | d1))
    return out


def orthogonal_set(t: Triplet) -> list:
    """The four indicator families orthogonal to the face of u_<A|B|C>.

    Order: family 1 (supersets of A₁C, A₁ ⊆ A), family 2 (supersets of B₁C,
    ∅ ≠ B₁ ⊆ B), family 3 (subsets of E∪C₁, E ⊆ AB, C₁ ⊊ C), family 4
    (supersets of E∪D₁, E ⊆ ABC, ∅ ≠ D₁ ⊆ D = N∖ABC); within a family the
    major then minor index ascend in the graded set order.
    """
    _require_nontrivial(t)
    return [f for f, _ in _orthogonal_with_descriptors(t)]


@dataclass(frozen=True)
class FaceDescription:
    """Extreme rays, orthogonal family, and dimension of the face of
    u_<A|B|C>."""

    triplet: Triplet
    extreme_set: tuple
    orthogonal_set: tuple
    dimension: int
    descriptors: tuple = ()

    def to_json(self) -> dict:
        return {
            "triplet": str(self.triplet),
            "dimension": self.dimension,
            "extreme_set": [str(e) for e in self.extreme_set],
            "orthogonal_set": [dict(d) for d in self.descriptors],
        }


def face_description(t: Triplet) -> FaceDescription:
    _require_nontrivial(t)
    dim = ((1 << popcount(t.a_mask)) - 1) * ((1 << popcount(t.b_mask)) - 1)
    pairs = _orthogonal_with_descriptors(t)
    return FaceDescription(
        t,
        tuple(extreme_set(t)),
        tuple(f for f, _ in pairs),
        dim,
        tuple(d for _, d in pairs),
    )


def extreme_rank(t: Triplet) -> int:
    """Rank of the span of the face's extreme rays (should equal the
    dimension formula)."""
    rows = [elementary_imset(e).values for e in extreme_set(t)]
    return rank(rows)


def verify_face_theorem(t: Triplet) -> dict:
    """Check both directions of the face characterization over all of E(N),
    plus linear independence of the orthogonal family and the rank of the
    extreme rays.  Failures are reported, not raised."""
    _require_nontrivial(t)
    g = t.ground
    members = set(e.rank for e in extreme_set(t))
    family = orthogonal_set(t)
    failures = []
    for e_rank in range(g.num_elementary):
        e = ElementaryIndex.from_rank(g, e_rank)
        u = elementary_imset(e)
        inners = [inner(f, u) for f in family]
        if e_rank in members:
            if any(v != 0 for v in inners):
                failures.append(f"member {e} not orthogonal to the family")
        else:
            if not any(v == 1 for v in inners):
                failures.append(f"non-member {e} not separated with inner product 1")
    fam_rank = rank([f.values for f in family])
    if fam_rank != len(family):
        failures.append(f"orthogonal family rank {fam_rank} below size {len(family)}")
    dim = ((1 << popcount(t.a_mask)) - 1) * ((1 << popcount(t.b_mask)) - 1)
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
    2. Indicators, no LP.  Superset indicators 1_{T⊆·} and subset
       indicators 1_{·⊆T} (membership._cut_table) are supermodular; each
       one orthogonal to u puts the columns it is positive on outside.
    3. LP harvest.  Let s be the sum of the still undecided columns and
       solve mu·u - Σ lam_j u_j = s over mu, lam >= 0.  A witness puts
       every summand of s inside (faces are closed under taking summands),
       together with every column of positive weight.  A Farkas certificate
       y gives f = -y with <f, u> = 0 < <f, s>, which puts every column f
       is positive on outside, at least one summand of s among them.
       Repeat until nothing is undecided.

    LP answers are re-verified exactly inside lp_feasible; a column marked
    both ways, or a Farkas functional not orthogonal to u, raises
    InvariantError (also under python -O).
    """
    g = u.ground
    base = classify(u)
    if base.membership_class not in ("combinatorial", "structural"):
        raise ValueError("imset is not structural")
    cfg = configuration(g)
    table = elementary_columns(g)
    nonzero = [(r, v) for r, v in enumerate(u.values) if v]
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

    include(1, base.witness)
    cut_table = _cut_table(g)
    for (f, ranks), x in zip(cut_table.cuts, cut_table.inners(u.values)):
        if x == 0:
            exclude(f, ranks)
    # columns [u | -u_j for u_j in E(N)]
    A = [(x,) + tuple(-y for y in row) for x, row in zip(u.values, cfg.matrix)]
    while True:
        # one LP for the sum of every still undecided column at once
        undecided = [int(j not in inside and j not in outside) for j in range(len(table))]
        if not any(undecided):
            break
        lp = lp_feasible(A, elementary_combination(g, undecided))
        if lp.feasible:
            mu, *lam = lp.witness
            include(mu, tuple(x + d for x, d in zip(lam, undecided)))
        else:
            f = tuple(-y for y in lp.certificate)
            if sum(f[r] * v for r, v in nonzero) != 0:
                raise InvariantError("Farkas functional is not orthogonal to u")
            exclude(f, [k for k, col in enumerate(table) if column_value(f, col) > 0])
    return inside, outside


def face_of_structural(u: Imset) -> list:
    """Extreme rays of the least face F(u) containing a structural imset u:
    the elementary v with mu*u - v in the cone for some mu >= 0, ascending
    by rank.

    Every column is decided by certify_face with an exact reason: a
    witness (integer or LP) for each ray returned, and for each ray left
    out a superset or subset indicator or a Farkas functional f with
    <f, u> = 0 < <f, v>.
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
