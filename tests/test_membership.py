import random

import pytest
from hypothesis import example, given, settings, strategies as st

from imsetkit import faces, membership
from imsetkit.faces import extreme_set, face_of_structural
from imsetkit.groundset import ElementaryIndex, GroundSet, Triplet
from imsetkit.imsets import (
    Imset,
    configuration,
    decompose_semi_elementary,
    delta,
    elementary_combination,
    elementary_imset,
    is_member_L_star,
    semi_elementary,
)
from imsetkit.linalg import lp_feasible
from imsetkit.membership import (
    MembershipResult,
    _dfs_witnesses,
    classify,
    combinatorial_decompositions,
    degree,
    degree_function,
)


def resum(g, witness):
    cfg = configuration(g)
    u = Imset.zero(g)
    for j, c in enumerate(witness):
        if c:
            u = u + elementary_imset(cfg.columns[j]).scale(c)
    return u


def test_degree_examples():
    g = GroundSet(4)
    f = degree_function(g)
    assert f.at(0) == 0 and f.at(g.parse_subset("ab")) == 1
    assert f.at(g.full_mask) == 6
    assert degree(semi_elementary(Triplet.parse(g, "ab|cd|0"))) == 4
    assert degree(elementary_imset(ElementaryIndex.from_rank(g, 7))) == 1


def test_classify_elementary_and_semi_elementary():
    g = GroundSet(4)
    e = ElementaryIndex.from_rank(g, 3)
    res = classify(elementary_imset(e))
    assert res.membership_class == "combinatorial"
    assert res.degree == 1
    assert sum(res.witness) == 1 and res.witness[3] == 1

    u = semi_elementary(Triplet.parse(g, "ab|cd|0"))
    res = classify(u)
    assert res.membership_class == "combinatorial"
    assert res.degree == 4
    assert resum(g, res.witness) == u


def test_classify_four_generator_sum():
    g = GroundSet(4)
    u = Imset.zero(g)
    for s in ("c|d|ab", "a|b|0", "a|b|c", "a|b|d"):
        u = u + semi_elementary(Triplet.parse(g, s))
    res = classify(u)
    assert res.membership_class == "combinatorial"
    assert res.degree == 4
    assert resum(g, res.witness) == u


def test_classify_none_and_lattice():
    g = GroundSet(3)
    res = classify(delta(g.subset(g.full_mask)))
    assert res.membership_class == "none"
    assert res.witness is None

    neg = -elementary_imset(ElementaryIndex.from_rank(g, 0))
    res = classify(neg)
    assert res.membership_class == "lattice"
    assert res.witness is None
    assert res.degree == -1

    zero = classify(Imset.zero(g))
    assert zero.membership_class == "combinatorial"
    assert zero.degree == 0 and sum(zero.witness) == 0


def test_decompositions_two_by_two():
    g = GroundSet(3)
    u = semi_elementary(Triplet.parse(g, "a|bc|0"))
    decs = combinatorial_decompositions(u)
    # both sides of the exchange identity, nothing else
    assert len(decs) == 2
    by_name = []
    for w in decs:
        names = []
        for j, c in enumerate(w):
            if c:
                names.append((str(ElementaryIndex.from_rank(g, j).triplet()), c))
        by_name.append(names)
    assert by_name[0] == [("a|c|0", 1), ("a|b|c", 1)]
    assert by_name[1] == [("a|b|0", 1), ("a|c|b", 1)]
    for w in decs:
        assert resum(g, w) == u
    # truncation returns the lexicographically least witness
    assert combinatorial_decompositions(u, limit=1) == [decs[0]]


def test_decompositions_elementary_unique():
    g = GroundSet(4)
    e = ElementaryIndex.from_rank(g, 11)
    decs = combinatorial_decompositions(elementary_imset(e))
    assert len(decs) == 1
    assert decs[0][11] == 1 and sum(decs[0]) == 1


def test_decompositions_confined_to_extreme_set():
    # every witness of a semi-elementary imset lives on the face's rays
    g = GroundSet(4)
    t = Triplet.parse(g, "a|bc|0")
    rays = {e.rank for e in extreme_set(t)}
    for w in combinatorial_decompositions(semi_elementary(t), limit=50):
        assert {j for j, c in enumerate(w) if c} <= rays


def test_decompositions_reject_non_combinatorial():
    g = GroundSet(3)
    with pytest.raises(ValueError):
        combinatorial_decompositions(-elementary_imset(ElementaryIndex.from_rank(g, 0)))


def test_canonical_decomposition_is_a_witness():
    g = GroundSet(4)
    for s in ("a|bc|0", "ab|cd|0", "abc|d|0", "a|bcd|0"):
        t = Triplet.parse(g, s)
        w = [0] * g.num_elementary
        for e, c in decompose_semi_elementary(t):
            w[e.rank] = c
        assert tuple(w) in combinatorial_decompositions(semi_elementary(t), limit=100)


def test_random_combinatorial_witnesses_resum():
    rng = random.Random(31)
    g = GroundSet(4)
    cfg = configuration(g)
    for _ in range(50):
        u = Imset.zero(g)
        for _ in range(rng.randint(1, 5)):
            u = u + elementary_imset(cfg.columns[rng.randrange(cfg.num_cols)])
        res = classify(u)
        assert res.membership_class == "combinatorial"
        assert resum(g, res.witness) == u
        assert res.degree == sum(res.witness)


def test_structural_and_combinatorial_agree_for_four_variables():
    # random lattice members: whenever the rational cone test passes, an
    # integer witness exists too
    rng = random.Random(97)
    g = GroundSet(4)
    cfg = configuration(g)
    seen = set()
    for _ in range(60):
        coeffs = [0] * cfg.num_cols
        for _ in range(4):
            coeffs[rng.randrange(cfg.num_cols)] += rng.randint(-1, 2)
        vals = tuple(
            sum(coeffs[j] * cfg.matrix[r][j] for j in range(cfg.num_cols))
            for r in range(g.num_subsets)
        )
        res = classify(Imset(g, vals))
        seen.add(res.membership_class)
        assert res.membership_class != "structural"
    assert "combinatorial" in seen and "lattice" in seen


def test_scaling_preserves_structural_status():
    g = GroundSet(3)
    u = semi_elementary(Triplet.parse(g, "a|bc|0"))
    for c in (1, 2, 5):
        res = classify(u.scale(c))
        assert res.membership_class == "combinatorial"
        assert res.degree == 2 * c
    neg = -u
    for c in (1, 3):
        assert classify(neg.scale(c)).membership_class == "lattice"


def test_membership_result_json():
    g = GroundSet(3)
    res = classify(semi_elementary(Triplet.parse(g, "a|b|c")))
    data = res.to_json()
    assert data["class"] == "combinatorial"
    assert data["degree"] == 1
    assert data["witness"] == {"a|b|c": 1}
    assert classify(delta(g.subset("abc"))).to_json()["witness"] is None


# classify as it was before the cheap certificates (the LP first), kept as
# the reference: every MembershipResult must stay the same
def _oracle_classify(u: Imset) -> MembershipResult:
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


def combination(g, terms, multiple=1, shift=0):
    """multiple · Σ c·u_<t> over {t: c}, plus `shift` at the empty set (any
    shift != 0 leaves L*)."""
    coeffs = [0] * g.num_elementary
    for name, c in terms.items():
        coeffs[ElementaryIndex.from_triplet(Triplet.parse(g, name)).rank] += c
    vals = [multiple * x for x in elementary_combination(g, coeffs)]
    vals[0] += shift
    return Imset(g, tuple(vals))


@st.composite
def integer_combinations(draw):
    """multiple (1..8) of an integer combination of up to five elementary
    imsets with coefficients in -2..2 at n = 3..5; one draw in eight is
    pushed out of L*."""
    g = GroundSet(draw(st.integers(3, 5)))
    coeffs = [0] * g.num_elementary
    for _ in range(draw(st.integers(0, 5))):
        coeffs[draw(st.integers(0, g.num_elementary - 1))] += draw(st.integers(-2, 2))
    multiple = draw(st.integers(1, 8))
    vals = [multiple * x for x in elementary_combination(g, coeffs)]
    if draw(st.integers(0, 7)) == 0:
        vals[draw(st.integers(0, g.num_subsets - 1))] += draw(st.sampled_from([-1, 1]))
    return Imset(g, tuple(vals))


_G3, _G4, _G5 = GroundSet(3), GroundSet(4), GroundSet(5)
# lattice members of positive degree that no indicator cut catches: only
# the search and the LP tell them from structural imsets
_UNCAUGHT = (
    combination(_G4, {"b|d|0": 2, "c|d|a": -1, "c|d|ab": 1}),
    combination(_G4, {"c|d|0": 1, "b|c|a": -1, "b|c|d": 1, "b|c|ad": 2}, multiple=8),
    combination(_G5, {"b|e|d": 2, "a|b|cd": -2, "a|b|de": 2, "a|b|cde": 2}),
    combination(_G5, {"b|c|0": 2, "b|c|a": -1, "c|d|a": 2, "d|e|b": 1, "b|c|ade": 2}, multiple=8),
)

# inputs whose first search runs out of its budget, so that the LP decides
# whether the unbudgeted search runs
_OVER_BUDGET = (
    combination(_G4, {"a|c|0": 2, "a|d|0": 2, "b|c|a": 1, "b|d|a": 1, "c|d|a": 1, "b|c|d": 1}, multiple=3),
    combination(_G4, {"a|b|0": 3, "c|d|0": 1, "a|d|b": 2, "a|d|c": -1, "a|d|bc": 3}, multiple=3),
    combination(_G5, {"a|e|0": 1, "c|d|b": 1, "d|e|b": 1, "a|e|c": 1, "c|d|ae": 1, "a|d|be": 1, "a|b|ce": 1},
                multiple=3),
    combination(_G5, {"d|e|0": 2, "b|c|a": 1, "a|c|d": 3, "b|c|d": 3, "b|d|ac": -1, "b|d|ace": 3},
                multiple=3),
)


@settings(max_examples=150, deadline=None)
@given(integer_combinations())
@example(Imset.zero(_G3))
@example(Imset.zero(_G5))
@example(combination(_G4, {"a|b|0": 1}, shift=1))
@example(delta(_G5.subset("abc")))
@example(combination(_G4, {"a|b|c": 1, "c|d|0": -1}, multiple=8))
@example(semi_elementary(Triplet.parse(_G5, "ab|cde|0")).scale(2))
@example(_UNCAUGHT[0])
@example(_UNCAUGHT[1])
@example(_UNCAUGHT[2])
@example(_UNCAUGHT[3])
@example(_OVER_BUDGET[0])
@example(_OVER_BUDGET[1])
@example(_OVER_BUDGET[2])
@example(_OVER_BUDGET[3])
def test_classify_matches_lp_first_oracle(u):
    assert classify(u) == _oracle_classify(u)


def test_uncaught_lattice_inputs_pass_every_cut():
    for u in _UNCAUGHT:
        assert degree(u) > 0
        assert min(membership._cut_table(u.ground).inners(u.values)) >= 0
        assert classify(u).membership_class == "lattice"


def test_over_budget_inputs_exhaust_the_first_search():
    classes = []
    for u in _OVER_BUDGET:
        g = u.ground
        assert _dfs_witnesses(u, limit=1, budget=g.num_subsets * g.num_elementary) is None
        classes.append(classify(u).membership_class)
    assert classes == ["combinatorial", "lattice"] * 2


def test_lp_branch_gives_structural_with_the_lp_witness(monkeypatch):
    g = GroundSet(4)
    u = semi_elementary(Triplet.parse(g, "ab|cd|0"))
    monkeypatch.setattr(membership, "_dfs_witnesses", lambda u, **kw: [])
    res = classify(u)
    assert res == MembershipResult(g, "structural", lp_feasible(configuration(g).matrix, u.values).witness, 4)
    assert min(res.witness) >= 0 and elementary_combination(g, res.witness) == list(u.values)


def test_cheap_certificates_need_no_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("LP or cut table called")

    monkeypatch.setattr(membership, "lp_feasible", no_lp)
    monkeypatch.setattr(faces, "lp_feasible", no_lp)
    g = GroundSet(4)
    u = semi_elementary(Triplet.parse(g, "ab|cd|0"))
    res = classify(u)
    assert res.membership_class == "combinatorial" and resum(g, res.witness) == u
    lattice = combination(g, {"a|b|c": 1, "c|d|0": -1})
    assert degree(lattice) == 0
    assert classify(lattice) == MembershipResult(g, "lattice", None, 0)
    # the face of an elementary imset is the imset itself: its witness puts
    # it inside, and the indicator cuts put every other column outside
    for k in range(g.num_elementary):
        e = ElementaryIndex.from_rank(g, k)
        assert face_of_structural(elementary_imset(e)) == [e]
    # a nonzero imset of degree <= 0 is decided by its degree alone
    monkeypatch.setattr(membership, "_cut_table", no_lp)
    for c in (1, 3):
        assert classify(lattice.scale(c)) == MembershipResult(g, "lattice", None, 0)
    assert classify(-u) == MembershipResult(g, "lattice", None, -4)
