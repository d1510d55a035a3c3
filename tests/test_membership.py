import operator
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from imsetkit import faces, membership
from imsetkit.faces import extreme_set, face_of_structural
from imsetkit.groundset import ElementaryIndex, GroundSet, Triplet, enumerate_triplets
from imsetkit.imsets import (
    Imset,
    column_value,
    configuration,
    decompose_semi_elementary,
    delta,
    elementary_columns,
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
from imsetkit.supermodular import _subset_indicator, _superset_indicator, skeleton


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
    witness = next(_dfs_witnesses(u), ())
    if witness:
        return MembershipResult(g, "combinatorial", witness, deg)
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
def integer_combinations(draw, max_n=5):
    """multiple (1..8) of an integer combination of up to five elementary
    imsets with coefficients in -2..2 at n = 3..max_n; one draw in eight is
    pushed out of L*."""
    g = GroundSet(draw(st.integers(3, max_n)))
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

# inputs that ran out of the budget of a search pruned by the superset cuts
# only; every cut now decides them inside it
_FORMERLY_OVER_BUDGET = (
    combination(_G4, {"a|c|0": 2, "a|d|0": 2, "b|c|a": 1, "b|d|a": 1, "c|d|a": 1, "b|c|d": 1}, multiple=3),
    combination(_G4, {"a|b|0": 3, "c|d|0": 1, "a|d|b": 2, "a|d|c": -1, "a|d|bc": 3}, multiple=3),
    combination(_G5, {"a|e|0": 1, "c|d|b": 1, "d|e|b": 1, "a|e|c": 1, "c|d|ae": 1, "a|d|be": 1, "a|b|ce": 1},
                multiple=3),
    combination(_G5, {"d|e|0": 2, "b|c|a": 1, "a|c|d": 3, "b|c|d": 3, "b|d|ac": -1, "b|d|ace": 3},
                multiple=3),
)

# inputs whose search pauses before it decides them, so that the LP decides
# whether the search resumes
_OVER_BUDGET = (
    combination(_G4, {"a|c|b": 1, "a|c|0": 3, "a|d|c": 1, "a|b|cd": 2, "b|d|0": 3}, multiple=3),
    combination(_G4, {"a|b|0": 3, "c|d|b": -1, "b|d|0": 3, "c|d|ab": 2, "a|d|0": 3}, multiple=4),
    combination(_G5, {"d|e|c": 1, "a|e|d": 1, "c|e|d": 1, "a|c|e": 2, "a|d|bce": 1, "a|b|e": 3}, multiple=4),
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
@example(_FORMERLY_OVER_BUDGET[0])
@example(_FORMERLY_OVER_BUDGET[1])
@example(_FORMERLY_OVER_BUDGET[2])
@example(_FORMERLY_OVER_BUDGET[3])
def test_classify_matches_lp_first_oracle(u):
    assert classify(u) == _oracle_classify(u)


# membership._cut_table as it was before the closed forms: every indicator
# evaluated on every column, kept as the reference the table must equal
def _evaluated_cut_table(g):
    table = elementary_columns(g)
    cuts, ones, hits = [], [[] for _ in range(g.num_subsets)], [[] for _ in table]
    for family in (_superset_indicator, _subset_indicator):
        for mask in g.masks_graded:
            f = family(g, mask).values
            on = [column_value(f, col) for col in table]
            assert set(on) <= {0, 1}
            ranks = tuple(j for j, x in enumerate(on) if x)
            if not ranks:
                continue
            for r in (r for r, x in enumerate(f) if x):
                ones[r].append((len(cuts), 1))
            for j in ranks:
                hits[j].append(len(cuts))
            cuts.append((f, ranks))
    return tuple(cuts), tuple(map(tuple, ones)), tuple(map(tuple, hits))


def test_cut_table_equals_the_evaluated_indicators():
    for n in range(2, 8):
        table = membership._cut_table(GroundSet(n))
        assert (table.cuts, table.ones, table.hits) == _evaluated_cut_table(GroundSet(n)), n


def test_one_variable_zero_imset_is_combinatorial_without_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("LP or configuration called")

    monkeypatch.setattr(membership, "lp_feasible", no_lp)
    monkeypatch.setattr(membership, "configuration", no_lp)
    g = GroundSet(1)
    assert classify(Imset.zero(g)) == MembershipResult(g, "combinatorial", (), 0)


def counted_lps(monkeypatch):
    """Count the LPs classify solves from here on."""
    calls = []
    solve = membership.lp_feasible
    monkeypatch.setattr(membership, "lp_feasible", lambda A, b: calls.append(1) or solve(A, b))
    return calls


def ray_values(u):
    """<f, u> for every ray f of supermodular.skeleton, summed densely."""
    return [sum(map(operator.mul, f.values, u.values)) for f in skeleton(u.ground)]


def cut_only(fn, *args):
    """fn with the rays switched off in classify: the indicator cuts, the
    search and the LP decide at every n, as they do at n >= 5."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(membership, "_separating_table", membership._cut_table)
        return fn(*args)


def test_uncaught_lattice_inputs_pass_every_cut(monkeypatch):
    # at n = 4 a ray decides them with no LP; at n = 5 the LP still does
    for u in _UNCAUGHT:
        assert degree(u) > 0
        assert min(membership._cut_table(u.ground).inners(u.values)) >= 0
        calls = counted_lps(monkeypatch)
        assert classify(u).membership_class == "lattice"
        if u.ground.n == 4:
            assert min(ray_values(u)) < 0 and not calls
        else:
            assert calls


def test_over_budget_inputs_exhaust_the_first_search(monkeypatch):
    classes = []
    for u in _OVER_BUDGET:
        g = u.ground
        assert next(_dfs_witnesses(u, pause=g.num_subsets * g.num_elementary)) is None
        calls = counted_lps(monkeypatch)
        classes.append(classify(u).membership_class)
        # the n = 4 lattice input is decided by a ray before the search
        assert bool(calls) == (classes[-1] == "combinatorial")
    assert classes == ["combinatorial", "lattice", "combinatorial"]
    assert min(ray_values(_OVER_BUDGET[1])) < 0


def _seeded_n4_sample():
    """4000 integer combinations at n = 4, each of 2-7 distinct columns
    with coefficients from {-1, 1, 1, 2}, from one seeded generator."""
    rng = random.Random(7)
    out = []
    for _ in range(4000):
        coeffs = [0] * _G4.num_elementary
        for j in rng.sample(range(_G4.num_elementary), rng.randint(2, 7)):
            coeffs[j] = rng.choice((-1, 1, 1, 2))
        out.append(Imset(_G4, tuple(elementary_combination(_G4, coeffs))))
    return out


def test_rays_match_the_cut_only_oracle_on_a_seeded_sample(monkeypatch):
    sample = _seeded_n4_sample()
    calls = counted_lps(monkeypatch)
    got = [classify(u).to_json() for u in sample]
    assert not calls
    assert [cut_only(classify, u).to_json() for u in sample] == got
    # the oracle's LPs are the 38 inputs that pass every cut but not every ray
    assert len(calls) == 38
    assert Counter(r["class"] for r in got) == {"lattice": 2563, "combinatorial": 1437}


@settings(max_examples=100, deadline=None)
@given(integer_combinations(max_n=4))
def test_rays_match_the_cut_only_oracle(u):
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_lps(mp)
        got = classify(u)
        # an LP runs only after a paused search, and then finds u in the cone
        assert not calls or got.membership_class == "combinatorial"
    assert got.to_json() == cut_only(classify, u).to_json()


def test_a_ray_decides_an_input_that_passes_every_cut(monkeypatch):
    u = Imset.from_dict(_G4, {
        "0": 2, "a": -1, "b": -2, "c": -1, "d": -1, "ab": 1, "ac": 1, "bc": 3, "bd": 2,
        "abc": -3, "abd": -1, "bcd": -3, "abcd": 3,
    })
    assert is_member_L_star(u) and degree(u) == 4
    assert min(membership._cut_table(_G4).inners(u.values)) >= 0
    assert sorted(ray_values(u))[:5] == [-1, -1, -1, -1, 0]
    calls = counted_lps(monkeypatch)
    assert classify(u) == MembershipResult(_G4, "lattice", None, 4) and not calls
    assert cut_only(classify, u) == MembershipResult(_G4, "lattice", None, 4) and len(calls) == 1


# the search as it was with the superset cuts only, returning a list: the
# reference for the lazy search that every cut prunes
def _superset_pruned_witnesses(u: Imset, excluded=()) -> list:
    g = u.ground
    table = elementary_columns(g)
    blocks = membership._blocks_by_conditioning(g)
    cuts = [_superset_indicator(g, mask).values for mask in g.masks_graded]
    hits = [[i for i, f in enumerate(cuts) if column_value(f, col)] for col in table]
    residual = list(u.values)
    counts = [0] * g.num_elementary
    sums = [sum(map(operator.mul, f, residual)) for f in cuts]
    if any(s < 0 for s in sums):
        return []
    found = []

    def rec(pos, lead):
        r = next((r for r in range(lead, len(residual)) if residual[r]), None)
        if r is None:
            found.append(tuple(counts))
            return
        if residual[r] < 0:
            return
        for j in blocks.get(r, ()):
            if j < pos or j in excluded:
                continue
            dead = False
            for i in hits[j]:
                sums[i] -= 1
                dead = dead or sums[i] < 0
            if not dead:
                abc, c, ac, bc = table[j]
                for rank, step in ((abc, -1), (c, -1), (ac, 1), (bc, 1)):
                    residual[rank] += step
                counts[j] += 1
                rec(j, r)
                counts[j] -= 1
                for rank, step in ((abc, 1), (c, 1), (ac, -1), (bc, -1)):
                    residual[rank] += step
            for i in hits[j]:
                sums[i] += 1

    rec(0, 0)
    return found


def test_search_matches_superset_pruned_oracle():
    # sums of semi-elementary imsets have many witnesses; the elementary
    # terms, some negative, and the excluded columns take some away
    rng = random.Random(18)
    for n in (3, 4, 5):
        g = GroundSet(n)
        triplets = [t for t in enumerate_triplets(g) if not t.is_trivial]
        for _ in range(150):
            coeffs = [0] * g.num_elementary
            for _ in range(rng.randint(0, 2)):
                coeffs[rng.randrange(g.num_elementary)] += rng.choice((-1, 1, 2))
            u = Imset(g, tuple(elementary_combination(g, coeffs)))
            for _ in range(rng.randint(1, 2)):
                u = u + semi_elementary(rng.choice(triplets))
            excluded = set(rng.sample(range(g.num_elementary), rng.randint(0, 3)))
            assert list(_dfs_witnesses(u, excluded)) == _superset_pruned_witnesses(u, excluded)


def test_degree_32_combination_is_found_before_the_pause():
    # the superset cuts alone let this search pause at 2560 nodes, and its
    # unpaused run took minutes
    g = GroundSet(5)
    rng = random.Random(5)
    coeffs = [0] * g.num_elementary
    for _ in range(32):
        coeffs[rng.randrange(g.num_elementary)] += 1
    u = Imset(g, tuple(elementary_combination(g, coeffs)))
    witness = next(_dfs_witnesses(u, pause=g.num_subsets * g.num_elementary), ())
    assert witness is not None and resum(g, witness) == u


def test_lp_branch_gives_structural_with_the_lp_witness(monkeypatch):
    g = GroundSet(4)
    u = semi_elementary(Triplet.parse(g, "ab|cd|0"))
    monkeypatch.setattr(membership, "_dfs_witnesses", lambda u, **kw: iter(()))
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
    monkeypatch.setattr(membership, "_separating_table", no_lp)
    for c in (1, 3):
        assert classify(lattice.scale(c)) == MembershipResult(g, "lattice", None, 0)
    assert classify(-u) == MembershipResult(g, "lattice", None, -4)
