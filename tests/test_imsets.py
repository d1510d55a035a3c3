"""Imset arithmetic, the configuration matrix, and decomposition."""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import resources

import pytest

from imsetkit.groundset import GroundSet, Triplet, enumerate_elementary, enumerate_triplets, popcount
from imsetkit import supermodular
from imsetkit.imsets import (
    Imset,
    SetFunction,
    configuration,
    decompose_semi_elementary,
    delta,
    elementary_imset,
    inner,
    is_member_L_star,
    semi_elementary,
)
from imsetkit.linalg import rank


def size_sq_half(g):
    """f(S) = |S|^2 / 2 as a rank-aligned value vector."""
    class F:
        ground = g
        values = tuple(Fraction(popcount(m) ** 2, 2) for m in g.masks_graded)
    return F()


def size_choose_2(g):
    """f*(S) = |S|(|S|-1)/2."""
    class F:
        ground = g
        values = tuple(Fraction(popcount(m) * (popcount(m) - 1), 2) for m in g.masks_graded)
    return F()


def test_delta_positions():
    g = GroundSet(4)
    assert delta(g.subset("0")).values[0] == 1
    assert delta(g.subset(g.full_mask)).values[-1] == 1
    u = delta(g.subset("ab"))
    assert u.values[5] == 1 and sum(map(abs, u.values)) == 1


def test_semi_elementary_small():
    g = GroundSet(2)
    u = semi_elementary(Triplet.parse(g, "a|b|0"))
    assert u.to_dict() == {"0": 1, "a": -1, "b": -1, "ab": 1}
    assert semi_elementary(Triplet.parse(g, "0|b|0")).is_zero
    g4 = GroundSet(4)
    u = semi_elementary(Triplet.parse(g4, "a|b|cd"))
    assert u.to_dict() == {"cd": 1, "acd": -1, "bcd": -1, "abcd": 1}


def test_configuration_n2():
    g = GroundSet(2)
    cfg = configuration(g)
    assert cfg.num_cols == 1
    assert cfg.column_vector(0) == (1, -1, -1, 1)


def test_configuration_matches_golden_n4():
    golden = resources.files("imsetkit").joinpath("data/configuration_n4.csv").read_text()
    assert configuration(GroundSet(4)).to_csv() == golden


def test_configuration_columns_are_elementary_imsets():
    # pins the column table behind configuration() to semi_elementary, which
    # keeps the dense oracle of the sparse kernel check independent of it
    for n in (3, 4, 5, 6):
        g = GroundSet(n)
        cfg = configuration(g)
        for j, e in enumerate(cfg.columns):
            assert cfg.column_vector(j) == elementary_imset(e).values
            assert is_member_L_star(elementary_imset(e))


def test_configuration_rank():
    for n in (2, 3, 4, 5, 6):
        m = configuration(GroundSet(n)).matrix
        assert rank(m) == 2**n - n - 1


def test_homogeneity_inner_products():
    # <|S|^2/2, u> = 1 for every elementary u, n = 2..6
    for n in range(2, 7):
        g = GroundSet(n)
        f = size_sq_half(g)
        for e in enumerate_elementary(g):
            assert inner(f, elementary_imset(e)) == 1


def test_degree_inner_products():
    # <|S|(|S|-1)/2, u_<A|B|C>> = |A||B|
    rng = random.Random(404)
    for n in (3, 4, 5):
        g = GroundSet(n)
        f = size_choose_2(g)
        ts = enumerate_triplets(g)
        for t in rng.sample(ts, min(25, len(ts))):
            assert inner(f, semi_elementary(t)) == popcount(t.a_mask) * popcount(t.b_mask)


def test_semi_elementary_split_identity():
    # u_<A|BD|C> = u_<A|B|C> + u_<A|D|BC> for a random split of the B slot
    rng = random.Random(505)
    for n in (3, 4, 5, 6):
        g = GroundSet(n)
        candidates = [t for t in enumerate_triplets(g) if popcount(t.b_mask) >= 2]
        for t in rng.sample(candidates, min(20, len(candidates))):
            bits = [1 << i for i in range(g.n) if t.b_mask & (1 << i)]
            d = rng.choice(bits)
            rest = t.b_mask & ~d
            lhs = semi_elementary(t)
            rhs = semi_elementary(Triplet(g, t.a_mask, rest, t.c_mask)) + semi_elementary(
                Triplet(g, t.a_mask, d, rest | t.c_mask)
            )
            assert lhs == rhs


def test_decompose_semi_elementary_example():
    g = GroundSet(4)
    dec = decompose_semi_elementary(Triplet.parse(g, "a|bc|0"))
    assert {(str(e), c) for e, c in dec} == {("a|b|0", 1), ("a|c|b", 1)}
    dec = decompose_semi_elementary(Triplet.parse(g, "a|b|cd"))
    assert [(str(e), c) for e, c in dec] == [("a|b|cd", 1)]


def test_decompose_resums_and_counts():
    rng = random.Random(606)
    for n in (3, 4, 5):
        g = GroundSet(n)
        ts = enumerate_triplets(g)
        for t in rng.sample(ts, min(30, len(ts))):
            dec = decompose_semi_elementary(t)
            total = Imset.zero(g)
            for e, c in dec:
                total = total + elementary_imset(e).scale(c)
            assert total == semi_elementary(t)
            assert sum(c for _, c in dec) == popcount(t.a_mask) * popcount(t.b_mask)
    g = GroundSet(4)
    assert sum(c for _, c in decompose_semi_elementary(Triplet.parse(g, "ab|cd|0"))) == 4


def test_is_member_L_star():
    g = GroundSet(4)
    assert not is_member_L_star(delta(g.subset("0")))
    u = semi_elementary(Triplet.parse(g, "ab|cd|0"))
    assert is_member_L_star(u)
    # shifting any entry off breaks membership
    bad = u + delta(g.subset("abc"))
    assert not is_member_L_star(bad)


def test_imset_dict_roundtrip_and_text():
    g = GroundSet(3)
    u = semi_elementary(Triplet.parse(g, "a|b|c")) - delta(g.subset("0")).scale(2)
    assert Imset.from_dict(g, u.to_dict()) == u
    text = semi_elementary(Triplet.parse(g, "a|b|0")).format_text()
    # descending order puts larger subsets first
    assert text == "δ_ab − δ_b − δ_a + δ_∅"


def test_imset_validation():
    g = GroundSet(3)
    with pytest.raises(ValueError):
        Imset(g, (0,) * 7)
    with pytest.raises(ValueError):
        Imset(g, tuple([0.5] + [0] * 7))
    g2 = GroundSet(2)
    with pytest.raises(ValueError):
        semi_elementary(Triplet.parse(g, "a|b|0")) + semi_elementary(Triplet.parse(g2, "a|b|0"))


def test_imset_from_dict_rejects_non_integers():
    g = GroundSet(3)
    for entries in ({"ab": 1.5, "a": "2"}, {"ab": 1.5}, {"a": "2"}, {"a": Fraction(1, 2)}):
        with pytest.raises(ValueError):
            Imset.from_dict(g, entries)
    for entries in ({"a": None}, {"a": [1]}):
        with pytest.raises(TypeError):
            Imset.from_dict(g, entries)
    with pytest.raises(OverflowError):
        Imset.from_dict(g, {"a": float("inf")})
    # integral values of any numeric type are stored as ints
    u = Imset.from_dict(g, {"ab": 2.0, "a": Fraction(-1), "0": True})
    assert u.to_dict() == {"0": 1, "a": -1, "ab": 2}
    assert all(type(v) is int for v in u.values)


def test_imset_is_an_integer_valued_set_function():
    g = GroundSet(3)
    u = semi_elementary(Triplet.parse(g, "a|b|c"))
    v = delta(g.subset("ab"))
    assert supermodular.SetFunction is SetFunction and isinstance(u, SetFunction)
    for w in (u + v, u - v, -u, u.scale(2), 2 * u, Imset.zero(g)):
        assert type(w) is Imset
    assert (u - v).values == tuple(x - y for x, y in zip(u.values, v.values))
    assert u.scale(-3).values == tuple(-3 * x for x in u.values)
    for c in (Fraction(1, 2), 0.5):
        with pytest.raises(ValueError):
            u.scale(c)
    # the same values as a SetFunction scale by any rational
    f = SetFunction(g, u.values)
    half = f.scale(Fraction(1, 2))
    assert type(half) is SetFunction and half.at(g.full_mask) == Fraction(1, 2)
    assert f.is_exact and half.is_exact and not f.scale(0.5).is_exact


def test_set_function_and_imset_never_mix():
    g = GroundSet(3)
    u = semi_elementary(Triplet.parse(g, "a|b|c"))
    f = SetFunction(g, u.values)
    exact = SetFunction.from_dict(g, u.to_dict())  # integral Fraction values
    # equal values, different types: never equal, in either order
    assert f.values == u.values and exact.values == u.values
    assert u != f and f != u and u != exact and exact != u
    # + and - raise whatever the operand order
    for left, right in ((u, f), (f, u), (u, exact), (exact, u)):
        for op in (lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(TypeError, match="cannot combine"):
                op(left, right)
    assert f + exact == SetFunction(g, tuple(2 * x for x in u.values))
    assert type(u + u) is Imset
