"""Supermodularity, standardization, skeletal tests, constructors."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from imsetkit.groundset import GroundSet, Triplet, enumerate_elementary, popcount
from imsetkit.imsets import elementary_imset, inner, semi_elementary
from imsetkit.supermodular import (
    SetFunction,
    duplicate_coordinate,
    extend_marginal,
    extend_modular_top,
    extend_zero_slice,
    first_supermodularity_violation,
    indicator_superset,
    is_modular,
    is_skeletal,
    is_supermodular,
    max_k,
    modular_coefficients,
    product,
    product_cone_extreme_check,
    _superset_indicator,
    reflect,
    four_generator_witness,
    skeletal_report,
    standardize,
)


def half_sq(g):
    return SetFunction.from_callable(g, lambda m: Fraction(popcount(m) ** 2, 2))


def test_is_supermodular_examples():
    for n in (2, 3, 4):
        g = GroundSet(n)
        assert is_supermodular(half_sq(g))
        for k in range(1, n):
            assert is_supermodular(max_k(g, k))
    g = GroundSet(3)
    neg_top = SetFunction.from_callable(g, lambda m: -1 if m == g.full_mask else 0)
    assert not is_supermodular(neg_top)
    # the first violated triplet in elementary order has the smallest C
    v = first_supermodularity_violation(neg_top)
    assert v is not None and str(v) == "b|c|a"


def test_modularity_and_coefficients():
    g = GroundSet(4)
    card = SetFunction.from_callable(g, lambda m: popcount(m))
    assert is_modular(card)
    lam0, lam = modular_coefficients(card)
    assert lam0 == 0 and all(v == 1 for v in lam.values())
    one = SetFunction.from_callable(g, lambda m: 1)
    assert modular_coefficients(one) == (1, {l: 0 for l in g.labels})
    sq = SetFunction.from_callable(g, lambda m: popcount(m) ** 2)
    assert not is_modular(sq)
    with pytest.raises(ValueError):
        modular_coefficients(sq)


def test_standardize():
    g = GroundSet(4)
    f = half_sq(g)
    fbar = standardize(f)
    expected = SetFunction.from_callable(g, lambda m: Fraction(popcount(m) * (popcount(m) - 1), 2))
    assert fbar == expected
    assert standardize(fbar) == fbar
    card = SetFunction.from_callable(g, lambda m: popcount(m) + 3)
    assert standardize(card) == SetFunction.zero(g)
    # standardization of a supermodular function is >= 0 and nondecreasing
    rng = random.Random(12)
    for n in (3, 4, 5):
        gg = GroundSet(n)
        for _ in range(8):
            # random nonneg combination of supermodular generators stays
            # supermodular
            f = SetFunction.zero(gg)
            for k in range(1, n):
                f = f + max_k(gg, k).scale(rng.randint(0, 3))
            f = f + half_sq(gg).scale(rng.randint(0, 2))
            fb = standardize(f)
            assert all(v >= 0 for v in fb.values)
            for m in gg.masks_graded:
                for i in range(n):
                    if not m & (1 << i):
                        assert fb.at(m | (1 << i)) >= fb.at(m)


def test_is_skeletal_examples():
    g3 = GroundSet(3)
    assert is_skeletal(max_k(g3, 1))
    assert is_skeletal(max_k(g3, 2))
    combo = max_k(g3, 1) + max_k(g3, 2)
    assert is_supermodular(combo) and not is_skeletal(combo)
    assert not is_skeletal(SetFunction.zero(g3))
    with pytest.raises(ValueError):
        is_skeletal(SetFunction.from_callable(g3, lambda m: -popcount(m) ** 2))


@pytest.mark.parametrize("n", [3, 4])
def test_exact_tests_agree_on_int_and_fraction_values(n):
    g = GroundSet(n)
    cases = [
        (max_k(g, 1), True, None),
        (max_k(g, n - 1), True, None),
        (SetFunction.zero(g), False, (0, {l: 0 for l in g.labels})),
        (indicator_superset(g.subset("ab")), True, None),
        (_superset_indicator(g, 0b1), False, (0, {l: int(l == "a") for l in g.labels})),
    ]
    for f, skeletal, coefficients in cases:
        ints = SetFunction(g, tuple(int(v) for v in f.values))
        fracs = SetFunction(g, tuple(Fraction(v) for v in f.values))
        assert ints.is_exact and fracs.is_exact
        assert is_skeletal(ints) is is_skeletal(fracs) is skeletal
        assert skeletal_report(ints) == skeletal_report(fracs)
        if coefficients is None:
            for h in (ints, fracs):
                with pytest.raises(ValueError):
                    modular_coefficients(h)
        else:
            assert modular_coefficients(ints) == modular_coefficients(fracs) == coefficients
        floats = SetFunction(g, tuple(float(v) for v in f.values))
        with pytest.raises(TypeError):
            skeletal_report(floats)
    assert is_skeletal(SetFunction(GroundSet(3), (0, 0, 0, 0, 1, 1, 1, 2)))


def test_four_generator_witness_inner_products_and_skeletal():
    g = GroundSet(4)
    m = four_generator_witness(g)
    assert is_supermodular(m)
    assert is_skeletal(m)
    assert inner(m, semi_elementary(Triplet.parse(g, "a|b|cd"))) == 1
    u = (
        semi_elementary(Triplet.parse(g, "c|d|ab"))
        + semi_elementary(Triplet.parse(g, "a|b|0"))
        + semi_elementary(Triplet.parse(g, "a|b|c"))
        + semi_elementary(Triplet.parse(g, "a|b|d"))
    )
    assert inner(m, u) == 0


def test_skeletal_invariances():
    g = GroundSet(3)
    f = max_k(g, 1)
    assert is_skeletal(f.scale(7)) == is_skeletal(f)
    modular = SetFunction.from_callable(g, lambda m: 2 * popcount(m) - 1)
    assert is_skeletal(f + modular) == is_skeletal(f)
    # reflect: involution, skeletality preserved
    r = reflect(f)
    assert reflect(r) == f
    assert is_skeletal(r)


def test_indicator_constructor_and_reflection():
    g = GroundSet(3)
    ab = g.subset("ab")
    f = indicator_superset(ab)
    assert is_skeletal(f)
    r = reflect(f)
    # 1_{A ⊆ N\S} = 1_{S ⊆ Aᶜ}
    comp = g.full_mask & ~ab.mask
    assert r == SetFunction.from_callable(g, lambda m: int(m & ~comp == 0))
    assert is_skeletal(r)
    with pytest.raises(ValueError):
        indicator_superset(g.subset("a"))


def test_indicator_inner_products_are_01():
    # superset and subset indicators hit every elementary imset in {0,1}
    for n in (2, 3, 4):
        g = GroundSet(n)
        elems = [elementary_imset(e) for e in enumerate_elementary(g)]
        for mask in g.masks_graded:
            sup = SetFunction.from_callable(g, lambda m: int(mask & ~m == 0))
            sub = SetFunction.from_callable(g, lambda m: int(m & ~mask == 0))
            for u in elems:
                assert inner(sup, u) in (0, 1)
                assert inner(sub, u) in (0, 1)


def test_extensions():
    g2 = GroundSet(2)
    base = max_k(g2, 1)
    # marginal extension to 4 variables
    f = extend_marginal(base, GroundSet(4))
    assert f.ground.n == 4 and is_skeletal(f)
    # zero-slice extension (base is standardized skeletal, so nondecreasing)
    f = extend_zero_slice(base, "c")
    assert f.ground.labels == ("a", "b", "c")
    assert f.at(0b111) == 1 and f.at(0b011) == 0
    assert is_skeletal(f)
    # modular-top extension: max_{n-1} has unit top differences
    g3 = GroundSet(3)
    f = extend_modular_top(max_k(g3, 2), "d")
    assert f.ground.n == 4
    assert f.at(g3.full_mask) == 1 and f.at(0b1111) == 3
    assert is_skeletal(f)
    # every max_k base has unit top differences; use it as a second case
    assert is_skeletal(extend_modular_top(max_k(g3, 1), "d"))
    with pytest.raises(ValueError):
        # indicator of {a,b} has Δ_c f0(ab) = 0, hypothesis fails
        extend_modular_top(indicator_superset(g3.subset("ab")), "d")
    with pytest.raises(ValueError):
        extend_zero_slice(SetFunction.from_callable(g2, lambda m: 1), "c")


def test_duplicate_coordinate():
    g2 = GroundSet(2)
    f = duplicate_coordinate(max_k(g2, 1), "c")
    # b is duplicated into c: value follows f'(a-part, 1) only when both
    # b and c are present
    assert f.ground.labels == ("a", "b", "c")
    assert f.at(0b110) == 0  # b,c without a -> f'({b}) = 0
    assert f.at(0b111) == 1  # a,b,c -> f'({a,b}) = 1
    assert f.at(0b011) == 0  # a,b only -> x_c=0 -> f'({a}) = 0
    assert is_skeletal(f)


def test_product_constructor():
    ga = GroundSet(["a", "b"])
    gb = GroundSet(["c", "d"])
    f = product(max_k(ga, 1), max_k(gb, 1))
    assert f.ground.labels == ("a", "b", "c", "d")
    # f(S) = 1 exactly when S contains {a,b} and {c,d}
    assert f.at(0b1111) == 1 and f.at(0b0111) == 0
    assert is_skeletal(f)
    with pytest.raises(ValueError):
        product(max_k(ga, 1), max_k(GroundSet(["b", "c"]), 1))
    with pytest.raises(ValueError):
        product(SetFunction.from_callable(ga, lambda m: 1), max_k(gb, 1))


def test_product_cone_extreme_check():
    e = [(1, 0), (0, 1)]
    assert product_cone_extreme_check(e, e, (1, 0), (0, 1))
    assert product_cone_extreme_check(e, e, (0, 1), (0, 1))
    # non-extreme factor: sum of two generators
    assert not product_cone_extreme_check(e, e, (1, 1), (0, 1))
    # nonnegative functions on P({a}) x P({b}): unit-vector products again
    g1 = GroundSet(1)
    orth = [(1, 0), (0, 1)]
    assert product_cone_extreme_check(orth, orth, (0, 1), (0, 1))
    assert g1.num_subsets == 2
    with pytest.raises(ValueError):
        product_cone_extreme_check([(1, -1), (0, 1)], e, (1, 0), (0, 1))
    with pytest.raises(ValueError):
        product_cone_extreme_check([(1, 0)], e, (1, 0), (0, 1))  # not full-dim


def test_set_function_serialization():
    g = GroundSet(3)
    f = SetFunction.from_dict(g, {"ab": "3/2", "abc": 2})
    assert f.at(0b011) == Fraction(3, 2)
    assert SetFunction.from_dict(g, f.to_dict()) == f
    assert f.to_dict() == {"ab": "3/2", "abc": "2"}


def test_constructor_parameter_validation():
    g = GroundSet(3)
    with pytest.raises(ValueError):
        max_k(g, 0)
    with pytest.raises(ValueError):
        max_k(g, 3)
    with pytest.raises(ValueError):
        four_generator_witness(g)
    assert is_skeletal(four_generator_witness(GroundSet(4)))
