"""Supermodularity, standardization, skeletal tests, constructors."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from imsetkit.groundset import GroundSet, Triplet, enumerate_elementary, popcount
from imsetkit.imsets import column_value, elementary_columns, elementary_imset, inner, semi_elementary
from imsetkit.linalg import nullspace, rank
from imsetkit.supermodular import (
    _require_supermodular,
    _skeleton,
    _standard_rows,
    SetFunction,
    duplicate_coordinate,
    extend_marginal,
    extend_modular_top,
    extend_zero_slice,
    extreme_rays,
    first_supermodularity_violation,
    is_standardized,
    indicator_superset,
    is_modular,
    is_skeletal,
    is_supermodular,
    max_k,
    modular_coefficients,
    product,
    _superset_indicator,
    reflect,
    four_generator_witness,
    skeletal_report,
    skeleton,
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


def test_duplicate_coordinate_needs_a_standardized_input():
    # supermodular but decreasing: the pullback would be violated at c|d|0
    g3 = GroundSet(3)
    f = SetFunction.from_callable(g3, lambda m: int(m == 0))
    assert is_supermodular(f) and not is_standardized(f)
    with pytest.raises(ValueError, match="standardized"):
        duplicate_coordinate(f, "d")
    # on standardized inputs, every skeleton ray and a sum, the output stays
    # supermodular
    rays = skeleton(g3)
    for f in rays + [rays[0] + rays[-1]]:
        assert is_supermodular(duplicate_coordinate(f, "d"))


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


def _normalize_ray(vec):
    """Divide a nonzero integer vector by the gcd of its entries; the sign
    is kept, so rays keep their cone-feasible orientation."""
    g = gcd(*vec)
    return tuple(x // g for x in vec)


def dual_rays(generators):
    """Extreme rays of {y : <g, y> >= 0 for all g in generators}, by brute
    force over the (dim-1)-subsets of the constraints: the oracle for
    extreme_rays.  Requires cone(generators) full-dimensional."""
    gens = [tuple(Fraction(x) for x in v) for v in generators]
    if not gens:
        raise ValueError("empty generator list")
    dim = len(gens[0])
    if rank(gens) != dim:
        raise ValueError("dual_rays requires a full-dimensional cone")
    rays = set()
    for comb in combinations(range(len(gens)), dim - 1):
        basis = nullspace([gens[i] for i in comb], dim)
        if len(basis) != 1:
            continue
        v = basis[0]
        prods = [sum(gi * vi for gi, vi in zip(g, v)) for g in gens]
        if all(p >= 0 for p in prods):
            rays.add(_normalize_ray(v))
        elif all(p <= 0 for p in prods):
            rays.add(_normalize_ray([-x for x in v]))
    return sorted(rays)


@pytest.mark.parametrize("rows", [
    [(1, 0), (0, 1)],
    [(1, 0), (1, 1), (0, 1)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],
    [(2, 0, 1), (0, 3, 1), (1, 1, 0), (0, 0, 1), (1, -1, 1)],
    [(Fraction(1, 2), 0, 1), (0, Fraction(-2, 3), 1), (1, 1, 0), (0, 0, 1)],
    list(_standard_rows(GroundSet(2))),
    list(_standard_rows(GroundSet(3))),
])
def test_extreme_rays_match_the_brute_force_oracle(rows):
    assert extreme_rays(rows) == dual_rays(rows)


def test_extreme_rays_rejects_a_cone_that_is_not_pointed():
    for rows in ([], [(1, 0)], [(1, 1), (2, 2)]):
        with pytest.raises(ValueError):
            extreme_rays(rows)


@pytest.mark.parametrize("n, count", [(1, 0), (2, 1), (3, 5), (4, 37)])
def test_skeleton_counts_and_rays(n, count):
    g = GroundSet(n)
    rays = skeleton(g)
    assert len(rays) == count == len(set(rays))
    for f, (values, ranks) in zip(rays, _skeleton(g)):
        assert is_standardized(f) and gcd(*f.values) == 1
        assert skeletal_report(f)["skeletal"]
        on = [column_value(values, col) for col in elementary_columns(g)]
        assert min(on, default=0) >= 0
        assert ranks == tuple(k for k, v in enumerate(on) if v > 0)
    if n == 4:
        assert four_generator_witness(g) in rays
    with pytest.raises(ValueError):
        skeleton(GroundSet(5))


@pytest.mark.parametrize("n, count", [(3, 22), (4, 22108)])
def test_skeleton_facets_close_to_the_structural_models(n, count):
    # every face of cone(E(N)) is an intersection of the facets the rays
    # support; 22108 is the number of structural models over four variables
    g = GroundSet(n)
    everything = (1 << g.num_elementary) - 1
    facets = [everything & ~sum(1 << k for k in ranks) for _, ranks in _skeleton(g)]
    faces = frontier = {everything}
    while frontier:
        frontier = {face & z for face in frontier for z in facets} - faces
        faces = faces | frontier
    assert len(faces) == count


def product_cone_extreme_check(G, H, g, h) -> bool:
    """Is g⊗h extreme in M(G, H) = {f >= 0 : every row-section in cone(H),
    every column-section in cone(G)}?

    G, H are generator lists of pointed, full-dimensional cones of
    nonnegative functions on finite sets X, Y (vectors of rationals).  The
    test builds the explicit inequality description of M(G, H) through the
    dual rays of the factors (extreme_rays) and applies the tight-constraint
    rank criterion.  Only this file calls it, so it lives here.
    """
    G = [tuple(Fraction(v) for v in vec) for vec in G]
    H = [tuple(Fraction(v) for v in vec) for vec in H]
    gv = tuple(Fraction(v) for v in g)
    hv = tuple(Fraction(v) for v in h)
    nx, ny = len(gv), len(hv)
    for vec in G + H + [gv, hv]:
        if all(v == 0 for v in vec):
            raise ValueError("zero generator")
        if any(v < 0 for v in vec):
            raise ValueError("generators must be nonnegative functions (pointedness)")
    VG = extreme_rays(G)
    VH = extreme_rays(H)

    F = [gv[x] * hv[y] for x in range(nx) for y in range(ny)]
    dim = nx * ny
    constraints = []
    for y in range(ny):
        for v in VG:
            row = [Fraction(0)] * dim
            for x in range(nx):
                row[x * ny + y] = v[x]
            constraints.append(row)
    for x in range(nx):
        for w in VH:
            row = [Fraction(0)] * dim
            for y in range(ny):
                row[x * ny + y] = w[y]
            constraints.append(row)
    for i in range(dim):
        row = [Fraction(0)] * dim
        row[i] = Fraction(1)
        constraints.append(row)

    tight = [row for row in constraints if sum(r * f for r, f in zip(row, F)) == 0]
    if not tight:
        return dim == 1
    return rank(tight) == dim - 1


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


# ---------------------------------------------------------------------------
# oracle: the per-mask constructors (restrict each mask, then from_callable)
# ---------------------------------------------------------------------------


def _restrict_mask(big, small, mask):
    """A mask over `big`, restricted to small's labels, as a mask over `small`."""
    out = 0
    for i, lab in enumerate(big.labels):
        if mask & (1 << i) and lab in small._label_index:
            out |= 1 << small._label_index[lab]
    return out


def _merged_ground(*label_groups):
    return GroundSet(sorted(set().union(*label_groups)))


def _guard(f, what):
    bad = first_supermodularity_violation(f)
    if bad is not None:
        raise ValueError(f"{what} not supermodular: violated at {bad}")


def _new_label(small, new_label):
    if new_label in small._label_index:
        raise ValueError(f"label {new_label!r} already present")


def oracle_reflect(f):
    _guard(f, "reflect input")
    g = f.ground
    return SetFunction.from_callable(g, lambda m: f.at(g.full_mask & ~m))


def oracle_marginal(g_fn, ground):
    small = g_fn.ground
    if any(lab not in ground._label_index for lab in small.labels):
        raise ValueError("target ground set must contain the source labels")
    _guard(g_fn, "extend_marginal input")
    return SetFunction.from_callable(ground, lambda m: g_fn.at(_restrict_mask(ground, small, m)))


def oracle_zero_slice(f1, new_label):
    small = f1.ground
    _new_label(small, new_label)
    _guard(f1, "extend_zero_slice input")
    if f1.at(0) != 0:
        raise ValueError("extend_zero_slice needs f1(∅) = 0")
    for i in range(small.n):
        bit = 1 << i
        for m in small.masks_graded:
            if not m & bit and f1.at(m | bit) < f1.at(m):
                raise ValueError(
                    f"extend_zero_slice needs f1 nondecreasing; decreases adding "
                    f"{small.labels[i]!r} to {small.subset_str(m)}"
                )
    ground = _merged_ground(small.labels, [new_label])
    new_bit = 1 << ground._label_index[new_label]

    def fn(mask):
        if mask & new_bit:
            return f1.at(_restrict_mask(ground, small, mask & ~new_bit))
        return 0

    return SetFunction.from_callable(ground, fn)


def oracle_modular_top(f0, new_label):
    small = f0.ground
    _new_label(small, new_label)
    if f0.at(0) != 0 or any(f0.at(1 << i) != 0 for i in range(small.n)):
        raise ValueError("extend_modular_top needs a standardized base")
    if not is_skeletal(f0):
        raise ValueError("extend_modular_top needs a skeletal base")
    top = f0.at(small.full_mask)
    for i in range(small.n):
        if top - f0.at(small.full_mask & ~(1 << i)) != 1:
            raise ValueError(
                f"extend_modular_top needs Δ_i f0(N'\\i) = 1; fails at {small.labels[i]!r}"
            )
    ground = _merged_ground(small.labels, [new_label])
    new_bit = 1 << ground._label_index[new_label]

    def fn(mask):
        rest = _restrict_mask(ground, small, mask & ~new_bit)
        if mask & new_bit:
            return popcount(rest)
        return f0.at(rest)

    return SetFunction.from_callable(ground, fn)


def oracle_duplicate(f_prime, new_label):
    small = f_prime.ground
    _new_label(small, new_label)
    _guard(f_prime, "duplicate_coordinate input")
    if f_prime.at(0) != 0 or any(f_prime.at(1 << i) != 0 for i in range(small.n)):
        raise ValueError("duplicate_coordinate input must be standardized")
    t_bit_small = 1 << (small.n - 1)
    ground = _merged_ground(small.labels, [new_label])
    new_bit = 1 << ground._label_index[new_label]
    t_bit = 1 << ground._label_index[small.labels[-1]]

    def fn(mask):
        rest = _restrict_mask(ground, small, mask & ~(new_bit | t_bit)) & ~t_bit_small
        if (mask & new_bit) and (mask & t_bit):
            return f_prime.at(rest | t_bit_small)
        return f_prime.at(rest)

    return SetFunction.from_callable(ground, fn)


def oracle_product(g_fn, h_fn):
    ga, gb = g_fn.ground, h_fn.ground
    if set(ga.labels) & set(gb.labels):
        raise ValueError("product needs disjoint label sets")
    for name, fn in (("left", g_fn), ("right", h_fn)):
        _guard(fn, f"product {name} factor")
        if fn.at(0) != 0 or any(fn.at(1 << i) != 0 for i in range(fn.ground.n)):
            raise ValueError(f"product {name} factor must be standardized")
    ground = _merged_ground(ga.labels, gb.labels)
    return SetFunction.from_callable(
        ground,
        lambda m: g_fn.at(_restrict_mask(ground, ga, m)) * h_fn.at(_restrict_mask(ground, gb, m)),
    )


def _outcome(constructor, *args):
    """(labels, values, value types) of the result, or the ValueError text."""
    try:
        f = constructor(*args)
    except ValueError as exc:
        return str(exc)
    return f.ground.labels, f.values, tuple(type(v) for v in f.values)


def _seeded_base(rng, labels):
    """A max_k, indicator or reflected base on `labels`, sometimes negated,
    shifted, scaled or tilted by a modular function so that each hypothesis
    check fires somewhere."""
    g = GroundSet(labels)
    family = rng.choice(("max_k", "indicator", "reflect"))
    if family == "max_k":
        f = max_k(g, rng.randrange(1, g.n))
    else:
        f = indicator_superset(g.subset(rng.sample(labels, rng.randint(2, g.n))))
    if family == "reflect":
        f = reflect(f)
    card = SetFunction.from_callable(g, popcount)
    tweak = rng.choice(("none", "none", "negate", "shift", "scale", "tilt_up", "tilt_down"))
    if tweak == "negate":
        f = -f
    elif tweak == "shift":
        f = f + SetFunction.from_callable(g, lambda m: 1)
    elif tweak == "scale":
        f = f.scale(Fraction(3, 2))
    elif tweak == "tilt_up":
        f = f + card
    elif tweak == "tilt_down":
        f = f - card
    return f


def test_constructors_match_the_per_mask_oracle():
    rng = random.Random(14)
    pool = "abcdefgh"
    pairs = [
        (reflect, oracle_reflect),
        (extend_zero_slice, oracle_zero_slice),
        (extend_modular_top, oracle_modular_top),
        (duplicate_coordinate, oracle_duplicate),
    ]
    seen = {}

    def compare(new, old, *args):
        got, want = _outcome(new, *args), _outcome(old, *args)
        assert got == want, (new.__name__, args)
        seen.setdefault(new.__name__, set()).add(isinstance(got, str))

    # a label that falls mid-order in the merged ground set
    ace = max_k(GroundSet("ace"), 1)
    compare(extend_zero_slice, oracle_zero_slice, ace, "b")
    compare(duplicate_coordinate, oracle_duplicate, ace, "b")
    for _ in range(150):
        labels = rng.sample(pool, rng.randint(2, 3))
        f = _seeded_base(rng, labels)
        for new, old in pairs:
            extra = rng.choice([l for l in pool if l not in labels] + labels[:1])
            compare(new, old, *((f,) if new is reflect else (f, extra)))
        wider = labels + rng.sample([l for l in pool if l not in labels], rng.randint(0, 2))
        if rng.random() < 0.15:
            wider.remove(rng.choice(labels))
        rng.shuffle(wider)
        compare(extend_marginal, oracle_marginal, f, GroundSet(wider))
        rest = [l for l in pool if l not in labels] + ([labels[0]] if rng.random() < 0.15 else [])
        h = _seeded_base(rng, rng.sample(rest, 2))
        compare(product, oracle_product, f, h)
        compare(product, oracle_product, h, f)
    # every constructor built something and refused something
    assert seen == {name: {False, True} for name in seen} and len(seen) == 6


def oracle_skeletal_report(f):
    """The standardize-based skeletal test skeletal_report replaced, kept as
    its reference: read the tight set off f̄ and test f̄ = 0 directly."""
    if not f.is_exact:
        raise TypeError("the skeletal test requires exact rational values")
    _require_supermodular(f)
    g = f.ground
    fbar = standardize(f)
    dim = g.num_subsets - g.n - 1
    if all(v == 0 for v in fbar.values):
        return {"skeletal": False, "tight_count": g.num_elementary, "tight_rank": None, "dimension": dim}
    tight = [col for col in elementary_columns(g) if column_value(fbar.values, col) == 0]
    rows = []
    for abc, c, ac, bc in tight:
        vec = [0] * g.num_subsets
        vec[abc] = vec[c] = 1
        vec[ac] = vec[bc] = -1
        rows.append(vec[g.n + 1:])
    tight_rank = rank(rows)
    return {
        "skeletal": tight_rank == dim - 1,
        "tight_count": len(tight),
        "tight_rank": tight_rank,
        "dimension": dim,
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_skeletal_report_matches_the_standardizing_oracle(n):
    rng = random.Random(n)
    g = GroundSet(n)
    smaller = GroundSet(g.labels[:-1])
    new = g.labels[-1]
    built = [max_k(g, k) for k in range(1, n)]
    built += [indicator_superset(g.subset(rng.sample(g.labels, rng.randint(2, n)))) for _ in range(4)]
    built += [reflect(f) for f in built]
    if n >= 3:
        bases = [max_k(smaller, k) for k in range(1, n - 1)]
        bases += [indicator_superset(smaller.subset(smaller.labels[:2]))]
        built += [extend_zero_slice(f, new) for f in bases]
        built += [duplicate_coordinate(f, new) for f in bases]
        built.append(extend_modular_top(max_k(smaller, n - 2), new))
    if n >= 4:
        left, right = GroundSet(g.labels[:2]), GroundSet(g.labels[2:])
        built.append(product(max_k(left, 1), indicator_superset(right.subset(right.labels[:2]))))
    if n == 4:
        built.append(four_generator_witness(g))
    modular = [_random_modular(rng, g) for _ in range(3)]
    cases = built + modular + [SetFunction.zero(g)]
    cases += [rng.choice(built) + rng.choice(built) for _ in range(10)]
    # a modular tilt changes no report; a negated constructor output is refused
    cases += [f + rng.choice(modular) for f in built]
    cases += [-f for f in built[:3]]
    outcomes = []
    for f in cases:
        want = _report_or_error(oracle_skeletal_report, f)
        assert _report_or_error(skeletal_report, f) == want
        outcomes.append(want if isinstance(want, str) else (want["skeletal"], want["tight_rank"]))
    # refused, all tight, skeletal and not skeletal all occur
    assert any(isinstance(o, str) for o in outcomes)
    assert (False, None) in outcomes and (True, 2 ** n - n - 2) in outcomes
    assert n == 2 or any(o[0] is False and o[1] is not None for o in outcomes if not isinstance(o, str))


def _random_modular(rng, g):
    lam = [Fraction(rng.randint(-3, 3), 2) for _ in range(g.n + 1)]
    return SetFunction.from_callable(g, lambda m: lam[0] + sum(lam[i + 1] for i in range(g.n) if m >> i & 1))


def _report_or_error(report, f):
    try:
        return report(f)
    except ValueError as exc:
        return str(exc)
