"""Set functions on P(N): supermodularity, skeletal tests, and constructors.

A set function f is supermodular iff <f, u> >= 0 for every elementary imset
u (checking all |E(N)| of them is enough).  Subtracting the modular function
f_L(S) = f(0) + Σ_{e in S} (f(e) - f(0)) standardizes f to f̄ vanishing on
all S with |S| <= 1; for supermodular f the standardization is nonnegative
and nondecreasing.

A supermodular f is skeletal when its standardization spans an extreme ray
of the cone of standardized supermodular functions.  The test is the
tight-constraint rank criterion: collect the elementary imsets u with
<f̄, u> = 0, project them to the coordinates of subsets with |S| >= 2
(a space of dimension 2^n - n - 1), and ask for rank exactly one less than
that dimension.  The zero function is not skeletal.

Exactness: cone tests require Fraction values.  The CI machinery stores
float values in the same container; tolerance-based checks accept those,
the exact tests (is_skeletal, modular_coefficients) reject them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .groundset import ElementaryIndex, GroundSet, Subset, popcount
from .imsets import column_value, elementary_columns
from .linalg import nullspace, rank


def _to_value(x):
    if isinstance(x, float):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class SetFunction:
    """Rational (or float, for entropy-like quantities) vector over P(N),
    indexed by subset rank like an Imset."""

    ground: GroundSet
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.ground.num_subsets:
            raise ValueError("set function vector length must be 2^n")

    @classmethod
    def from_callable(cls, ground: GroundSet, fn) -> "SetFunction":
        """fn maps a subset bitmask to a value."""
        return cls(ground, tuple(_to_value(fn(m)) for m in ground.masks_graded))

    @classmethod
    def zero(cls, ground: GroundSet) -> "SetFunction":
        return cls(ground, (Fraction(0),) * ground.num_subsets)

    @classmethod
    def from_dict(cls, ground: GroundSet, entries: dict) -> "SetFunction":
        """Build from {subset-string: "p/q" | number}; missing subsets are 0."""
        vals = [Fraction(0)] * ground.num_subsets
        for key, v in entries.items():
            vals[ground.subset_rank(ground.parse_subset(key))] = Fraction(v)
        return cls(ground, tuple(vals))

    def to_dict(self) -> dict:
        """{subset-string: "p/q"} with zero entries omitted."""
        g = self.ground
        out = {}
        for r, v in enumerate(self.values):
            if v != 0:
                out[g.subset_str(g.mask_of_rank(r))] = str(v)
        return out

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)

    def at(self, mask: int):
        return self.values[self.ground.subset_rank(mask)]

    def _check_same_ground(self, other):
        if self.ground != other.ground:
            raise ValueError("set functions over different ground sets")

    def __add__(self, other: "SetFunction") -> "SetFunction":
        self._check_same_ground(other)
        return SetFunction(self.ground, tuple(x + y for x, y in zip(self.values, other.values)))

    def __sub__(self, other: "SetFunction") -> "SetFunction":
        self._check_same_ground(other)
        return SetFunction(self.ground, tuple(x - y for x, y in zip(self.values, other.values)))

    def __neg__(self) -> "SetFunction":
        return SetFunction(self.ground, tuple(-x for x in self.values))

    def scale(self, c) -> "SetFunction":
        c = _to_value(c)
        return SetFunction(self.ground, tuple(c * x for x in self.values))


def first_supermodularity_violation(f: SetFunction, tol=0):
    """The elementary-order-least violated triplet, or None."""
    g = f.ground
    for k, col in enumerate(elementary_columns(g)):
        if column_value(f.values, col) < -tol:
            return ElementaryIndex.from_rank(g, k)
    return None


def is_supermodular(f: SetFunction, tol=0) -> bool:
    """<f, u> >= 0 for every elementary imset u (within tol, default exact)."""
    return first_supermodularity_violation(f, tol) is None


def is_modular(f: SetFunction, tol=0) -> bool:
    """f and -f supermodular: every elementary inner product vanishes."""
    return all(abs(column_value(f.values, col)) <= tol for col in elementary_columns(f.ground))


def modular_coefficients(f: SetFunction):
    """(λ_0, {label: λ_e}) with f(S) = λ_0 + Σ_{e in S} λ_e; exact."""
    if not f.is_exact:
        raise TypeError("modular coefficients require exact rational values")
    if not is_modular(f):
        raise ValueError("set function is not modular")
    g = f.ground
    lam0 = f.at(0)
    lam = {g.labels[i]: f.at(1 << i) - lam0 for i in range(g.n)}
    # reconstruction check over all subsets
    for mask in g.masks_graded:
        expect = lam0 + sum(lam[g.labels[i]] for i in range(g.n) if mask & (1 << i))
        if f.at(mask) != expect:
            raise ValueError("set function is not modular")
    return lam0, lam


def standardize(f: SetFunction) -> SetFunction:
    """f̄ = f - f_L, vanishing on all subsets with |S| <= 1."""
    g = f.ground
    f0 = f.at(0)
    lam = [f.at(1 << i) - f0 for i in range(g.n)]

    def bar(mask):
        return f.at(mask) - f0 - sum(lam[i] for i in range(g.n) if mask & (1 << i))

    return SetFunction(g, tuple(bar(m) for m in g.masks_graded))


def is_standardized(f: SetFunction) -> bool:
    g = f.ground
    if f.at(0) != 0:
        return False
    return all(f.at(1 << i) == 0 for i in range(g.n))


def skeletal_report(f: SetFunction) -> dict:
    """is_skeletal with its tight-set evidence (counts and ranks)."""
    if not f.is_exact:
        raise TypeError("the skeletal test requires exact rational values")
    bad = first_supermodularity_violation(f)
    if bad is not None:
        raise ValueError(f"not supermodular: violated at {bad}")
    g = f.ground
    fbar = standardize(f)
    dim = g.num_subsets - g.n - 1
    if all(v == 0 for v in fbar.values):
        return {"skeletal": False, "tight_count": g.num_elementary, "tight_rank": None, "dimension": dim}
    tight = [col for col in elementary_columns(g) if column_value(fbar.values, col) == 0]
    # project tight imsets to the coordinates of subsets with |S| >= 2; the
    # graded order puts the n + 1 subsets with |S| <= 1 first
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


def is_skeletal(f: SetFunction) -> bool:
    """Extreme-ray test for the standardized supermodular cone."""
    return skeletal_report(f)["skeletal"]


# ---------------------------------------------------------------------------
# skeletal constructors
# ---------------------------------------------------------------------------


def max_k(g: GroundSet, k: int) -> SetFunction:
    """f(S) = max(|S| - k, 0) for 1 <= k < n."""
    if not 1 <= k < g.n:
        raise ValueError(f"max_k needs 1 <= k < n, got k={k}, n={g.n}")
    return SetFunction.from_callable(g, lambda m: max(popcount(m) - k, 0))


def indicator_superset(A: Subset) -> SetFunction:
    """f(S) = 1 if A ⊆ S else 0; needs |A| >= 2.

    For |A| <= 1 the indicator is modular, its standardization vanishes, and
    no extreme ray exists, so such arguments are rejected.
    """
    if A.cardinality < 2:
        raise ValueError(f"indicator_superset needs |A| >= 2, got {A}")
    return SetFunction.from_callable(A.ground, lambda m: int(A.mask & ~m == 0))


def reflect(f: SetFunction) -> SetFunction:
    """g(S) = f(N \\ S); maps supermodular to supermodular, skeletal to
    skeletal, and is an involution."""
    bad = first_supermodularity_violation(f)
    if bad is not None:
        raise ValueError(f"reflect input not supermodular: violated at {bad}")
    g = f.ground
    return SetFunction.from_callable(g, lambda m: f.at(g.full_mask & ~m))


def _merged_ground(*label_groups) -> GroundSet:
    labels = sorted(set().union(*label_groups))
    return GroundSet(labels)


def _restrict_mask(big: GroundSet, small: GroundSet, mask: int) -> int:
    """Rewrite a mask over `big` (restricted to small's labels) as a mask
    over `small`."""
    out = 0
    for i, lab in enumerate(big.labels):
        if mask & (1 << i) and lab in small._label_index:
            out |= 1 << small._label_index[lab]
    return out


def extend_marginal(g_fn: SetFunction, ground: GroundSet) -> SetFunction:
    """f(S) = g(S ∩ A) on a larger ground set whose labels include A's."""
    small = g_fn.ground
    if any(lab not in ground._label_index for lab in small.labels):
        raise ValueError("target ground set must contain the source labels")
    bad = first_supermodularity_violation(g_fn)
    if bad is not None:
        raise ValueError(f"extend_marginal input not supermodular: violated at {bad}")
    return SetFunction.from_callable(ground, lambda m: g_fn.at(_restrict_mask(ground, small, m)))


def extend_zero_slice(f1: SetFunction, new_label: str) -> SetFunction:
    """Extend by one variable: f(S) = f1(S \\ new) if new in S, else 0.

    Hypotheses: f1 supermodular, f1(∅) = 0, f1 nondecreasing (these make the
    extension a standardized-style supermodular function when f1 is).
    """
    small = f1.ground
    if new_label in small._label_index:
        raise ValueError(f"label {new_label!r} already present")
    bad = first_supermodularity_violation(f1)
    if bad is not None:
        raise ValueError(f"extend_zero_slice input not supermodular: violated at {bad}")
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
        return Fraction(0)

    return SetFunction.from_callable(ground, fn)


def extend_modular_top(f0: SetFunction, new_label: str) -> SetFunction:
    """Extend by one variable with the |S| slice on top of a skeletal base.

    f(S) = f0(S) when new not in S, and |S \\ new| when new in S.  Hypotheses:
    f0 standardized, skeletal, and Δ_i f0(N' \\ i) = 1 for every i.
    """
    small = f0.ground
    if new_label in small._label_index:
        raise ValueError(f"label {new_label!r} already present")
    if not is_standardized(f0):
        raise ValueError("extend_modular_top needs a standardized base")
    if not is_skeletal(f0):
        raise ValueError("extend_modular_top needs a skeletal base")
    top = f0.at(small.full_mask)
    for i in range(small.n):
        drop = small.full_mask & ~(1 << i)
        if top - f0.at(drop) != 1:
            raise ValueError(
                f"extend_modular_top needs Δ_i f0(N'\\i) = 1; fails at {small.labels[i]!r}"
            )
    ground = _merged_ground(small.labels, [new_label])
    new_bit = 1 << ground._label_index[new_label]

    def fn(mask):
        rest = _restrict_mask(ground, small, mask & ~new_bit)
        if mask & new_bit:
            return Fraction(popcount(rest))
        return f0.at(rest)

    return SetFunction.from_callable(ground, fn)


def duplicate_coordinate(f_prime: SetFunction, new_label: str) -> SetFunction:
    """Duplicate the last variable t of f': the new variable w behaves so
    that f agrees with f'(..., 1) only when both t and w are present, and
    with f'(..., 0) otherwise."""
    small = f_prime.ground
    if new_label in small._label_index:
        raise ValueError(f"label {new_label!r} already present")
    bad = first_supermodularity_violation(f_prime)
    if bad is not None:
        raise ValueError(f"duplicate_coordinate input not supermodular: violated at {bad}")
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


def product(g_fn: SetFunction, h_fn: SetFunction) -> SetFunction:
    """f(S) = g(A ∩ S) · h(B ∩ S) on N = A ∪ B (disjoint labels).

    Hypotheses: g, h standardized supermodular on their own ground sets.
    """
    ga, gb = g_fn.ground, h_fn.ground
    if set(ga.labels) & set(gb.labels):
        raise ValueError("product needs disjoint label sets")
    for name, fn in (("left", g_fn), ("right", h_fn)):
        bad = first_supermodularity_violation(fn)
        if bad is not None:
            raise ValueError(f"product {name} factor not supermodular: violated at {bad}")
        if not is_standardized(fn):
            raise ValueError(f"product {name} factor must be standardized")
    ground = _merged_ground(ga.labels, gb.labels)
    return SetFunction.from_callable(
        ground,
        lambda m: g_fn.at(_restrict_mask(ground, ga, m)) * h_fn.at(_restrict_mask(ground, gb, m)),
    )


def four_generator_witness(g: GroundSet) -> SetFunction:
    """The four-variable extreme ray with value 4 at N, 2 on all triples,
    1 on all pairs except {a, b}, and 0 elsewhere.

    Its inner product with an elementary imset vanishes exactly on the four
    generators u_<a|b|0>, u_<a|b|c>, u_<a|b|d>, u_<c|d|ab>, which makes it
    the separating witness for the face spanned by those generators."""
    if g.n != 4:
        raise ValueError("four_generator_witness is a four-variable function")
    ab = 0b0011

    def fn(mask):
        c = popcount(mask)
        if c == 4:
            return 4
        if c == 3:
            return 2
        if c == 2:
            return 0 if mask == ab else 1
        return 0

    return SetFunction.from_callable(g, fn)


# ---------------------------------------------------------------------------
# product-cone extreme-ray check (tensor products of cones)
# ---------------------------------------------------------------------------


def _normalize_ray(vec):
    """Divide a nonzero integer vector by the gcd of its entries; the sign
    is kept, so rays keep their cone-feasible orientation."""
    g = gcd(*vec)
    return tuple(x // g for x in vec)


def dual_rays(generators):
    """Extreme rays of {y : <g, y> >= 0 for all g in generators}.

    Requires cone(generators) full-dimensional (so the dual is pointed).
    Brute force over (dim-1)-subsets of the constraints; fine at the small
    dimensions used here.
    """
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


def product_cone_extreme_check(G, H, g, h) -> bool:
    """Is g⊗h extreme in M(G, H) = {f >= 0 : every row-section in cone(H),
    every column-section in cone(G)}?

    G, H are generator lists of pointed, full-dimensional cones of
    nonnegative functions on finite sets X, Y (vectors of rationals).  The
    test builds the explicit inequality description of M(G, H) through the
    dual rays of the factors and applies the tight-constraint rank
    criterion.
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
    VG = dual_rays(G)
    VH = dual_rays(H)

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
