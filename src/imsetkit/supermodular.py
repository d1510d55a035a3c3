"""Set functions on P(N): supermodularity, skeletal tests, and constructors.

A set function f is supermodular iff <f, u> >= 0 for every elementary imset
u (checking all |E(N)| of them is enough).  Subtracting the modular function
f_L(S) = f(0) + Σ_{e in S} (f(e) - f(0)) standardizes f to f̄ vanishing on
all S with |S| <= 1; for supermodular f the standardization is nonnegative
and nondecreasing.

A supermodular f is skeletal when its standardization spans an extreme ray
of the cone of standardized supermodular functions.  The test is the
tight-constraint rank criterion: collect the elementary imsets u with
<f, u> = 0, project them to the coordinates of subsets with |S| >= 2
(a space of dimension 2^n - n - 1), and ask for rank exactly one less than
that dimension.  The test needs no standardization: <f̄, u> = <f, u> for
every elementary u, and f̄ = 0 exactly when every elementary imset is tight
(the modular functions are the orthogonal complement of span E(N)).  The
zero function is not skeletal.

The skeletal constructors check their hypotheses, then map values over one
pullback: a base f on labels A read as f(S ∩ A) for every S ⊆ N, in N's
graded order.  reflect reverses the values: complementation reverses it.

extreme_rays lists the extreme rays of a pointed cone given by integer
rows, by exact double description.  On the rows of the elementary columns
(over the subsets with |S| >= 2) it gives the skeleton, the extreme rays of
the standardized supermodular cone: 5 at n = 3 and 37 at n = 4.  Each
ray's tight set is a facet of cone(E(N)), so at n <= 4 the skeleton
decides cone membership and the least faces without an LP: it is the
separating table of membership (_separating_table), which
membership.classify and faces.certify_face read; it is built on first
use and cached per n, never at import.

SetFunction itself lives in imsets (an Imset is its integer-valued
subclass) and is re-exported here.  Exactness: the exact tests
(is_skeletal, skeletal_report, modular_coefficients) accept ints and
Fractions and reject floats, which the CI machinery stores in the same
container for entropy-like quantities; tolerance-based checks accept all
three.  The superset and subset indicators 1_{T⊆·}, 1_{·⊆T} are defined
here once, for indicator_superset, the membership cut table and
faces.orthogonal_set.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .groundset import ElementaryIndex, GroundSet, Subset, per_n, popcount
from .imsets import SetFunction, column_value, elementary_columns
from .linalg import InvariantError, _eliminate, _integer_row, nullspace, rank


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
    return f.at(0) == 0 and all(f.at(1 << i) == 0 for i in range(f.ground.n))


@per_n
def _standard_rows(g: GroundSet) -> tuple:
    """Each elementary column as a row over the 2^n - n - 1 coordinates of
    the subsets with |S| >= 2, in elementary order; <f, w> for elementary w
    is that row times f's values at those subsets when f is standardized.
    The graded order puts the n + 1 subsets with |S| <= 1 first."""
    rows = []
    for abc, c, ac, bc in elementary_columns(g):
        vec = [0] * g.num_subsets
        vec[abc] = vec[c] = 1
        vec[ac] = vec[bc] = -1
        rows.append(tuple(vec[g.n + 1:]))
    return tuple(rows)


def skeletal_report(f: SetFunction) -> dict:
    """is_skeletal with its tight-set evidence (counts and ranks)."""
    if not f.is_exact:
        raise TypeError("the skeletal test requires exact rational values")
    _require_supermodular(f)
    g = f.ground
    dim = g.num_subsets - g.n - 1
    tight = [
        row for row, col in zip(_standard_rows(g), elementary_columns(g))
        if column_value(f.values, col) == 0
    ]
    if len(tight) == g.num_elementary:
        return {"skeletal": False, "tight_count": len(tight), "tight_rank": None, "dimension": dim}
    tight_rank = rank(tight)
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
    return _superset_indicator(A.ground, A.mask)


def _superset_indicator(g: GroundSet, mask: int) -> SetFunction:
    """1_{T⊆·} for T = mask."""
    return SetFunction(g, tuple(1 if m & mask == mask else 0 for m in g.masks_graded))


def _subset_indicator(g: GroundSet, mask: int) -> SetFunction:
    """1_{·⊆T} for T = mask."""
    return SetFunction(g, tuple(1 if m & ~mask == 0 else 0 for m in g.masks_graded))


def reflect(f: SetFunction) -> SetFunction:
    """g(S) = f(N \\ S); maps supermodular to supermodular, skeletal to
    skeletal, and is an involution."""
    _require_supermodular(f, "reflect input")
    # complementation reverses the graded set order
    return SetFunction(f.ground, f.values[::-1])


def _require_supermodular(f: SetFunction, what: str = "") -> None:
    """ValueError "<what> not supermodular: violated at <t>" unless f is."""
    bad = first_supermodularity_violation(f)
    if bad is not None:
        raise ValueError(f"{what} not supermodular: violated at {bad}".lstrip())


def _pullback(f: SetFunction, ground: GroundSet) -> tuple:
    """f(S ∩ A) for every S ⊆ N in N's graded order, where A (f's labels)
    is a subset of N (ground's labels)."""
    index = f.ground._label_index
    meet = [0]  # meet[S] = the mask of S ∩ A over A, S a mask over N
    for lab in ground.labels:
        bit = 1 << index[lab] if lab in index else 0
        meet += [m | bit for m in meet]
    return tuple(f.at(meet[m]) for m in ground.masks_graded)


def extend_marginal(g_fn: SetFunction, ground: GroundSet) -> SetFunction:
    """f(S) = g(S ∩ A) on a larger ground set whose labels include A's."""
    small = g_fn.ground
    if any(lab not in ground._label_index for lab in small.labels):
        raise ValueError("target ground set must contain the source labels")
    _require_supermodular(g_fn, "extend_marginal input")
    return SetFunction(ground, _pullback(g_fn, ground))


def extend_zero_slice(f1: SetFunction, new_label: str) -> SetFunction:
    """Extend by one variable: f(S) = f1(S \\ new) if new in S, else 0.

    Hypotheses: f1 supermodular, f1(∅) = 0, f1 nondecreasing (these make the
    extension a standardized-style supermodular function when f1 is).
    """
    small = f1.ground
    if new_label in small._label_index:
        raise ValueError(f"label {new_label!r} already present")
    _require_supermodular(f1, "extend_zero_slice input")
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
    ground = GroundSet(sorted((*small.labels, new_label)))
    new_bit = 1 << ground._label_index[new_label]
    pull = zip(ground.masks_graded, _pullback(f1, ground))
    return SetFunction(ground, tuple(v if m & new_bit else 0 for m, v in pull))


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
    ground = GroundSet(sorted((*small.labels, new_label)))
    new_bit = 1 << ground._label_index[new_label]
    pull = zip(ground.masks_graded, _pullback(f0, ground))
    return SetFunction(ground, tuple(popcount(m) - 1 if m & new_bit else v for m, v in pull))


def duplicate_coordinate(f_prime: SetFunction, new_label: str) -> SetFunction:
    """Duplicate the last variable t of f': the new variable w behaves so
    that f agrees with f'(..., 1) only when both t and w are present, and
    with f'(..., 0) otherwise.

    Hypotheses: f' standardized supermodular, hence nondecreasing in t,
    which keeps f supermodular (f(∅) = 1 and 0 elsewhere at n = 3 is
    supermodular, and its duplicate is not).
    """
    small = f_prime.ground
    if new_label in small._label_index:
        raise ValueError(f"label {new_label!r} already present")
    _require_supermodular(f_prime, "duplicate_coordinate input")
    if not is_standardized(f_prime):
        raise ValueError("duplicate_coordinate input must be standardized")
    ground = GroundSet(sorted((*small.labels, new_label)))
    new_bit = 1 << ground._label_index[new_label]
    t_bit = 1 << ground._label_index[small.labels[-1]]
    pull = _pullback(f_prime, ground)
    return SetFunction(ground, tuple(
        pull[ground.subset_rank(m & ~t_bit)] if m & (t_bit | new_bit) == t_bit else v
        for m, v in zip(ground.masks_graded, pull)
    ))


def product(g_fn: SetFunction, h_fn: SetFunction) -> SetFunction:
    """f(S) = g(A ∩ S) · h(B ∩ S) on N = A ∪ B (disjoint labels).

    Hypotheses: g, h standardized supermodular on their own ground sets.
    """
    ga, gb = g_fn.ground, h_fn.ground
    if set(ga.labels) & set(gb.labels):
        raise ValueError("product needs disjoint label sets")
    for name, fn in (("left", g_fn), ("right", h_fn)):
        _require_supermodular(fn, f"product {name} factor")
        if not is_standardized(fn):
            raise ValueError(f"product {name} factor must be standardized")
    ground = GroundSet(sorted(ga.labels + gb.labels))
    pairs = zip(_pullback(g_fn, ground), _pullback(h_fn, ground))
    return SetFunction(ground, tuple(x * y for x, y in pairs))


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
# extreme rays by double description, and the skeleton at n <= 4
# ---------------------------------------------------------------------------


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _primitive(x) -> tuple:
    """A nonzero integer vector divided by the gcd of its entries; the sign
    is kept, so a ray keeps its orientation."""
    g = gcd(*x)
    return tuple(v // g for v in x)


def extreme_rays(rows) -> list:
    """Extreme rays of the pointed cone {x : <r, x> >= 0 for every row r},
    each as a primitive integer vector, sorted.  Rational rows are scaled
    to integer rows first, which leaves the cone as it is.

    Incremental double description on integer rows (Motzkin et al. 1953;
    Fukuda & Prodon 1996).  The first d independent rows, d the length of a
    row, bound a simplicial cone whose rays are the columns of their
    inverse.  The other rows are added one at a time: the rays positive on
    the new row stay, the rays zero on it stay, the negative ones go, and
    each adjacent (positive, negative) pair gives one new ray on the new
    hyperplane.  A ray's zero set is a bitmask over the rows added so far;
    two rays are adjacent when their common zero set has at least d - 2
    rows and no third ray's zero set contains it (the combinatorial test).
    Raises ValueError unless the rows have rank d (a pointed cone).
    """
    rows = [tuple(_integer_row(r)[0]) for r in rows]
    if not rows:
        raise ValueError("extreme_rays needs at least one row")
    d = len(rows[0])
    # the pivot columns of the transpose: the first d independent rows
    basis = _eliminate([list(col) for col in zip(*rows)], len(rows), jordan=False)
    if len(basis) != d:
        raise ValueError("extreme_rays needs rows of full rank (a pointed cone)")
    # the nullspace of [B | -I] holds (x, D·e_i) with B x = D·e_i, one per i
    augmented = [list(rows[i]) + [-int(k == j) for k in range(d)] for j, i in enumerate(basis)]
    inverse = nullspace(augmented, 2 * d)
    everyone = sum(1 << i for i in basis)
    rays = []
    for i, vec in zip(basis, inverse):
        x = vec[:d] if _dot(rows[i], vec[:d]) > 0 else [-v for v in vec[:d]]
        rays.append((_primitive(x), everyone & ~(1 << i)))
    for j in sorted(set(range(len(rows))) - set(basis)):
        row, bit = rows[j], 1 << j
        pos, neg, kept = [], [], []
        for x, z in rays:
            v = _dot(row, x)
            if v > 0:
                pos.append((x, z, v))
                kept.append((x, z))
            elif v < 0:
                neg.append((x, z, v))
            else:
                kept.append((x, z | bit))
        for xp, zp, vp in pos:
            for xn, zn, vn in neg:
                common = zp & zn
                if popcount(common) < d - 2 or any(
                    z & common == common and z != zp and z != zn for _, z in rays
                ):
                    continue
                # vp > 0 > vn: a positive combination that vanishes on row j
                kept.append((_primitive([vp * b - vn * a for a, b in zip(xp, xn)]), common | bit))
        rays = kept
    return sorted(x for x, _ in rays)


SKELETON_MAX_N = 4


@per_n
def _skeleton(g: GroundSet) -> tuple:
    """((f, ranks), ...) per extreme ray of the standardized supermodular
    cone, n <= 4: f the ray's rank-indexed values, 0 on |S| <= 1, and ranks
    the elementary columns w with <f, w> > 0, whose complement is the facet
    of cone(E(N)) that f supports.

    Built on first use from extreme_rays on _standard_rows and cached per
    n.  Each ray is checked once, in integers, to be >= 0 on every
    elementary column; a failure raises InvariantError.
    """
    if g.n > SKELETON_MAX_N:
        raise ValueError(f"the skeleton is listed for n <= {SKELETON_MAX_N}, got n={g.n}")
    if g.n < 2:
        return ()
    out = []
    for x in extreme_rays(_standard_rows(g)):
        f = (0,) * (g.n + 1) + x
        on = [column_value(f, col) for col in elementary_columns(g)]
        if min(on) < 0:
            raise InvariantError("a skeleton ray is negative on an elementary column")
        out.append((f, tuple(k for k, v in enumerate(on) if v)))
    return tuple(out)


def skeleton(g: GroundSet) -> list:
    """The extreme rays of the standardized supermodular cone over g, n <= 4,
    one primitive integer SetFunction per ray: 1 at n = 2, 5 at n = 3 and
    37 at n = 4.  Each ray's tight elementary imsets span a facet of
    cone(E(N)), and every face of cone(E(N)) is an intersection of those
    facets.  Raises ValueError for n > 4."""
    return [SetFunction(g, f) for f, _ in _skeleton(g)]


# ---------------------------------------------------------------------------
# product-cone extreme-ray check (tensor products of cones)
# ---------------------------------------------------------------------------


def product_cone_extreme_check(G, H, g, h) -> bool:
    """Is g⊗h extreme in M(G, H) = {f >= 0 : every row-section in cone(H),
    every column-section in cone(G)}?

    G, H are generator lists of pointed, full-dimensional cones of
    nonnegative functions on finite sets X, Y (vectors of rationals).  The
    test builds the explicit inequality description of M(G, H) through the
    dual rays of the factors (extreme_rays) and applies the tight-constraint
    rank criterion.
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
