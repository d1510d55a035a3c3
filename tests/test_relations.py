import random
from functools import cache
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imsetkit.faces import subconfiguration
from imsetkit.groundset import (
    ElementaryIndex,
    GroundSet,
    Triplet,
    bit_indices,
    enumerate_elementary,
    enumerate_triplets,
)
from imsetkit.imsets import configuration, elementary_combination
from imsetkit.markov import (
    _column_keys,
    _connecting_differences,
    _extend_index,
    _fiber_components,
    _fiber_members,
    _packed_lanes,
    _representatives,
)
from imsetkit import relations
from imsetkit.relations import (
    MAX_RELATION_SIDES,
    MEMORY_BUDGET_BYTES,
    BudgetError,
    Move,
    _basic_move_table,
    _byte_keys,
    _cyclic_moves,
    _least_images,
    _lex_codes,
    _normalize_orientation,
    _pivot_table,
    _rank_map_array,
    _stabiliser,
    _subset_images,
    basic_moves,
    classify_relation,
    enumerate_small_relations,
    reduce_to_basis,
    symmetry_reduce,
)


def move_from_sides(g, lhs, rhs):
    coeffs = [0] * g.num_elementary
    for s, c in lhs:
        coeffs[ElementaryIndex.from_triplet(Triplet.parse(g, s)).rank] += c
    for s, c in rhs:
        coeffs[ElementaryIndex.from_triplet(Triplet.parse(g, s)).rank] -= c
    return Move(g, tuple(coeffs))


def cyclic_move(g):
    # u_<a|b|c> + u_<a|c|d> + u_<a|d|b> = u_<a|c|b> + u_<a|d|c> + u_<a|b|d>
    return move_from_sides(
        g,
        [("a|b|c", 1), ("a|c|d", 1), ("a|d|b", 1)],
        [("a|c|b", 1), ("a|d|c", 1), ("a|b|d", 1)],
    )


def resum(g, combo):
    vec = [0] * g.num_elementary
    for m, c in combo:
        for j, mc in enumerate(m.coeffs):
            vec[j] += c * mc
    return tuple(vec)


def test_move_validation():
    g = GroundSet(3)
    coeffs = [0] * g.num_elementary
    coeffs[0] = 1  # a single elementary imset is not a kernel vector
    with pytest.raises(ValueError):
        Move(g, tuple(coeffs))
    with pytest.raises(ValueError):
        Move(g, (0,) * 5)  # wrong length
    zero = Move(g, (0,) * g.num_elementary)
    assert zero.is_zero and zero.degree == 0


def test_basic_moves_counts_and_kernel():
    for n, expected in ((3, 6), (4, 48), (5, 240)):
        g = GroundSet(n)
        moves = basic_moves(g)
        assert len(moves) == expected
        assert expected == n * (n - 1) * (n - 2) * 2 ** (n - 3)
    with pytest.raises(ValueError):
        basic_moves(GroundSet(2))
    # negations come in pairs
    g = GroundSet(4)
    vecs = {m.coeffs for m in basic_moves(g)}
    assert all(tuple(-c for c in v) in vecs for v in vecs)


def test_basic_moves_returns_a_fresh_list():
    first = basic_moves(GroundSet(4))
    want = list(first)
    first.clear()
    assert basic_moves(GroundSet(4)) == want


@st.composite
def coefficient_vectors(draw):
    """(ground set, coefficients) at n = 3..6: a random combination of basic
    moves (a kernel vector), plus optional sum-preserving perturbations
    +d at one column and -d at another (usually not a kernel vector)."""
    g = GroundSet(draw(st.integers(3, 6)))
    basics = basic_moves(g)
    ne = g.num_elementary
    coeffs = [0] * ne
    for i, c in draw(st.lists(st.tuples(st.integers(0, len(basics) - 1), st.integers(-4, 4)), max_size=4)):
        for j, v in enumerate(basics[i].coeffs):
            coeffs[j] += c * v
    for j, k, d in draw(st.lists(st.tuples(st.integers(0, ne - 1), st.integers(0, ne - 1), st.integers(-3, 3)), max_size=2)):
        coeffs[j] += d
        coeffs[k] -= d
    return g, tuple(coeffs)


@settings(max_examples=150, deadline=None)
@given(coefficient_vectors())
def test_sparse_kernel_check_matches_dense_product(case):
    # the dense configuration product is the oracle for the sparse one
    g, coeffs = case
    dense = [sum(v * c for v, c in zip(row, coeffs)) for row in configuration(g).matrix]
    assert elementary_combination(g, coeffs) == dense
    try:
        Move(g, coeffs)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (not any(dense))


def test_kernel_dimension():
    # moves span the full kernel of the configuration
    from imsetkit.linalg import rank

    for n in (3, 4):
        g = GroundSet(n)
        kernel_dim = g.num_elementary - rank(configuration(g).matrix)
        span = rank([m.coeffs for m in basic_moves(g)])
        assert span == kernel_dim
        assert kernel_dim == {3: 2, 4: 13}[n]


def test_reduce_basic_move_and_zero():
    g = GroundSet(4)
    # a move aligned with the elimination prescription comes back as itself
    aligned = move_from_sides(g, [("a|b|0", 1), ("a|d|b", 1)], [("a|d|0", 1), ("a|b|d", 1)])
    combo = reduce_to_basis(aligned)
    assert len(combo) == 1
    assert combo[0][0] == aligned and combo[0][1] == 1
    # every basic move re-sums exactly, aligned or not
    for m in basic_moves(g):
        assert resum(g, reduce_to_basis(m)) == m.coeffs
    zero = Move(g, (0,) * g.num_elementary)
    assert reduce_to_basis(zero) == []


def test_reduce_three_by_three():
    g = GroundSet(4)
    z = cyclic_move(g)
    combo = reduce_to_basis(z)
    assert resum(g, combo) == z.coeffs
    assert all(abs(c) >= 1 for _, c in combo)


def test_reduce_random_kernel_vectors():
    rng = random.Random(2024)
    g = GroundSet(4)
    moves = basic_moves(g)
    for _ in range(150):
        vec = [0] * g.num_elementary
        for _ in range(rng.randint(1, 6)):
            m = moves[rng.randrange(len(moves))]
            c = rng.randint(-5, 5)
            for j, mc in enumerate(m.coeffs):
                vec[j] += c * mc
        z = Move(g, tuple(vec))
        combo = reduce_to_basis(z)
        assert resum(g, combo) == z.coeffs
        # every summand is a basic move
        basis_vecs = {m.coeffs for m in moves}
        assert all(m.coeffs in basis_vecs for m, _ in combo)


def oracle_reduce_to_basis(z):
    """The rescanning elimination the one-sweep reduce_to_basis replaced,
    kept as its reference: find the least nonzero rank from rank 0 on every
    step, with guards on the leading rank and the step count."""
    g = z.ground
    pivots = _pivot_table(g)
    vec = list(z.coeffs)
    out = []
    guard = 0
    last_lead = -1
    while True:
        lead = next((j for j, c in enumerate(vec) if c != 0), None)
        if lead is None:
            return out
        if lead <= last_lead:
            raise RuntimeError("leading index failed to increase")
        last_lead = lead
        guard += 1
        if guard > g.num_elementary:
            raise RuntimeError("reduction did not terminate")
        pivot = pivots[lead]
        if pivot is None:
            raise RuntimeError(f"irreducible leading term at rank {lead}")
        move, support = pivot
        c = vec[lead]
        for j, mc in support:
            vec[j] -= c * mc
        out.append((move, c))



def oracle_pivot_table(g):
    """The pivot picks as made before the pivot moves were built from their
    four ranks: read off the dense table of every basic move."""
    moves = _basic_move_table(g)
    out = []
    for a, b, c_mask in g.elementary_triples:
        alpha, beta = bit_indices(g.full_mask & ~c_mask)[-2:]
        if b < beta:
            move = moves[(a, b, beta, c_mask)]
        elif a < alpha:
            move = moves[(b, a, alpha, c_mask)]
        else:
            out.append(None)
            continue
        out.append((move, tuple((j, mc) for j, mc in enumerate(move.coeffs) if mc)))
    return tuple(out)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_pivot_moves_equal_the_basic_table_picks(n):
    g = GroundSet(n)
    assert _pivot_table(g) == oracle_pivot_table(g)


def test_move_tables_are_budgeted_from_n_before_they_are_built(monkeypatch):
    def no_move(*args):
        raise AssertionError("built a move before the budget check")

    monkeypatch.setattr(relations, "_basic_move", no_move)
    # basic moves: n(n-1)(n-2)·2^(n-3) of |E(N)| entries, 1134 MiB at n = 9
    assert 504 * 2**6 * GroundSet(9).num_elementary * 8 <= MEMORY_BUDGET_BYTES
    with pytest.raises(BudgetError, match="n=10: 92,160 basic moves need about 8100 MiB"):
        _basic_move_table(GroundSet(10))
    # pivot moves: |E(N)| of them, 1012 MiB at n = 10
    assert GroundSet(10).num_elementary ** 2 * 8 <= MEMORY_BUDGET_BYTES
    for n in (11, 12):
        with pytest.raises(BudgetError, match=f"n={n}: .* pivot moves need about"):
            _pivot_table(GroundSet(n))
        with pytest.raises(BudgetError):
            reduce_to_basis(Move(GroundSet(n), (0,) * GroundSet(n).num_elementary))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_reduce_to_basis_matches_rescanning_oracle(n):
    g = GroundSet(n)
    basics = basic_moves(g)
    moves = basics + [Move(g, coeffs) for coeffs in _cyclic_moves(g).values()]
    rng = random.Random(n)
    for _ in range(60):
        vec = [0] * g.num_elementary
        for _ in range(rng.randint(1, 8)):
            c = rng.randint(-5, 5)
            for j, mc in enumerate(rng.choice(basics).coeffs):
                vec[j] += c * mc
        moves.append(Move(g, tuple(vec)))
    for z in moves:
        assert reduce_to_basis(z) == oracle_reduce_to_basis(z)


def test_classify_examples():
    g = GroundSet(4)
    assert classify_relation(basic_moves(g)[3]).classification == "two-by-two-semigraphoid"
    doubled = Move(g, tuple(2 * c for c in basic_moves(g)[3].coeffs))
    form = classify_relation(doubled)
    assert form.classification == "two-by-two-semigraphoid"
    assert (form.k, form.m, form.degree) == (2, 2, 4)

    z = cyclic_move(g)
    form = classify_relation(z)
    assert form.classification == "three-by-three-cyclic"
    assert (form.k, form.m, form.degree) == (3, 3, 3)

    g3 = GroundSet(3)
    deg4 = move_from_sides(
        g3,
        [("a|c|0", 2), ("a|b|c", 1), ("b|c|a", 1)],
        [("a|b|0", 1), ("b|c|0", 1), ("a|c|b", 2)],
    )
    form = classify_relation(deg4)
    assert form.classification == "contains-2x2"
    assert (form.k, form.m, form.degree) == (3, 3, 4)

    with pytest.raises(ValueError):
        classify_relation(Move(g3, (0,) * g3.num_elementary))


# classify_relation before the set lookups, kept verbatim as the oracle:
# it scans every basic and cyclic move for a positive multiple of z.
def _is_positive_multiple(vec: tuple, base: tuple) -> bool:
    ratio = None
    for v, b in zip(vec, base):
        if b == 0:
            if v != 0:
                return False
            continue
        if v == 0 or v % b != 0:
            return False
        q = v // b
        if q <= 0 or (ratio is not None and q != ratio):
            return False
        ratio = q
    return ratio is not None


def _oracle_classification(z: Move) -> str:
    g = z.ground
    z = _normalize_orientation(z)
    pos = frozenset(j for j, c in enumerate(z.coeffs) if c > 0)
    neg = frozenset(j for j, c in enumerate(z.coeffs) if c < 0)

    basics = basic_moves(g)
    classification = None
    for bm in basics:
        if _is_positive_multiple(z.coeffs, bm.coeffs):
            classification = "two-by-two-semigraphoid"
            break
    if classification is None:
        for cyc in _cyclic_moves(g).values():
            if _is_positive_multiple(z.coeffs, cyc):
                classification = "three-by-three-cyclic"
                break
    if classification is None:
        for bm in basics:
            side = frozenset(j for j, c in enumerate(bm.coeffs) if c > 0)
            if side <= pos or side <= neg:
                classification = "contains-2x2"
                break
    if classification is None:
        classification = "other"
    return classification


def _random_moves(rng, g, count):
    """Seeded nonzero kernel moves: positive or negative multiples of one
    basic or cyclic vector, and sums of up to three of them with
    coefficients in -3..3."""
    vectors = [m.coeffs for m in basic_moves(g)] + list(_cyclic_moves(g).values())
    out = []
    while len(out) < count:
        coeffs = [0] * g.num_elementary
        for _ in range(rng.choice((1, 1, 2, 3))):
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            for j, v in enumerate(rng.choice(vectors)):
                coeffs[j] += c * v
        if any(coeffs):
            out.append(Move(g, tuple(coeffs)))
    return out


def test_classify_relation_matches_scan_oracle():
    g = GroundSet(4)
    forms = enumerate_small_relations(g, 3, 3, 6) + enumerate_small_relations(g, 2, 6, 6)
    assert len(forms) == 1088
    moves = [f.move for f in forms]
    rng = random.Random(8)
    for n in (3, 4, 5):
        moves += _random_moves(rng, GroundSet(n), 400)
    seen = set()
    for z in moves:
        form = classify_relation(z)
        assert form.classification == _oracle_classification(z), z.to_json()
        assert form.move == _normalize_orientation(z)
        seen.add(form.classification)
    assert seen == {"two-by-two-semigraphoid", "three-by-three-cyclic", "contains-2x2", "other"}


def test_relations_budget_counts_every_candidate_side(monkeypatch):
    # n=3 has 6 columns and 9 coefficient pairs over 1..3 with sum <= 6,
    # so C(6, 2) * 9 = 135 sides: a budget of 135 runs, 134 refuses
    import imsetkit.relations as rel

    g = GroundSet(3)
    monkeypatch.setattr(rel, "MAX_RELATION_SIDES", 135)
    assert len(enumerate_small_relations(g, 2, 3, 6)) == 9
    monkeypatch.setattr(rel, "MAX_RELATION_SIDES", 134)
    with pytest.raises(BudgetError, match="at least 135 candidate sides"):
        enumerate_small_relations(g, 2, 3, 6)
    # the n=4 command defaults and criterion 10 (36892 sides) stay inside
    assert 36892 <= MAX_RELATION_SIDES


def test_classification_normalizes_orientation():
    g = GroundSet(4)
    z = cyclic_move(g)
    f1 = classify_relation(z)
    f2 = classify_relation(-z)
    assert f1.move.coeffs == f2.move.coeffs
    assert f1.k <= f1.m


def test_enumerate_small_relations_n3():
    g = GroundSet(3)
    forms = enumerate_small_relations(g, 2, 3, 6)
    # three unordered 2x2 vectors, multiples 1..3
    assert len(forms) == 9
    assert all(f.classification == "two-by-two-semigraphoid" for f in forms)
    assert all((f.k, f.m) == (2, 2) for f in forms)
    # every relation is a multiple of one of the three unordered 2x2 vectors
    vecs = {m.coeffs for m in basic_moves(g)}
    for f in forms:
        c = max(f.move.coeffs)
        base = tuple(v // c for v in f.move.coeffs)
        assert base in vecs and all(v % c == 0 for v in f.move.coeffs)


def test_enumerate_small_relations_n4_sample():
    g = GroundSet(4)
    forms = enumerate_small_relations(g, 2, 2, 4)
    assert forms and all(f.classification == "two-by-two-semigraphoid" for f in forms)
    # degree-2 relations are exactly the unordered basic moves
    deg2 = [f for f in forms if f.degree == 2]
    assert len(deg2) == 24


def test_symmetry_reduce():
    g = GroundSet(4)
    reps = symmetry_reduce(basic_moves(g))
    assert len(reps) == 2
    reps3 = symmetry_reduce(basic_moves(GroundSet(3)))
    assert len(reps3) == 1
    # two moves equivalent under relabeling a<->b, c<->d collapse
    m1 = move_from_sides(g, [("a|b|d", 1), ("a|c|bd", 1)], [("a|c|d", 1), ("a|b|cd", 1)])
    m2 = move_from_sides(g, [("a|b|c", 1), ("b|d|ac", 1)], [("b|d|c", 1), ("a|b|cd", 1)])
    assert len(symmetry_reduce([m1, m2])) == 1
    assert symmetry_reduce([]) == []
    single = symmetry_reduce([m1])
    assert len(single) == 1


# The per-move canonicalisation symmetry_reduce used before it built each
# orbit once, kept as the differential oracle: every move scans all acting
# rank maps, and the stabilizer test builds one frozenset per permutation.
def _orbit_canonical(coeffs: tuple, rank_maps) -> tuple:
    support = [(j, c) for j, c in enumerate(coeffs) if c]
    if not support:
        return tuple(coeffs)
    best = None
    for rm in rank_maps:
        # of an image and its negation, the lesser starts negative
        lead = min(support, key=lambda jc: rm[jc[0]])[1]
        sign = -1 if lead > 0 else 1
        img = [0] * len(coeffs)
        for j, c in support:
            img[rm[j]] = sign * c
        cand = tuple(img)
        if best is None or cand < best:
            best = cand
    return best


# the per-tuple loop the subset-image array replaced, kept as the oracle
@cache
def _label_permutation_rank_maps(g):
    """Elementary-rank permutation induced by every label permutation
    (perm[i] = image of label index i), in itertools.permutations order."""
    out = []
    for perm in permutations(range(g.n)):
        row = []
        for a, b, c_mask in g.elementary_triples:
            pc = 0
            for i in bit_indices(c_mask):
                pc |= 1 << perm[i]
            row.append(g.elementary_rank(perm[a], perm[b], pc))
        out.append(tuple(row))
    return tuple(out)


def _oracle_symmetry_reduce(moves, allowed_ranks=None):
    g = moves[0].ground
    rank_maps = _label_permutation_rank_maps(g)
    if allowed_ranks is not None:
        allowed = frozenset(allowed_ranks)
        rank_maps = [rm for rm in rank_maps if frozenset(rm[j] for j in allowed) == allowed]
    reps = {}
    for m in moves:
        canon = _orbit_canonical(m.coeffs, rank_maps)
        if canon not in reps:
            reps[canon] = Move(g, canon)
    return [reps[key] for key in sorted(reps)]


# The set-based symmetry_reduce that canonicalised orbits before the
# array canonicaliser, kept verbatim as the differential oracle: each orbit
# is built once, from its first move, into a seen set, and the acting maps
# are filtered with one issuperset test per label permutation.
def _set_symmetry_reduce(moves, allowed_ranks=None) -> list:
    moves = list(moves)
    if not moves:
        return []
    g = moves[0].ground
    if any(m.ground != g for m in moves):
        raise ValueError("moves over different ground sets")
    rank_maps = _label_permutation_rank_maps(g)
    if allowed_ranks is not None:
        allowed = frozenset(allowed_ranks)
        # a rank map is a bijection, so mapping the set into itself is onto
        rank_maps = [rm for rm in rank_maps if allowed.issuperset(map(rm.__getitem__, allowed))]
    # the acting maps form a group, so every move of an orbit builds the
    # same image set: build it once, from the orbit's first move
    seen = set()
    reps = []
    for m in moves:
        if m.coeffs in seen:
            continue
        support = [(j, c) for j, c in enumerate(m.coeffs) if c]
        orbit = set()
        for rm in rank_maps:
            img, neg = [0] * len(m.coeffs), [0] * len(m.coeffs)
            for j, c in support:
                img[rm[j]], neg[rm[j]] = c, -c
            orbit.add(tuple(img))
            orbit.add(tuple(neg))
        seen |= orbit
        # of an image and its negation, the lesser starts negative
        reps.append(Move(g, min(orbit)))
    reps.sort(key=lambda m: m.coeffs)
    return reps


def _seeded_moves(g, rng, count):
    # integer combinations of basic moves, with some label images and
    # negations of earlier moves so that orbits recur, and the zero move
    basis = basic_moves(g)
    rank_maps = _label_permutation_rank_maps(g)
    out = [Move(g, (0,) * g.num_elementary)]
    while len(out) < count:
        if len(out) > 1 and rng.random() < 0.3:
            m = rng.choice(out[1:])
            rm = rng.choice(rank_maps)
            img = [0] * g.num_elementary
            for j, c in enumerate(m.coeffs):
                img[rm[j]] = c
            out.append(Move(g, tuple(img)) if rng.random() < 0.5 else -Move(g, tuple(img)))
            continue
        vec = [0] * g.num_elementary
        for m in rng.sample(basis, rng.randint(1, 3)):
            c = rng.choice((-2, -1, 1, 2))
            for j, mc in enumerate(m.coeffs):
                vec[j] += c * mc
        out.append(Move(g, tuple(vec)))
    return out


@pytest.mark.parametrize("n", [4, 5])
def test_symmetry_reduce_matches_per_move_oracle(n):
    g = GroundSet(n)
    rng = random.Random(1900 + n)
    moves = _seeded_moves(g, rng, 60 if n == 4 else 30)
    triplets = [t for t in enumerate_triplets(g) if t.a_mask | t.b_mask | t.c_mask == g.full_mask]
    allowed_sets = [None] + [
        [e.rank for e in subconfiguration(t).columns] for t in rng.sample(triplets, 4)
    ]
    for allowed in allowed_sets:
        for _ in range(3):
            rng.shuffle(moves)
            got = symmetry_reduce(moves, allowed_ranks=allowed)
            assert got == _oracle_symmetry_reduce(moves, allowed_ranks=allowed), allowed


def _connecting_differences_of(cfg, cap):
    """The connecting differences of all degrees up to cap, as markov_basis
    finds them before it canonicalises."""
    cols_t = np.ascontiguousarray(np.array(cfg.matrix, dtype=np.int8).T)
    col_keys, lanes = _column_keys(cols_t), _packed_lanes(cols_t, cap)
    idx, keys = np.arange(cfg.num_cols, dtype=np.int16).reshape(1, -1), col_keys
    diffs = [np.zeros((0, cfg.num_cols), dtype=np.int64)]
    for _ in range(2, cap + 1):
        idx, keys = _extend_index(idx, keys, col_keys)
        members, starts = _fiber_members(keys.copy())
        rows, starts, labels = _fiber_components(np.take(idx, members, axis=1), starts, lanes)
        diffs.append(_connecting_differences(rows, starts, labels, cfg.num_cols))
    return np.concatenate(diffs)


def _connecting_difference_lists(cap):
    """Per exactly effective triplet with n <= 5: its column ranks and the
    connecting differences of all degrees up to cap."""
    for n in (3, 4, 5):
        g = GroundSet(n)
        for t in enumerate_triplets(g):
            if t.a_mask | t.b_mask | t.c_mask != g.full_mask:
                continue
            cfg = subconfiguration(t)
            yield t, [e.rank for e in cfg.columns], _connecting_differences_of(cfg, cap)


# The canonicaliser before it went orbit by orbit, kept as the oracle: a
# running minimum of every row's images over all acting maps, then the
# distinct least images.
def _oracle_least_images(z, ranks, maps):
    ranks = np.asarray(ranks)
    pos = np.zeros(maps.shape[1], dtype=np.intp)
    pos[ranks] = np.arange(len(ranks))
    gathers = np.argsort(pos[maps[:, ranks]], axis=1)
    codes, bound = _lex_codes(np.concatenate((z, -z)))
    best = _byte_keys(codes).copy()
    for gather in gathers:
        img = _byte_keys(codes[:, gather])
        np.copyto(best, img, where=img < best)
    m = len(z)
    least = np.where(best[m:] < best[:m], best[m:], best[:m])
    distinct = np.unique(least).view(codes.dtype).reshape(-1, len(ranks))
    return (distinct.astype(np.uint64) - np.uint64(bound)).astype(np.int64)


def _canonicaliser_inputs(g, ranks, diffs):
    """_least_images' arguments as markov_basis builds them."""
    by_rank = np.argsort(ranks)
    ranks = np.asarray(ranks)[by_rank]
    return diffs[:, by_rank], ranks, _stabiliser(g, ranks)


@pytest.mark.parametrize("orbit_codes", [1, 1 << 12, None])
def test_least_images_match_the_running_minimum_oracle(monkeypatch, orbit_codes):
    # None keeps the default step size; 1 takes one row a step and 2^12
    # lets the rows a step double over orbits of one row
    import imsetkit.relations as rel

    if orbit_codes is not None:
        monkeypatch.setattr(rel, "_ORBIT_CODES", orbit_codes)
    full = configuration(GroundSet(5))
    inputs = [
        _canonicaliser_inputs(t.ground, ranks, diffs)
        for t, ranks, diffs in _connecting_difference_lists(4)
    ]
    inputs.append(_canonicaliser_inputs(full.ground, [e.rank for e in full.columns], _connecting_differences_of(full, 4)))
    assert inputs[-1][0].shape == (430, 80)
    for z, ranks, maps in inputs:
        got = _least_images(z, ranks, maps)
        assert got.dtype == np.int64
        assert np.array_equal(got, _oracle_least_images(z, ranks, maps))


@pytest.mark.parametrize("orbit_codes", [1 << 12, None])
def test_least_images_when_every_row_is_its_own_orbit(monkeypatch, orbit_codes):
    import imsetkit.relations as rel

    if orbit_codes is not None:
        monkeypatch.setattr(rel, "_ORBIT_CODES", orbit_codes)
    g = GroundSet(5)
    ranks = np.arange(g.num_elementary)
    maps = _stabiliser(g, ranks)
    z = np.random.default_rng(3100).integers(-2, 3, size=(300, g.num_elementary))
    got = _least_images(z, ranks, maps)
    assert len(got) == 300
    assert np.array_equal(got, _oracle_least_images(z, ranks, maps))


def test_least_images_edge_cases():
    g = GroundSet(4)
    ranks = np.arange(g.num_elementary)
    maps = _stabiliser(g, ranks)
    assert _least_images(np.zeros((0, len(ranks)), dtype=np.int64), ranks, maps).shape == (0, len(ranks))
    move = np.array([basic_moves(g)[5].coeffs])
    one = _least_images(move, ranks, maps)
    assert np.array_equal(one, _oracle_least_images(move, ranks, maps)) and one.shape == (1, len(ranks))
    # every image of one row and of its negation: one orbit, one representative
    pos = np.argsort(maps, axis=1)
    orbit = np.concatenate((move[0][pos], -move[0][pos]))
    np.random.default_rng(3101).shuffle(orbit)
    assert np.array_equal(_least_images(orbit, ranks, maps), one)


def test_array_canonicaliser_matches_the_set_oracle_on_every_triplet():
    lists = 0
    for t, ranks, diffs in _connecting_difference_lists(4):
        g = t.ground
        moves = []
        for diff in diffs.tolist():
            coeffs = [0] * g.num_elementary
            for r, v in zip(ranks, diff):
                coeffs[r] = v
            moves.append(Move(g, tuple(coeffs)))
        want = _set_symmetry_reduce(moves, allowed_ranks=ranks)
        assert symmetry_reduce(moves, allowed_ranks=ranks) == want, str(t)
        # markov_basis orders the same representatives by degree
        want.sort(key=lambda m: m.degree)
        assert _representatives(g, ranks, diffs) == want, str(t)
        lists += bool(moves)
    assert lists > 50


def test_subset_images_remap_bit_by_bit():
    for n in range(1, 6):
        images = _subset_images(GroundSet(n))
        assert images is _subset_images(GroundSet("uvwxyz"[:n]))
        assert images.dtype == np.intp and not images.flags.writeable
        assert images.tolist() == [
            [sum(1 << perm[i] for i in bit_indices(mask)) for mask in range(1 << n)]
            for perm in permutations(range(n))
        ]


def test_rank_map_array_is_the_tuple_table_read_only_per_n():
    for n in range(2, 7):
        maps = _rank_map_array(GroundSet(n))
        assert maps is _rank_map_array(GroundSet("uvwxyz"[:n]))
        assert maps.dtype == np.intp and not maps.flags.writeable
        assert maps.tolist() == [list(rm) for rm in _label_permutation_rank_maps(GroundSet(n))]


def test_symmetry_reduce_agrees_with_the_set_oracle_on_large_coefficients():
    # entries beyond one byte take wider big-endian codes
    g = GroundSet(4)
    rng = random.Random(2501)
    basis = basic_moves(g)
    moves = []
    for scale in (1, 100, 40_000, 3 << 40):
        for _ in range(6):
            vec = [0] * g.num_elementary
            for m in rng.sample(basis, 3):
                c = rng.randint(-scale, scale)
                for j, mc in enumerate(m.coeffs):
                    vec[j] += c * mc
            moves.append(Move(g, tuple(vec)))
    assert symmetry_reduce(moves) == _set_symmetry_reduce(moves)


def test_move_json_round_trip():
    g = GroundSet(4)
    z = cyclic_move(g)
    data = z.to_json()
    assert data["lhs"] == {"a|b|c": 1, "a|c|d": 1, "a|d|b": 1}
    assert data["rhs"] == {"a|c|b": 1, "a|d|c": 1, "a|b|d": 1}
    assert Move.from_json(g, data) == z


@pytest.mark.parametrize(
    "data",
    [
        {"lhs": {"a|b|0": 1}, "rhs": {"b|a|0": 1}},
        {"lhs": {"a|b|0": 1, "b|a|0": 1}},
        {"lhs": {"a|b|0": 1}, "rhs": {"a|b|0": 2}},
    ],
)
def test_move_json_rejects_two_keys_for_one_elementary_imset(data):
    g = GroundSet(3)
    first, second = [name for side in ("lhs", "rhs") for name in data.get(side, {})]
    with pytest.raises(ValueError) as exc:
        Move.from_json(g, data)
    assert str(exc.value) == f"keys '{first}' and '{second}' name the same elementary imset"


def test_kernel_answers_do_not_depend_on_labels():
    # GroundSets of one size share their rank tables, so relabelling the
    # ground set must leave coefficients, relation forms and ranks unchanged.
    g, h = GroundSet("abcd"), GroundSet("wxyz")
    rng = random.Random(4713)
    basis = basic_moves(g)
    classes = set()
    for _ in range(40):
        vec = [0] * g.num_elementary
        for m in rng.sample(basis, rng.randint(1, 4)):
            c = rng.choice((-2, -1, 1, 2))
            for j, mc in enumerate(m.coeffs):
                vec[j] += c * mc
        if not any(vec):
            continue
        z_g, z_h = Move(g, tuple(vec)), Move(h, tuple(vec))
        terms_g = [(m.coeffs, c) for m, c in reduce_to_basis(z_g)]
        assert terms_g == [(m.coeffs, c) for m, c in reduce_to_basis(z_h)]
        assert resum(g, reduce_to_basis(z_g)) == z_g.coeffs
        f_g, f_h = classify_relation(z_g), classify_relation(z_h)
        assert (f_g.k, f_g.m, f_g.degree, f_g.classification, f_g.move.coeffs) == (
            f_h.k, f_h.m, f_h.degree, f_h.classification, f_h.move.coeffs
        )
        classes.add(f_g.classification)
    assert len(classes) >= 2
    rename = str.maketrans("abcd", "wxyz")
    for r, e in enumerate(enumerate_elementary(g)):
        t = Triplet.parse(h, str(e).translate(rename))
        assert ElementaryIndex.from_triplet(t).rank == e.rank == r
