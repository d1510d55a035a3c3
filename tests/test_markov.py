"""Tests for minimal Markov bases of configurations."""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import numpy as np
import pytest

from imsetkit.faces import subconfiguration
from imsetkit.groundset import MAX_GROUND_SIZE, GroundSet, Triplet, enumerate_triplets
from imsetkit.imsets import configuration
from imsetkit.linalg import InvariantError, rank
from imsetkit.markov import (
    _KEY_SEED,
    MEMORY_BUDGET_BYTES,
    check_degree_cap,
    MarkovBasisReport,
    _column_keys,
    _estimate_bytes,
    _is_full_configuration,
    _kernel_trivial,
    _label_table_bytes,
    _key_weights,
    _connecting_differences,
    _extend_index,
    _fiber_components,
    _fiber_members,
    _packed_lanes,
    markov_basis,
)
from imsetkit.relations import (
    BudgetError,
    Move,
    _normalize_orientation,
    basic_moves,
    reduce_to_basis,
    symmetry_reduce,
)


# The np.unique + per-fiber union-find pass that markov_basis used before
# the hashed array pass, kept verbatim (with the removed tie-break option
# fixed to "least") as the differential oracle, except that its multiset
# index comes from itertools and its report names the complete source.
class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def _oracle_connecting_moves_for_fiber(members, idx, num_cols):
    rows = [tuple(int(c) for c in idx[r]) for r in members]
    uf = _UnionFind(len(rows))
    first_with = {}
    for i, row in enumerate(rows):
        for c in set(row):
            if c in first_with:
                uf.union(first_with[c], i)
            else:
                first_with[c] = i
    comps = {}
    for i in range(len(rows)):
        comps.setdefault(uf.find(i), []).append(i)
    # components ordered by their least member (members ascend already)
    ordered = sorted(comps.values(), key=lambda comp: comp[0])
    out = []
    d = len(rows[0])
    connected = list(ordered[0])
    for comp in ordered[1:]:
        best = None
        for i in comp:
            for j in connected:
                diff = [0] * num_cols
                for c in rows[i]:
                    diff[c] += 1
                for c in rows[j]:
                    diff[c] -= 1
                cand = tuple(diff)
                if best is None:
                    best = cand
                else:
                    best = min(best, cand)
        if sum(v for v in best if v > 0) != d:
            raise InvariantError(f"connecting move has degree other than {d}")
        out.append(best)
        connected.extend(comp)
    return out


def _oracle_markov_basis(cfg, degree_cap):
    g = cfg.ground
    column_ranks = [e.rank for e in cfg.columns]
    full = _is_full_configuration(cfg)
    cols_np = np.array(cfg.matrix, dtype=np.int8)  # (num_rows, num_cols)
    num_rows, num_cols = cols_np.shape

    raw_by_degree = {}
    for d in range(2, degree_cap + 1):
        idx = np.array(list(combinations_with_replacement(range(num_cols), d)), dtype=np.int16)
        sums = cols_np[:, idx[:, 0]].astype(np.int8)
        for t in range(1, d):
            sums += cols_np[:, idx[:, t]]
        keys = np.ascontiguousarray(sums.T)
        _, inverse, counts = np.unique(
            keys, axis=0, return_inverse=True, return_counts=True
        )
        inverse = inverse.reshape(-1)
        order = np.argsort(inverse, kind="stable")
        boundaries = np.cumsum(counts)
        moves = []
        start = 0
        for fiber_id, stop in enumerate(boundaries):
            if counts[fiber_id] >= 2:
                members = order[start:stop]
                for diff in _oracle_connecting_moves_for_fiber(members, idx, num_cols):
                    coeffs = [0] * g.num_elementary
                    for c, v in enumerate(diff):
                        if v:
                            coeffs[column_ranks[c]] = v
                    moves.append(_normalize_orientation(Move(g, tuple(coeffs))))
            start = stop
        if moves:
            raw_by_degree[d] = moves

    allowed = None if full else column_ranks
    reps = []
    per_degree = {}
    for d, moves in sorted(raw_by_degree.items()):
        reduced = symmetry_reduce(moves, allowed_ranks=allowed)
        per_degree[d] = len(reduced)
        reps.extend(reduced)

    if full:
        complete = (g.n <= 2) or (g.n == 3 and degree_cap >= 2) or (
            g.n == 4 and degree_cap >= 4
        )
        source = "literature (n <= 4)" if complete else "unknown"
    else:
        source = "certified (trivial kernel)" if _kernel_trivial(cfg) else "unknown"
    return MarkovBasisReport(g, degree_cap, per_degree, tuple(reps), source)


def kernel_check(cfg, move):
    # exact: configuration · z = 0 and Σz = 0
    assert sum(move.coeffs) == 0
    ranks = [e.rank for e in cfg.columns]
    for row in cfg.matrix:
        assert sum(row[j] * move.coeffs[r] for j, r in enumerate(ranks)) == 0


def _index(num_cols, d, col_keys=None):
    """The column-major degree-d index over num_cols columns and its
    carried keys."""
    if col_keys is None:
        col_keys = np.zeros(num_cols, dtype=np.int64)
    idx, keys = np.arange(num_cols, dtype=np.int16).reshape(1, -1), col_keys
    for _ in range(1, d):
        idx, keys = _extend_index(idx, keys, col_keys)
    return idx, keys


def _fresh_passes(monkeypatch):
    """A new, empty pass memo for the rest of the test (the module's own
    memo is restored after it), and the list of the degrees of the indexes
    the degree loop extends from here on: a patched run that extends none
    read the memo, and compared a pass with itself."""
    import imsetkit.markov as mk

    extended = []
    extend = mk._extend_index

    def counting(prev, prev_keys, col_keys):
        extended.append(prev.shape[0] + 1)
        return extend(prev, prev_keys, col_keys)

    monkeypatch.setattr(mk, "_extend_index", counting)
    monkeypatch.setattr(mk, "_passes", mk._PassMemo())
    return extended


def _components(idx, keys, lanes):
    """(rows, starts, labels) of one degree: the rows of the fiber members
    of the keys (left unchanged), their fiber flags and component labels."""
    members, starts = _fiber_members(keys.copy())
    return _fiber_components(np.take(idx, members, axis=1), starts, lanes)


def test_multiset_enumeration_matches_itertools():
    rng = np.random.default_rng(2500)
    for num_cols, d in [(3, 2), (5, 3), (6, 4), (8, 2), (1, 3)]:
        col_keys = rng.integers(-(1 << 40), 1 << 40, size=num_cols)
        idx, keys = _index(num_cols, d, col_keys)
        got = [tuple(int(v) for v in row) for row in idx.T]
        want = list(combinations_with_replacement(range(num_cols), d))
        assert got == want
        # the carried key of a multiset is the sum of its column keys
        assert np.array_equal(keys, col_keys[idx].sum(axis=0))


def test_full_basis_n3():
    g = GroundSet(3)
    rep = markov_basis(configuration(g), 2)
    assert rep.per_degree_counts == {2: 1}
    assert rep.complete
    assert len(rep.representatives) == 1
    move = rep.representatives[0]
    assert move.degree == 2
    # the lone degree-2 class is the 2x2 semi-graphoid move class
    basics = {m.coeffs for m in symmetry_reduce(basic_moves(g))}
    assert move.coeffs in basics


def test_full_basis_n4():
    g = GroundSet(4)
    rep = markov_basis(configuration(g), 4)
    assert rep.per_degree_counts == {2: 2, 3: 1, 4: 4}
    assert rep.complete
    assert [m.degree for m in rep.representatives] == [2, 2, 3, 4, 4, 4, 4]
    # degree-2 classes are exactly the reduced 2x2 move classes
    deg2 = {m.coeffs for m in rep.representatives if m.degree == 2}
    basics = {m.coeffs for m in symmetry_reduce(basic_moves(g))}
    assert deg2 == basics
    cfg = configuration(g)
    for m in rep.representatives:
        kernel_check(cfg, m)


def test_cap_below_full_degree_incomplete():
    g = GroundSet(4)
    rep = markov_basis(configuration(g), 3)
    assert rep.per_degree_counts == {2: 2, 3: 1}
    assert not rep.complete


def test_subconfiguration_square_free():
    cases = [
        (GroundSet(4), "ab|cd|0"),
        (GroundSet(4), "a|bcd|0"),
        (GroundSet(5), "ab|cde|0"),
        (GroundSet(5), "ab|cd|e"),
        (GroundSet(5), "a|bcd|e"),
    ]
    for g, name in cases:
        t = Triplet.parse(g, name)
        cfg = subconfiguration(t)
        rep = markov_basis(cfg, 4)
        assert rep.representatives, name
        for m in rep.representatives:
            assert all(abs(c) <= 1 for c in m.coeffs), (name, m.to_json())
            kernel_check(cfg, m)


def test_complete_source_names_where_completeness_comes_from():
    one_column = subconfiguration(Triplet.parse(GroundSet(4), "a|b|cd"))
    cases = [
        (configuration(GroundSet(4)), 4, "literature (n <= 4)", True),
        (one_column, 4, "certified (trivial kernel)", True),
        (configuration(GroundSet(5)), 3, "unknown", False),
    ]
    for cfg, cap, source, complete in cases:
        rep = markov_basis(cfg, cap)
        assert (rep.complete_source, rep.complete) == (source, complete)
        assert rep.to_json()["complete_source"] == source


def test_single_column_subconfiguration_complete():
    t = Triplet.parse(GroundSet(4), "a|b|cd")
    rep = markov_basis(subconfiguration(t), 4)
    assert rep.per_degree_counts == {}
    assert rep.representatives == ()
    assert rep.complete


def test_empty_column_list_is_a_trivial_kernel():
    rep = markov_basis(configuration(GroundSet(3), columns=[]), 3)
    assert rep.per_degree_counts == {} and rep.representatives == ()
    assert rep.complete_source == "certified (trivial kernel)"


def test_trivial_kernel_skips_the_degree_loop():
    # one column: every fiber is a singleton at every degree, so a high cap
    # must not run the degrees one by one
    start = time.perf_counter()
    rep = markov_basis(subconfiguration(Triplet.parse(GroundSet(3), "a|b|c")), 3000)
    assert time.perf_counter() - start < 1
    assert rep.per_degree_counts == {}
    assert rep.complete_source == "certified (trivial kernel)"


def test_representatives_reduce_to_basic_moves():
    g = GroundSet(4)
    rep = markov_basis(configuration(g), 4)
    for m in rep.representatives:
        combo = reduce_to_basis(m)
        total = [0] * g.num_elementary
        for basic, coeff in combo:
            for j, c in enumerate(basic.coeffs):
                total[j] += coeff * c
        assert tuple(total) == m.coeffs


def test_budget_guard(monkeypatch):
    # the full n=6 configuration at degree 4 is far over the 2 GiB budget
    assert _estimate_bytes(240, 64, 4) > MEMORY_BUDGET_BYTES
    import imsetkit.markov as mk

    monkeypatch.setattr(mk, "MEMORY_BUDGET_BYTES", 10_000)
    with pytest.raises(BudgetError):
        markov_basis(configuration(GroundSet(4)), 2)


def test_budget_is_checked_before_any_degree_is_built(monkeypatch):
    # degrees 2 and 3 of the full n=6 configuration fit the budget and
    # degree 4 does not: the whole cap is refused before any index exists
    import imsetkit.markov as mk

    def no_index(prev, prev_keys, col_keys):
        raise AssertionError(f"built degree {prev.shape[0] + 1} before the budget check")

    monkeypatch.setattr(mk, "_extend_index", no_index)
    with pytest.raises(BudgetError):
        markov_basis(configuration(GroundSet(6)), 4)


def test_validation_errors():
    cfg = configuration(GroundSet(3))
    with pytest.raises(ValueError):
        markov_basis(cfg, 1)


def test_report_serialization():
    g = GroundSet(4)
    rep = markov_basis(configuration(g), 4)
    data = rep.to_json()
    assert sorted(data) == [
        "complete", "complete_source", "degree_cap", "per_degree_counts", "representatives"
    ]
    assert data["per_degree_counts"] == {"2": 2, "3": 1, "4": 4}
    assert data["complete"] is True
    assert data["complete_source"] == "literature (n <= 4)"
    assert len(data["representatives"]) == 7
    for entry in data["representatives"]:
        assert set(entry) == {"lhs", "rhs"}
    csv_text = rep.to_csv()
    assert csv_text.splitlines() == ["degree,representatives", "2,2", "3,1", "4,4"]


def test_sums_match_numpy_pipeline():
    # seeded spot check: the vectorized column sums agree with exact sums
    rng = np.random.default_rng(20240817)
    g = GroundSet(4)
    cfg = configuration(g)
    cols = np.array(cfg.matrix, dtype=np.int8)
    idx, _ = _index(cfg.num_cols, 3)
    take = rng.choice(idx.shape[1], size=40, replace=False)
    for r in take:
        trio = [int(v) for v in idx[:, r]]
        direct = [sum(cfg.matrix[i][j] for j in trio) for i in range(cfg.num_rows)]
        vec = cols[:, trio].sum(axis=1)
        assert direct == [int(v) for v in vec]


def _oracle_cases():
    # every exactly effective sub-configuration at n=3..5 with caps 2..4,
    # then the full configurations; of the ten 48-column shapes
    # <ab|cde|0> and its label images only the first runs at cap 4 (the
    # oracle's row-wise np.unique takes about 3 s on each)
    cases = []
    for n in (3, 4, 5):
        g = GroundSet(n)
        wide = 0
        for t in enumerate_triplets(g):
            if t.a_mask | t.b_mask | t.c_mask != g.full_mask:
                continue
            cfg = subconfiguration(t)
            wide += cfg.num_cols == 48
            later_wide = cfg.num_cols == 48 and wide > 1
            cases.append((str(t), cfg, (2, 3) if later_wide else (2, 3, 4)))
    for n, cap in ((3, 2), (4, 4), (5, 3)):
        cases.append((f"full n={n}", configuration(GroundSet(n)), (cap,)))
    return cases


def test_hashed_pass_matches_unique_union_find_oracle():
    cases = _oracle_cases()
    assert sum(len(caps) for _, _, caps in cases) == 357
    for name, cfg, caps in cases:
        want = _oracle_markov_basis(cfg, caps[-1])
        for cap in caps:
            got = markov_basis(cfg, cap)
            # the oracle's degree-d pass does not depend on the cap, and
            # `complete` only does for full configurations (run at one
            # cap), so its report at a lower cap is this degree prefix
            counts = {d: c for d, c in want.per_degree_counts.items() if d <= cap}
            reps = tuple(m for m in want.representatives if m.degree <= cap)
            assert got.per_degree_counts == counts, (name, cap)
            assert got.representatives == reps, (name, cap)
            assert got.complete == want.complete, (name, cap)
            assert got.complete_source == want.complete_source, (name, cap)


# The per-degree pass before two-member fibers got their own test, kept as
# the differential oracle: stable sorts, keys from the (N, d) gather, and
# one min-label propagation over every non-singleton fiber.
def _oracle_split_fibers(idx, cols_t, col_keys):
    keys = col_keys[idx].sum(axis=1)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    same = keys[1:] == keys[:-1]
    pos = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
    members, starts = order[pos], np.r_[True, ~same][pos]
    rows = idx[members]

    sums = cols_t[rows[:, 0]].copy()
    for t in range(1, rows.shape[1]):
        sums += cols_t[rows[:, t]]
    if np.any(np.any(sums[1:] != sums[:-1], axis=1) & ~starts[1:]):
        raise InvariantError("multisets with equal keys have different column sums")

    node_key = ((np.cumsum(starts) - 1)[:, None] * cols_t.shape[0] + rows).ravel()
    inc_order = np.argsort(node_key, kind="stable")
    node_start = np.diff(node_key[inc_order], prepend=-1) != 0
    node_of = np.empty_like(inc_order)
    node_of[inc_order] = np.cumsum(node_start) - 1
    node_of = node_of.reshape(rows.shape)
    inc_member, node_first = inc_order // rows.shape[1], np.flatnonzero(node_start)
    labels = np.arange(len(members))
    while True:
        new = np.minimum.reduceat(labels[inc_member], node_first)[node_of].min(axis=1)
        new = new[new]
        if np.array_equal(new, labels):
            return members, starts, labels
        labels = new


def test_split_fibers_matches_stable_sort_oracle():
    sizes = Counter()
    for name, cfg, caps in _oracle_cases():
        cols_t = np.ascontiguousarray(np.array(cfg.matrix, dtype=np.int8).T)
        col_keys, lanes = _column_keys(cols_t), _packed_lanes(cols_t, caps[-1])
        idx, keys = np.arange(cfg.num_cols, dtype=np.int16).reshape(1, -1), col_keys
        for d in range(2, caps[-1] + 1):
            idx, keys = _extend_index(idx, keys, col_keys)
            got = _components(idx, keys, lanes)
            want = _oracle_split_fibers(idx.T, cols_t, col_keys)
            # the multisets are distinct, so equal rows are equal members
            want = (np.take(idx, want[0], axis=1), *want[1:])
            for g_arr, w_arr in zip(got, want):
                assert np.array_equal(g_arr, w_arr), (name, d)
            bounds = np.append(np.flatnonzero(want[1]), len(want[1]))
            sizes.update(np.minimum(np.diff(bounds), 3).tolist())
    # both the disjointness test and the propagation were exercised
    assert sizes[2] and sizes[3]


def _splitmix64(i, seed):
    """Output i (from 0) of the splitmix64 generator seeded with seed."""
    mask = (1 << 64) - 1
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_key_weights_are_prefix_stable():
    # weight i is splitmix64 output i, its top 41 bits as a signed value:
    # the weights made once for the largest ground set are, for every n,
    # those of exactly 2^n subsets, so the column keys do not change
    weights = _key_weights()
    assert len(weights) == 1 << MAX_GROUND_SIZE and not weights.flags.writeable
    assert weights.dtype == np.int64
    assert -(1 << 40) <= int(weights.min()) and int(weights.max()) < 1 << 40
    for n in range(1, MAX_GROUND_SIZE + 1):
        w = np.array([(_splitmix64(i, _KEY_SEED) >> 23) - (1 << 40) for i in range(1 << n)])
        assert np.array_equal(weights[: 1 << n], w), n
        if n in (4, 5):
            cols_t = np.array(configuration(GroundSet(n)).matrix, dtype=np.int8).T
            assert np.array_equal(_column_keys(cols_t), cols_t.astype(np.int64) @ w)


_IMPORT_SCRIPT = """
import sys
import imsetkit.cli, imsetkit.markov
from imsetkit.faces import subconfiguration
from imsetkit.groundset import GroundSet, Triplet
from imsetkit.imsets import configuration
from imsetkit.markov import markov_basis

loaded = lambda: [m for m in ("numpy.random", "numpy.ma") if m in sys.modules]
print(loaded())
markov_basis(configuration(GroundSet(5)), 3)
print(loaded())
markov_basis(subconfiguration(Triplet.parse(GroundSet(5), "ab|cd|e")), 4)
print(loaded())
"""


def test_importing_the_library_leaves_numpy_random_unloaded():
    # numpy.random and numpy.ma cost every process megabytes of resident
    # memory: neither importing the library nor a Markov pass, on the full
    # n=5 configuration or on a sub-configuration, may load them
    import imsetkit

    src = str(Path(imsetkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_SCRIPT], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split("\n")[:3] == ["[]", "[]", "[]"]


def test_span_of_elementary_imsets_has_dimension_2_to_the_n_minus_n_minus_1():
    for n in range(2, 6):
        assert rank(configuration(GroundSet(n)).matrix) == 2**n - n - 1, n


def test_kernel_trivial_matches_plain_rank():
    # every exactly effective sub-configuration for n <= 5, some of them
    # wider than the span of E(N), where the shortcut answers without rank
    wider = Counter()
    for n in range(2, 6):
        g = GroundSet(n)
        for t in enumerate_triplets(g):
            if t.a_mask | t.b_mask | t.c_mask != g.full_mask:
                continue
            cfg = subconfiguration(t)
            assert _kernel_trivial(cfg) == (rank(cfg.matrix) == cfg.num_cols), str(t)
            wider[cfg.num_cols > 2**n - n - 1] += 1
    assert wider[True] and wider[False]


def test_traced_peak_of_the_48_column_shape_at_cap_4():
    import tracemalloc

    cfg = subconfiguration(Triplet.parse(GroundSet(5), "ab|cde|0"))
    tracemalloc.start()
    try:
        markov_basis(cfg, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak >> 20


def _zero_keys(cols_t):
    return np.zeros(len(cols_t), dtype=np.int64)


def _collision_cases():
    return [
        (configuration(GroundSet(4)), 4),
        (subconfiguration(Triplet.parse(GroundSet(5), "ab|cd|e")), 4),
    ]


def test_key_collision_is_split_by_exact_sums(monkeypatch):
    # with every key equal, each degree is one run of all its multisets:
    # the exact lane sums alone define the fibers, so the reports are those
    # of the real keys
    import imsetkit.markov as mk

    want = [json.dumps(markov_basis(cfg, cap).to_json()) for cfg, cap in _collision_cases()]
    extended = _fresh_passes(monkeypatch)
    monkeypatch.setattr(mk, "_column_keys", _zero_keys)
    got = [json.dumps(markov_basis(cfg, cap).to_json()) for cfg, cap in _collision_cases()]
    assert got == want
    # both passes ran under the zero keys, degrees 2 to 4 each
    assert extended == [2, 3, 4] * 2


_COLLISION_SCRIPT = """
import json
import numpy as np
from imsetkit import markov
from imsetkit.faces import subconfiguration
from imsetkit.groundset import GroundSet, Triplet
from imsetkit.imsets import configuration

cases = [
    (configuration(GroundSet(4)), 4),
    (subconfiguration(Triplet.parse(GroundSet(5), "ab|cd|e")), 4),
]
want = [json.dumps(markov.markov_basis(cfg, cap).to_json()) for cfg, cap in cases]
# an empty memo, so that both passes run again under the zero keys
markov._passes.cache_clear()
extend, extended = markov._extend_index, []
markov._extend_index = lambda *args: extended.append(1) or extend(*args)
markov._column_keys = lambda cols_t: np.zeros(len(cols_t), dtype=np.int64)
got = [json.dumps(markov.markov_basis(cfg, cap).to_json()) for cfg, cap in cases]
print("split" if got == want else "differ", len(extended))
"""


def test_key_collision_is_split_under_python_O():
    import imsetkit

    src = str(Path(imsetkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", _COLLISION_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.split() == ["split", "6"], flags


def _wide_column_keys(cols_t):
    # linear in the column, so equal sums still have equal keys, with a
    # coarse part at bit 58 and a fine part of a few bits: the key span
    # forces the sort to drop low key bits, which merges many keys, and
    # the small fine weights make genuine collisions as well
    rng = np.random.default_rng(2700)
    coarse = rng.integers(-1, 2, size=cols_t.shape[1])
    fine = rng.integers(-8, 9, size=cols_t.shape[1])
    cols = cols_t.astype(np.int64)
    return ((cols @ coarse) << 58) + cols @ fine


def test_truncated_keys_give_the_exact_fibers(monkeypatch):
    # the fibers and components under keys whose span needs a shift r > 0
    # are those of the stable-sort oracle on the real keys, as sets
    import imsetkit.markov as mk

    g = GroundSet(5)
    cases = [(configuration(GroundSet(4)), 4)] + [
        (subconfiguration(Triplet.parse(g, name)), 4) for name in ("a|bcde|0", "ab|cd|e", "a|bc|de")
    ]
    shifted = 0
    for cfg, cap in cases:
        cols_t = np.ascontiguousarray(np.array(cfg.matrix, dtype=np.int8).T)
        col_keys, lanes = _wide_column_keys(cols_t), _packed_lanes(cols_t, cap)
        idx, keys = np.arange(cfg.num_cols, dtype=np.int16).reshape(1, -1), col_keys
        for d in range(2, cap + 1):
            idx, keys = _extend_index(idx, keys, col_keys)
            span = int(keys.max()) - int(keys.min())
            shifted += span.bit_length() + (len(keys) - 1).bit_length() > 63
            got = _components(idx, keys, lanes)
            members, starts, labels = _oracle_split_fibers(idx.T, cols_t, _column_keys(cols_t))
            want = (np.take(idx, members, axis=1), starts, labels)
            fibers = []
            for rows, starts, labels in (got, want):
                bounds = np.append(np.flatnonzero(starts), len(starts)).tolist()
                fibers.append({
                    (tuple(map(tuple, rows[:, lo:hi].T.tolist())), tuple((labels[lo:hi] - lo).tolist()))
                    for lo, hi in zip(bounds, bounds[1:])
                })
            assert fibers[0] == fibers[1], (d, cfg.num_cols)
        want = json.dumps(markov_basis(cfg, cap).to_json())
        with monkeypatch.context() as m:
            extended = _fresh_passes(m)
            m.setattr(mk, "_column_keys", _wide_column_keys)
            assert json.dumps(markov_basis(cfg, cap).to_json()) == want
            assert extended == list(range(2, cap + 1)), cfg.num_cols
    assert shifted == 3 * len(cases)


def test_fiber_members_drop_low_key_bits_only_past_63_bits():
    # four positions take s = 2 bits: a span of 5 keeps every key bit, a
    # span of 2^62 + 1 drops r = 2, so keys that differ only there share a run
    members, starts = _fiber_members(np.array([5, 0, 5, 3], dtype=np.int64))
    assert members.tolist() == [0, 2] and starts.tolist() == [True, False]
    wide = np.array([1 << 62, 0, (1 << 62) + 1, 1], dtype=np.int64)
    members, starts = _fiber_members(wide)
    assert members.tolist() == [1, 3, 0, 2]
    assert starts.tolist() == [True, False, True, False]


def test_budget_estimate_covers_traced_peak(monkeypatch):
    # the estimate bounds the traced peak of the pass; on the 48-column
    # shape and the full n=5 configuration at cap 4 it is within twice
    # that peak (on the two smaller passes the allowance of one chunk's
    # work arrays alone is several times their 0.5-2 MiB peaks); the memo
    # is emptied before each traced call, so each one runs its pass
    import tracemalloc

    import imsetkit.markov as mk

    extended = _fresh_passes(monkeypatch)

    g = GroundSet(5)
    cases = [
        (subconfiguration(Triplet.parse(g, "a|bcde|0")), 4, False),
        (subconfiguration(Triplet.parse(g, "ab|cde|0")), 3, False),
        (subconfiguration(Triplet.parse(g, "ab|cde|0")), 4, True),
        (configuration(g), 4, True),
    ]
    for cfg, cap, tight in cases:
        markov_basis(cfg, 2)  # the per-n tables are built outside the trace
        estimate = max(_estimate_bytes(cfg.num_cols, cfg.num_rows, d) for d in range(2, cap + 1))
        mk._passes.cache_clear()
        extended.clear()
        tracemalloc.start()
        try:
            markov_basis(cfg, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert extended == list(range(2, cap + 1)), (cfg.num_cols, cap)
        assert peak <= estimate, (cfg.num_cols, cap)
        if tight:
            assert estimate <= 2 * peak, (cfg.num_cols, estimate >> 10, peak >> 10)


def test_n5_cap_5_fits_the_budget_and_n6_cap_4_does_not():
    # the shape-only check admits the full n=5 configuration at degree 5
    # and still refuses n=6 at degree 4, whose index and keys alone are
    # about 2.3 GB
    check_degree_cap(80, 32, 5)
    assert 24 * comb(243, 4) > MEMORY_BUDGET_BYTES
    with pytest.raises(BudgetError):
        check_degree_cap(240, 64, 4)


def test_label_table_estimate_covers_traced_peak():
    # built from empty caches for the full configuration, so the stabiliser
    # keeps every row: the estimate bounds the traced peak of the tables and
    # is within twice it (at n = 4 the fixed costs of a call, about 30 KB,
    # outweigh the tables)
    import tracemalloc

    from imsetkit import relations

    for n in (5, 6):
        g = GroundSet(n)
        ranks = np.arange(g.num_elementary)
        z = np.eye(1, g.num_elementary, dtype=np.int64)
        relations._subset_images.cache_clear()
        relations._rank_map_array.cache_clear()
        tracemalloc.start()
        try:
            relations._least_images(z, ranks, relations._stabiliser(g, ranks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _label_table_bytes(g, g.num_elementary) <= 2 * peak, n


def test_label_tables_fit_the_budget_up_to_n7_and_not_at_n8(monkeypatch):
    # n = 7 at cap 2 and every n <= 5 shape stay admitted; the full n = 8
    # configuration is refused before any table is built
    from imsetkit import relations

    for n in range(1, 8):
        g = GroundSet(n)
        assert _label_table_bytes(g, g.num_elementary) <= MEMORY_BUDGET_BYTES
    assert _label_table_bytes(GroundSet(8), 1792) > MEMORY_BUDGET_BYTES

    def refuse(g):
        raise AssertionError("label tables built before the budget check")

    monkeypatch.setattr(relations, "_subset_images", refuse)
    with pytest.raises(BudgetError, match="label-permutation tables"):
        markov_basis(configuration(GroundSet(8)), 2)


def test_small_chunks_give_the_same_reports(monkeypatch):
    # 4 KiB chunks hold about 16 run members at degree 4, so every degree
    # spans many chunks; no fiber spans two runs, so the reports are those
    # of one chunk per degree
    import imsetkit.markov as mk

    cases = [(configuration(GroundSet(4)), 4)]
    for n in (3, 4, 5):
        g = GroundSet(n)
        cases += [
            (subconfiguration(t), 4)
            for t in enumerate_triplets(g)
            if t.a_mask | t.b_mask | t.c_mask == g.full_mask
        ]
    assert len(cases) == 122
    want = [json.dumps(markov_basis(cfg, cap).to_json()) for cfg, cap in cases]
    extended = _fresh_passes(monkeypatch)
    monkeypatch.setattr(mk, "_CHUNK_BYTES", 4096)
    assert [json.dumps(markov_basis(cfg, cap).to_json()) for cfg, cap in cases] == want
    # each of the 18 reduced matrices ran its pass in small chunks: degrees
    # 2 to 4 on the 17 with a nontrivial kernel (the one-column faces have
    # a trivial one)
    assert mk._passes.misses == 18 and extended == [2, 3, 4] * 17


def test_connecting_differences_are_checked_against_the_budget(monkeypatch):
    # a budget just over the shape estimate admits the cap, and the pass
    # refuses once the differences it finds outgrow what is left
    import imsetkit.markov as mk

    cfg = configuration(GroundSet(4))
    extended = _fresh_passes(monkeypatch)
    monkeypatch.setattr(mk, "MEMORY_BUDGET_BYTES", _estimate_bytes(cfg.num_cols, cfg.num_rows, 4) + 100)
    with pytest.raises(BudgetError, match="connecting differences of degree"):
        markov_basis(cfg, 4)
    assert extended and not mk._passes.entries


def test_connecting_moves_pick_the_least_difference():
    # three components {r0}, {r1, r2} (sharing column 2) and {r3}, joined
    # in the order of their least member; on every fiber of the oracle
    # sweep any connecting choice gives the same representatives, so the
    # choice rule is pinned here
    rows = np.array([[0, 1], [2, 3], [2, 4], [5, 5]], dtype=np.int16).T
    labels = np.array([0, 1, 1, 3])
    starts = np.array([True, False, False, False])
    assert _connecting_differences(rows, starts, labels, 6).tolist() == [
        [-1, -1, 1, 0, 1, 0],
        [-1, -1, 0, 0, 0, 2],
    ]


def test_connecting_differences_match_the_per_fiber_oracle():
    # the one pass over all surplus fibers of a degree picks, fiber by
    # fiber, the same least differences as the per-fiber union-find oracle
    fibers = 0
    for name, cfg, caps in _oracle_cases():
        cols_t = np.ascontiguousarray(np.array(cfg.matrix, dtype=np.int8).T)
        col_keys, lanes = _column_keys(cols_t), _packed_lanes(cols_t, caps[-1])
        idx, keys = np.arange(cfg.num_cols, dtype=np.int16).reshape(1, -1), col_keys
        for d in range(2, caps[-1] + 1):
            idx, keys = _extend_index(idx, keys, col_keys)
            rows, starts, labels = _components(idx, keys, lanes)
            got = _connecting_differences(rows, starts, labels, cfg.num_cols)
            bounds = np.append(np.flatnonzero(starts), len(starts)).tolist()
            want = []
            for lo, hi in zip(bounds, bounds[1:]):
                found = _oracle_connecting_moves_for_fiber(range(lo, hi), rows.T, cfg.num_cols)
                want += [list(diff) for diff in found]
                fibers += bool(found)
            assert got.tolist() == want, (name, d)
    assert fibers > 1000


def test_packed_check_is_exact_past_the_uint8_lane_bound():
    # two columns that differ only in row 7, +1 against -1: at degree 128
    # the sums of {0^128} and {1^128} differ by 256 there, a difference that
    # uint8 lanes lose; keys that put exactly those two multisets in one
    # run must give two singleton fibers, so no fiber at all, and one fiber
    # of two components when the columns, so the sums, agree; 7 and 8 are
    # the degrees on either side of the 4-bit lane bound
    cols_t = np.zeros((2, 8), dtype=np.int8)
    cols_t[0, 7], cols_t[1, 7] = 1, -1
    narrow = _packed_lanes(cols_t, 127)  # one row of words per word, one column per column
    assert narrow.shape == (1, 2) and _packed_lanes(cols_t, 128).shape == (2, 2)
    assert _packed_lanes(cols_t, 7).shape == _packed_lanes(cols_t, 8).shape == (1, 2)
    # with the degree-127 lanes the two sums of degree 128 collide
    assert np.array_equal(narrow[:, 0] * np.uint64(128), narrow[:, 1] * np.uint64(128))
    for d in (2, 7, 8, 127, 128, 129, 300):
        idx, _ = _index(2, d)
        keys = np.arange(idx.shape[1], dtype=np.int64)
        keys[-1] = keys[0]  # the first multiset is {0^d}, the last {1^d}
        members, starts = _fiber_members(keys.copy())
        assert members.tolist() == [0, d] and starts.tolist() == [True, False]
        rows, starts, labels = _components(idx, keys, _packed_lanes(cols_t, d))
        assert rows.shape == (d, 0) and starts.tolist() == labels.tolist() == [], d
        # equal columns: equal sums, and two components (no common column)
        rows, starts, labels = _components(idx, keys, _packed_lanes(np.zeros_like(cols_t), d))
        assert np.array_equal(rows, idx[:, [0, d]]), d
        assert starts.tolist() == [True, False] and labels.tolist() == [0, 1], d


def test_moves_are_built_only_for_representatives(monkeypatch):
    built = []
    post_init = Move.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Move, "__post_init__", counting)
    g = GroundSet(4)
    cases = [(configuration(GroundSet(5)), 3)] + [
        (subconfiguration(t), 4)
        for t in enumerate_triplets(g)
        if t.a_mask | t.b_mask | t.c_mask == g.full_mask
    ]
    counts = []
    for cfg, cap in cases:
        built.clear()
        rep = markov_basis(cfg, cap)
        assert len(built) == sum(rep.per_degree_counts.values()) == len(rep.representatives)
        counts.append(len(built))
    # 5 Moves for the 160 connecting differences of the full n=5 pass
    assert counts[0] == 5 and sum(counts[1:]) > 20


def _memo_cases():
    # the 121 faces of exactly effective triplets at n = 3..5 and the full
    # configurations
    cases = []
    for n in (3, 4, 5):
        g = GroundSet(n)
        cases += [
            (subconfiguration(t), 4)
            for t in enumerate_triplets(g)
            if t.a_mask | t.b_mask | t.c_mask == g.full_mask
        ]
    return cases + [(configuration(GroundSet(3)), 3), (configuration(GroundSet(4)), 4), (configuration(GroundSet(5)), 4)]


def test_memo_reports_equal_the_cold_reports(monkeypatch):
    # cold: the memo emptied before every call, so each runs its own pass;
    # then two sweeps with the memo, the first reading the pass of an
    # earlier face of the same reduced matrix, the second only hits
    import imsetkit.markov as mk

    cases = _memo_cases()
    assert len(cases) == 124
    _fresh_passes(monkeypatch)
    cold = []
    for cfg, cap in cases:
        mk._passes.cache_clear()
        cold.append(json.dumps(markov_basis(cfg, cap).to_json()))
    mk._passes.cache_clear()
    for _ in range(2):
        assert [json.dumps(markov_basis(cfg, cap).to_json()) for cfg, cap in cases] == cold
    assert mk._passes.misses == 20


def test_faces_of_one_type_share_a_pass(monkeypatch):
    # the face of <ab|cd|e> is the face of <ab|cd|0> lifted by e: the rows
    # its columns touch are those of <ab|cd|0> at n = 4, in another order
    import imsetkit.markov as mk

    extended = _fresh_passes(monkeypatch)
    low = subconfiguration(Triplet.parse(GroundSet(4), "ab|cd|0"))
    lifted = subconfiguration(Triplet.parse(GroundSet(5), "ab|cd|e"))
    assert mk._pass_key(low, 4) == mk._pass_key(lifted, 4)
    assert markov_basis(low, 4).per_degree_counts == {2: 2, 4: 4}
    ran = list(extended)
    rep = markov_basis(lifted, 4)
    assert extended == ran == [2, 3, 4] and mk._passes.misses == 1
    assert rep.per_degree_counts == {2: 2, 4: 4}
    for m in rep.representatives:
        kernel_check(lifted, m)


def test_criterion_13_sweep_makes_17_passes(monkeypatch):
    from imsetkit.verify import criterion_square_free

    extended = _fresh_passes(monkeypatch)
    ok, detail = criterion_square_free()
    assert ok and detail == "121 sub-configurations, 17 passes, 455 moves, all square-free"
    # the one-column faces have a trivial kernel and extend no index
    assert extended == [2, 3, 4] * 16


def test_a_memo_hit_is_checked_against_the_callers_budget(monkeypatch):
    # a pass run under the full budget is kept; a caller with a budget just
    # over the shape estimate reads it and is refused as a cold pass is,
    # with the same message
    import imsetkit.markov as mk

    cfg = configuration(GroundSet(4))
    extended = _fresh_passes(monkeypatch)
    markov_basis(cfg, 4)
    ran = len(extended)
    monkeypatch.setattr(mk, "MEMORY_BUDGET_BYTES", _estimate_bytes(cfg.num_cols, cfg.num_rows, 4) + 100)
    with pytest.raises(BudgetError, match="connecting differences of degree") as hit:
        markov_basis(cfg, 4)
    assert len(extended) == ran
    mk._passes.cache_clear()
    with pytest.raises(BudgetError) as cold:
        markov_basis(cfg, 4)
    assert len(extended) > ran
    assert str(hit.value) == str(cold.value)


def test_memo_differences_are_read_only(monkeypatch):
    import imsetkit.markov as mk

    _fresh_passes(monkeypatch)
    markov_basis(configuration(GroundSet(4)), 4)
    (found,) = mk._passes.entries.values()
    assert len(found.diffs) and not found.diffs.flags.writeable
    with pytest.raises(ValueError):
        found.diffs[0, 0] = 5


def test_memo_evicts_the_least_recently_used_pass_first(monkeypatch):
    import imsetkit.markov as mk

    def held(mib):
        return mk._Pass(False, np.zeros((mib << 17, 1), dtype=np.int64))

    monkeypatch.setattr(mk, "_MEMO_ENTRIES", 3)
    memo = mk._PassMemo()
    for key in "abc":
        assert memo.get(key) is None
        memo.put(key, held(1))
    assert memo.get("a") is not None and memo.misses == 3
    memo.put("d", held(1))  # a fourth entry: b goes
    assert list(memo.entries) == ["c", "a", "d"]
    memo.put("e", held(6))  # 9 MiB: c goes, and 8 MiB are left
    assert list(memo.entries) == ["a", "d", "e"] and memo.held == mk._MEMO_BYTES
    big = memo.put("f", held(9))  # over the bound alone: returned, not kept
    assert not big.diffs.flags.writeable and "f" not in memo.entries
    assert list(memo.entries) == ["a", "d", "e"] and memo.held == mk._MEMO_BYTES
    memo.cache_clear()
    assert (memo.entries, memo.held, memo.misses) == ({}, 0, 0)


def test_memo_stays_under_its_bound_after_the_n5_cap_5_pass(monkeypatch):
    import imsetkit.markov as mk

    extended = _fresh_passes(monkeypatch)
    for cfg, cap in _memo_cases():
        markov_basis(cfg, cap)
    rep = markov_basis(configuration(GroundSet(5)), 5)
    assert rep.per_degree_counts == {2: 3, 3: 2, 4: 11, 5: 18}
    entries = mk._passes.entries.values()
    assert len(entries) <= mk._MEMO_ENTRIES
    assert mk._passes.held == sum(e.diffs.nbytes for e in entries) <= mk._MEMO_BYTES
    # the degree-5 pass fits and is kept: a second call reads it
    ran = len(extended)
    assert markov_basis(configuration(GroundSet(5)), 5).representatives == rep.representatives
    assert len(extended) == ran


def test_cap_6_adds_no_move_of_degree_5_or_6_at_n4():
    # the degree bound of ROADMAP item 6 is 6 at n = 4: a cap that reaches
    # it finds the moves of cap 4 and nothing more
    assert markov_basis(configuration(GroundSet(4)), 6).per_degree_counts == {2: 2, 3: 1, 4: 4}


def test_memo_counts_hold_under_threads(monkeypatch):
    # six threads on two cores, switching every microsecond, get and put
    # passes of eight keys (two sizes each); a lost update would leave the
    # held bytes off the entries' sum, or the misses off the lookups that
    # found nothing
    import threading

    import imsetkit.markov as mk

    monkeypatch.setattr(mk, "_MEMO_ENTRIES", 4)
    memo = mk._PassMemo()
    sizes = [np.zeros((rows, 3), dtype=np.int64) for rows in (1, 7)]
    missed = []

    def work(seed):
        rng = np.random.default_rng(seed)
        found_none = 0
        for key, size in zip(rng.integers(0, 8, 20000).tolist(), rng.integers(0, 2, 20000).tolist()):
            if memo.get(key) is None:
                found_none += 1
                memo.put(key, mk._Pass(False, sizes[size].copy()))
        missed.append(found_none)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(missed) == 6
    assert len(memo.entries) <= 4
    assert memo.held == sum(e.diffs.nbytes for e in memo.entries.values())
    assert memo.misses == sum(missed)
