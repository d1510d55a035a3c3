"""Tests for minimal Markov bases of configurations."""

from itertools import combinations_with_replacement

import numpy as np
import pytest

from imsetkit.faces import subconfiguration
from imsetkit.groundset import GroundSet, Triplet
from imsetkit.imsets import configuration
from imsetkit.markov import (
    MEMORY_BUDGET_BYTES,
    _estimate_bytes,
    _multiset_index_array,
    markov_basis,
)
from imsetkit.relations import BudgetError, basic_moves, reduce_to_basis, symmetry_reduce


def kernel_check(cfg, move):
    # exact: configuration · z = 0 and Σz = 0
    assert sum(move.coeffs) == 0
    ranks = [e.rank for e in cfg.columns]
    for row in cfg.matrix:
        assert sum(row[j] * move.coeffs[r] for j, r in enumerate(ranks)) == 0


def test_multiset_enumeration_matches_itertools():
    for num_cols, d in [(3, 2), (5, 3), (6, 4), (8, 2)]:
        got = [tuple(int(v) for v in row) for row in _multiset_index_array(num_cols, d)]
        want = list(combinations_with_replacement(range(num_cols), d))
        assert got == want


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


def test_tie_break_invariance():
    for g, cap in [(GroundSet(3), 2), (GroundSet(4), 4)]:
        least = markov_basis(configuration(g), cap, tie_break="least")
        greatest = markov_basis(configuration(g), cap, tie_break="greatest")
        assert least.per_degree_counts == greatest.per_degree_counts
        assert least.complete == greatest.complete
    t = Triplet.parse(GroundSet(4), "ab|cd|0")
    sub_l = markov_basis(subconfiguration(t), 4, tie_break="least")
    sub_g = markov_basis(subconfiguration(t), 4, tie_break="greatest")
    assert sub_l.per_degree_counts == sub_g.per_degree_counts


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


def test_single_column_subconfiguration_complete():
    t = Triplet.parse(GroundSet(4), "a|b|cd")
    rep = markov_basis(subconfiguration(t), 4)
    assert rep.per_degree_counts == {}
    assert rep.representatives == ()
    assert rep.complete


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

    def no_index(num_cols, d):
        raise AssertionError(f"built the degree-{d} index before the budget check")

    monkeypatch.setattr(mk, "_multiset_index_array", no_index)
    with pytest.raises(BudgetError):
        markov_basis(configuration(GroundSet(6)), 4)


def test_validation_errors():
    cfg = configuration(GroundSet(3))
    with pytest.raises(ValueError):
        markov_basis(cfg, 1)
    with pytest.raises(ValueError):
        markov_basis(cfg, 2, tie_break="random")


def test_report_serialization():
    g = GroundSet(4)
    rep = markov_basis(configuration(g), 4)
    data = rep.to_json()
    assert sorted(data) == ["complete", "degree_cap", "per_degree_counts", "representatives"]
    assert data["per_degree_counts"] == {"2": 2, "3": 1, "4": 4}
    assert data["complete"] is True
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
    idx = _multiset_index_array(cfg.num_cols, 3)
    take = rng.choice(len(idx), size=40, replace=False)
    for r in take:
        trio = [int(v) for v in idx[r]]
        direct = [sum(cfg.matrix[i][j] for j in trio) for i in range(cfg.num_rows)]
        vec = cols[:, trio].sum(axis=1)
        assert direct == [int(v) for v in vec]
