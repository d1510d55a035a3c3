"""Exact rank, nullspace, and LP feasibility with witnesses/certificates."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from imsetkit.groundset import GroundSet, Triplet, enumerate_elementary
from imsetkit.imsets import configuration, delta, elementary_imset, inner, semi_elementary
import imsetkit
from imsetkit.linalg import InvariantError, LPFeasibility, lp_feasible, nullspace, rank


def test_rank_identity_and_config():
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    assert rank(ident) == 3
    assert rank(configuration(GroundSet(4)).matrix) == 11


def test_rank_with_fractions_and_transpose():
    rng = random.Random(77)
    for _ in range(10):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)] for _ in range(m)]
        Mt = [[M[i][j] for i in range(m)] for j in range(n)]
        assert rank(M) == rank(Mt)


@st.composite
def _small_matrices(draw):
    """(rows, n): up to 5 rows over n <= 6 columns of zeros, small integers
    and small fractions, so rank-deficient cases are common."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return rows, n


@settings(max_examples=300, deadline=None)
@given(_small_matrices())
def test_rank_and_nullspace_agree(case):
    M, n = case
    r = rank(M)
    assert r == rank([[row[j] for row in M] for j in range(n)])
    basis = nullspace(M, n)
    assert len(basis) == n - r
    for vec in basis:
        assert len(vec) == n and all(isinstance(x, int) for x in vec)
        assert all(sum(Fraction(a) * x for a, x in zip(row, vec)) == 0 for row in M)
    assert rank(basis) == len(basis)


def test_lp_semi_elementary_is_in_cone():
    g = GroundSet(4)
    cfg = configuration(g)
    t = Triplet.parse(g, "a|bc|0")
    res = lp_feasible(cfg.matrix, semi_elementary(t).values)
    assert res.feasible
    # witness re-substitutes exactly (checked internally too) and is
    # supported on the extreme set E_<a|bc|0>
    support = {str(cfg.columns[j]) for j, v in enumerate(res.witness) if v != 0}
    assert support <= {"a|b|0", "a|c|0", "a|b|c", "a|c|b"}
    total = sum(res.witness)
    assert total == 2  # degree |A||B|


def test_lp_infeasible_cases():
    g = GroundSet(4)
    cfg = configuration(g)
    res = lp_feasible(cfg.matrix, delta(g.subset("0")).values)
    assert not res.feasible and res.certificate is not None
    u = elementary_imset(enumerate_elementary(g)[0])
    res = lp_feasible(cfg.matrix, (-u).values)
    assert not res.feasible
    # the certificate is a supermodular direction: reading it as a set
    # function, all elementary inner products are nonnegative
    y = res.certificate

    class F:
        ground = g
        values = y

    for e in enumerate_elementary(g):
        assert inner(F(), elementary_imset(e)) >= 0


def test_lp_trivial_shapes():
    # no columns: only b = 0 is feasible
    res = lp_feasible([[], [], []], [0, 0, 0])
    assert res.feasible and res.witness == ()
    res = lp_feasible([[], []], [1, 0])
    assert not res.feasible


def _oracle_lp_feasible(A, b) -> LPFeasibility:
    """Decide {x >= 0 : Ax = b} exactly; phase-1 simplex, Bland's rule.

    The earlier Fraction-tableau simplex, kept as the reference for
    lp_feasible.

    Returns a witness x (nonnegative Fractions, Ax = b) when feasible, else
    a Farkas certificate y (y^T A >= 0, y^T b < 0).  Deterministic.
    """
    rows = [[Fraction(x) for x in row] for row in A]
    n = len(rows[0]) if rows else 0
    bvec = [Fraction(x) for x in b]
    if len(bvec) != len(rows):
        raise ValueError("dimension mismatch between A and b")
    m = len(rows)
    orig_rows = [list(r) for r in rows]
    orig_b = list(bvec)

    # flip rows so the right-hand side is nonnegative
    flip = [1] * m
    for i in range(m):
        if bvec[i] < 0:
            flip[i] = -1
            rows[i] = [-x for x in rows[i]]
            bvec[i] = -bvec[i]

    # tableau [A | I | b]; basis starts at the artificial columns
    width = n + m + 1
    tab = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [bvec[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # cost row: minimize the sum of artificials; reduced costs with rhs -w
    red = [Fraction(0)] * width
    for j in range(n):
        red[j] = -sum(tab[i][j] for i in range(m))
    red[width - 1] = -sum(bvec)

    while True:
        # Bland: least-index original column with negative reduced cost
        # (artificials never re-enter)
        enter = next((j for j in range(n) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][width - 1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise InvariantError("phase-1 objective cannot be unbounded")
        # pivot on (leave, enter)
        inv = 1 / tab[leave][enter]
        tab[leave] = [x * inv for x in tab[leave]]
        prow = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], prow)]
        if red[enter] != 0:
            f = red[enter]
            red = [x - f * y for x, y in zip(red, prow)]
        basis[leave] = enter

    w = -red[width - 1]
    if w == 0:
        x = [Fraction(0)] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = tab[i][width - 1]
        # exact re-substitution check
        if any(v < 0 for v in x):
            raise InvariantError("LP witness has a negative entry")
        for i in range(m):
            if sum(c * v for c, v in zip(orig_rows[i], x)) != orig_b[i]:
                raise InvariantError(f"LP witness violates row {i}")
        return LPFeasibility(True, tuple(x), None)

    # Farkas: y_i = 1 - (reduced cost of artificial i), undo the row flips
    y = [1 - red[n + i] for i in range(m)]
    cert = [-flip[i] * y[i] for i in range(m)]
    # exact certificate check
    for j in range(n):
        if sum(cert[i] * orig_rows[i][j] for i in range(m)) < 0:
            raise InvariantError(f"Farkas certificate is negative on column {j}")
    if sum(cert[i] * orig_b[i] for i in range(m)) >= 0:
        raise InvariantError("Farkas certificate does not separate b")
    return LPFeasibility(False, None, tuple(cert))


def _random_lp(rng, fractions=False):
    """(A, b): up to 5 rows over up to 7 columns (none at times), some rows
    all zero; b feasible by construction half the time."""
    m, n = rng.randint(0, 5), rng.randint(0, 7)
    if fractions:
        entry = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    else:
        entry = lambda: rng.choice([0, rng.randint(-3, 3)])
    A = [[entry() for _ in range(n)] if rng.random() < 0.85 else [0] * n for _ in range(m)]
    if rng.random() < 0.5:
        x = [rng.randint(0, 3) for _ in range(n)]
        b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(m)]
    else:
        b = [entry() * rng.randint(0, 3) for _ in range(m)]
    return A, b


def test_lp_determinism_and_random_instances():
    rng = random.Random(2024)
    seen = set()
    for _ in range(400):
        A, b = _random_lp(rng)
        r1 = lp_feasible(A, b)
        assert r1 == lp_feasible(A, b)  # deterministic, including the witness
        # the integer tableau takes the oracle's pivots: identical answers
        assert r1 == _oracle_lp_feasible(A, b)
        shape = "no columns" if A and not A[0] else "zero row" if any(not any(r) for r in A) else "plain"
        seen.add((shape, r1.feasible))
    assert len(seen) == 6  # every shape, both feasible and infeasible
    for _ in range(200):
        A, b = _random_lp(rng, fractions=True)
        # the row scales change the phase-1 cost, so only the answer must agree
        assert lp_feasible(A, b).feasible == _oracle_lp_feasible(A, b).feasible


_OPTIMIZE_SCRIPT = """
from fractions import Fraction
from imsetkit import linalg
from imsetkit.groundset import GroundSet, Triplet
from imsetkit.imsets import configuration, semi_elementary

cfg = configuration(GroundSet(4))
u = semi_elementary(Triplet.parse(GroundSet(4), "ab|cd|0"))
print(linalg.rank(cfg.matrix), linalg.rank([[Fraction(1, 2), 1], [1, 2]]))
print(linalg.lp_feasible(cfg.matrix, u.values))
print(linalg.lp_feasible([[1, 1]], [-1]))
print(linalg.nullspace([[1, 2, 3], [2, 4, 7]], 3))
# an inexact Bareiss division must still be caught
linalg.divmod = lambda a, b: (a // b, 1)
try:
    linalg.rank([[2, 1], [1, 3]])
    print("unchecked")
except linalg.InvariantError:
    print("checked")
# in [[2, 1], [0, 3]] only the Gauss-Jordan step above the second pivot
# divides by something other than 1, so only nullspace reaches that check
linalg.divmod = lambda a, b: divmod(a, b) if b == 1 else (a // b, 1)
print(linalg.rank([[2, 1], [0, 3]]))
try:
    linalg.nullspace([[2, 1], [0, 3]], 2)
    print("unchecked")
except linalg.InvariantError:
    print("checked")
# the simplex shares that division: {x, y >= 0 : 2x + y = 3} takes one
# pivot, {2x = 2, y = 1} a second one, which divides by the first pivot, 2
print(linalg.lp_feasible([[2, 1]], [3]).feasible)
try:
    linalg.lp_feasible([[2, 0], [0, 1]], [2, 1])
    print("unchecked")
except linalg.InvariantError:
    print("checked")
del linalg.divmod  # the builtin again
from imsetkit import faces, membership
from imsetkit.groundset import ElementaryIndex
from imsetkit.imsets import elementary_imset
g = GroundSet(3)
# the cut table checks that every cut is 0/1 and f* is 1 on every column
real_sub, real_star = membership._subset_indicator, membership.degree_function
for attr, fake in (
    ("_subset_indicator", lambda g, mask: real_sub(g, mask).scale(2)),
    ("degree_function", lambda g: membership._superset_indicator(g, g.full_mask)),
):
    setattr(membership, attr, fake)
    membership._cut_table.cache_clear()
    try:
        membership._cut_table(g)
        print("unchecked")
    except linalg.InvariantError:
        print("checked")
membership._subset_indicator, membership.degree_function = real_sub, real_star
membership._cut_table.cache_clear()
# a search witness that does not re-sum to the imset is caught before use
u = elementary_imset(ElementaryIndex.from_rank(g, 0))
membership._dfs_witnesses = lambda u, **kw: [(0, 1) + (0,) * (g.num_elementary - 2)]
for fn in (membership.classify, faces.face_of_structural):
    try:
        fn(u)
        print("unchecked")
    except linalg.InvariantError:
        print("checked")
"""


def test_exact_checks_survive_python_O():
    src = str(Path(imsetkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    outs = []
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", _OPTIMIZE_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    lines = outs[1].splitlines()
    assert lines[0] == "11 1"
    assert "feasible=True" in lines[1] and "feasible=False" in lines[2]
    assert lines[3] == "[[-2, 1, 0]]"
    assert lines[4:] == ["checked", "2", "checked", "True", "checked"] + ["checked"] * 4
