"""Exact rational linear algebra: rank, nullspace, and LP feasibility.

Everything here is exact; no floating point anywhere, since cone-membership
questions are decided at exactly degenerate boundaries, where floats
misclassify.

rank, nullspace and lp_feasible share one fraction-free (Bareiss) pivot
step, _pivot, over integer rows: integer rows are used as they are, a row
with a non-integer entry is scaled by the lcm of its denominators first.
Every division in the step is exact; a nonzero remainder raises
InvariantError.  rank eliminates below the pivots only; nullspace
eliminates above them as well (fraction-free Gauss-Jordan), after which
every pivot equals the last one, d, and each free column gives an integer
basis vector directly.

lp_feasible decides {x >= 0 : Ax = b} with a phase-1-only primal simplex
under Bland's anti-cycling rule, so answers are deterministic.  Its
tableau is integer too: the simplex pivot is the same step (Edmonds), so
the tableau is d times the rational one, d > 0 the last pivot, and ratios
are compared by cross-multiplication.  Feasible answers carry an exact
witness; infeasible answers carry an exact Farkas certificate y with
y^T A >= 0 componentwise and y^T b < 0.  Both are re-verified by
substitution into the caller's A and b before returning, on the integer
numerators over d (exact for rational A and b too); a failed re-check
raises InvariantError, which (unlike assert) also runs under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


class InvariantError(RuntimeError):
    """An exactness check on a computed result failed; the result is not
    returned."""


def _integer_row(row) -> tuple:
    """(ints, s): row times its scale s, the lcm of its denominators (1 for
    an integer row, which is returned as it is)."""
    if all(isinstance(x, int) for x in row):
        return list(row), 1
    row = [Fraction(x) for x in row]
    s = lcm(*(x.denominator for x in row))
    return [int(x * s) for x in row], s


def _pivot(rows: list, r: int, c: int, prev: int, lo: int, start: int) -> None:
    """One fraction-free pivot on rows[r][c], in place.

    Every row i >= lo other than r becomes (p·row_i - row_i[c]·row_r) / prev
    with p = rows[r][c], from column start on (callers pass a start left of
    which the update would change nothing); rows[r] stays as it is.  prev is
    the previous pivot, so the division is exact; a nonzero remainder raises
    InvariantError.
    """
    row_r = rows[r]
    p = row_r[c]
    for i in range(lo, len(rows)):
        if i == r:
            continue
        row_i = rows[i]
        f = row_i[c]
        for j in range(start, len(row_i)):
            q, rem = divmod(p * row_i[j] - f * row_r[j], prev)
            if rem != 0:
                raise InvariantError("fraction-free division must be exact")
            row_i[j] = q


def _eliminate(rows: list, n: int, jordan: bool) -> list:
    """Fraction-free (Bareiss) elimination of integer rows in place.

    Returns the pivot columns; rows[i] is the pivot row of pivots[i].  With
    jordan=True the entries above each pivot are eliminated too, so every
    pivot ends up equal to the last one.
    """
    m = len(rows)
    pivots = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # forward only, the rows below the pivot are zero left of c
        _pivot(rows, r, c, prev, 0 if jordan else r + 1, 0 if jordan else c)
        prev = rows[r][c]
        pivots.append(c)
    return pivots


def rank(M) -> int:
    """Exact rank of a sequence of rows (ints, Fractions or anything
    Fraction accepts), by fraction-free elimination."""
    rows = [_integer_row(row)[0] for row in M]
    return len(_eliminate(rows, len(rows[0]) if rows else 0, jordan=False))


def nullspace(M, n: int) -> list:
    """An integer basis of {x in Q^n : row · x = 0 for every row of M}.

    One vector per non-pivot column fc: vec[fc] = d, the common final
    pivot, and vec[pc] = -row[fc] for each pivot column pc and its row.
    """
    rows = [_integer_row(row)[0] for row in M]
    pivots = _eliminate(rows, n, jordan=True)
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        vec = [0] * n
        vec[fc] = d
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class LPFeasibility:
    """Outcome of lp_feasible: exactly one of witness/certificate is set."""

    feasible: bool
    witness: tuple | None
    certificate: tuple | None


def lp_feasible(A, b) -> LPFeasibility:
    """Decide {x >= 0 : Ax = b} exactly; phase-1 simplex, Bland's rule.

    Returns a witness x (nonnegative Fractions, Ax = b) when feasible, else
    a Farkas certificate y (y^T A >= 0, y^T b < 0).  Deterministic.

    Integer tableau: row i is [s_i·A_i | e_i | s_i·b_i], s_i the lcm scale
    of [A_i | b_i] signed so that s_i·b_i >= 0; the last row is the reduced
    phase-1 cost (the sum of the artificials).  Witness and certificate
    entries are read off as entry / d.
    """
    A = [[x if isinstance(x, int) else Fraction(x) for x in row] for row in A]
    b = [x if isinstance(x, int) else Fraction(x) for x in b]
    if len(b) != len(A):
        raise ValueError("dimension mismatch between A and b")
    m = len(A)
    n = len(A[0]) if A else 0
    tab, scale = [], []
    for i, (row, bi) in enumerate(zip(A, b)):
        ints, s = _integer_row(row + [bi])
        if ints[-1] < 0:
            ints, s = [-x for x in ints], -s
        tab.append(ints[:-1] + [int(i == k) for k in range(m)] + ints[-1:])
        scale.append(s)
    # cost row: minimize the sum of the artificials; reduced costs with rhs -w
    cost = [-sum(row[j] for row in tab) for j in range(n)] + [0] * m + [-sum(row[-1] for row in tab)]
    tab.append(cost)
    basis = [n + i for i in range(m)]
    d = 1

    while True:
        # Bland: least-index original column with negative reduced cost
        # (artificials never re-enter)
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio tab[i][-1] / a against the best, by cross-multiplying
                lhs, rhs = tab[i][-1] * tab[leave][enter], tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise InvariantError("phase-1 objective cannot be unbounded")
        _pivot(tab, leave, enter, d, 0, 0)
        d = tab[leave][enter]
        basis[leave] = enter

    # d > 0 (every pivot is positive), so x = t / d and y = z / d are checked
    # exactly on their integer numerators t and z
    if cost[-1] == 0:
        t = [0] * n
        for i, bv in enumerate(basis):
            if bv < n:
                t[bv] = tab[i][-1]
        # exact re-substitution check: A t = d b
        support = [(j, v) for j, v in enumerate(t) if v]
        if any(v < 0 for _, v in support):
            raise InvariantError("LP witness has a negative entry")
        for i in range(m):
            row = A[i]
            if sum(row[j] * v for j, v in support) != d * b[i]:
                raise InvariantError(f"LP witness violates row {i}")
        return LPFeasibility(True, tuple(Fraction(v, d) for v in t), None)

    # Farkas: y_i = 1 - (reduced cost of artificial i), then undo the row scale
    z = [-scale[i] * (d - cost[n + i]) for i in range(m)]
    # exact certificate check: z^T A >= 0 and z^T b < 0
    rows = [(row, zi) for row, zi in zip(A, z) if zi]
    for j in range(n):
        if sum(zi * row[j] for row, zi in rows) < 0:
            raise InvariantError(f"Farkas certificate is negative on column {j}")
    if sum(zi * bi for zi, bi in zip(z, b)) >= 0:
        raise InvariantError("Farkas certificate does not separate b")
    return LPFeasibility(False, None, tuple(Fraction(zi, d) for zi in z))
