"""Exact rational linear algebra: rank, nullspace, and LP feasibility.

Everything here is exact; no floating point anywhere, since cone-membership
questions are decided at exactly degenerate boundaries, where floats
misclassify.

rank and nullspace share one fraction-free (Bareiss) elimination over
integer rows: integer rows are used as they are, a row with a non-integer
entry is scaled by the lcm of its denominators first.  Every division in
the elimination is exact; a nonzero remainder raises InvariantError.  rank
eliminates below the pivots only; nullspace eliminates above them as well
(fraction-free Gauss-Jordan), after which every pivot equals the last one,
d, and each free column gives an integer basis vector directly.

lp_feasible decides {x >= 0 : Ax = b} with a phase-1-only primal simplex on
fractions.Fraction under Bland's anti-cycling rule, so answers are
deterministic.  Feasible answers carry an exact witness; infeasible answers
carry an exact Farkas certificate y with y^T A >= 0 componentwise and
y^T b < 0.  Both are re-verified by substitution before returning; a failed
re-check raises InvariantError, which (unlike assert) also runs under
python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


class InvariantError(RuntimeError):
    """An exactness check on a computed result failed; the result is not
    returned."""


def _integer_rows(M) -> list:
    """M as a list of integer row lists; a row holding a non-integer entry
    is scaled by the lcm of its denominators."""
    out = []
    for row in M:
        if all(isinstance(x, int) for x in row):
            out.append(list(row))
        else:
            row = [Fraction(x) for x in row]
            scale = lcm(*(x.denominator for x in row))
            out.append([int(x * scale) for x in row])
    return out


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
        row_r = rows[r]
        pivot = row_r[c]
        for i in range(0 if jordan else r + 1, m):
            if i == r:
                continue
            row_i = rows[i]
            factor = row_i[c]
            # below the pivot row, the columns left of c are already zero
            for j in range(c + 1 if i > r else 0, n):
                num = pivot * row_i[j] - factor * row_r[j]
                q, rem = divmod(num, prev)
                if rem != 0:
                    raise InvariantError("Bareiss division must be exact")
                row_i[j] = q
            row_i[c] = 0
        prev = pivot
        pivots.append(c)
    return pivots


def rank(M) -> int:
    """Exact rank of a sequence of rows (ints, Fractions or anything
    Fraction accepts), by fraction-free elimination."""
    rows = _integer_rows(M)
    return len(_eliminate(rows, len(rows[0]) if rows else 0, jordan=False))


def nullspace(M, n: int) -> list:
    """An integer basis of {x in Q^n : row · x = 0 for every row of M}.

    One vector per non-pivot column fc: vec[fc] = d, the common final
    pivot, and vec[pc] = -row[fc] for each pivot column pc and its row.
    """
    rows = _integer_rows(M)
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
