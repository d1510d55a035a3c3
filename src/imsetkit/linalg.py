"""Exact rational linear algebra: rank, solving, and LP feasibility.

Everything here is exact: ranks run over cleared-denominator integer rows
with fraction-free (Bareiss) elimination, solving and the simplex run on
fractions.Fraction.  No floating point anywhere; cone-membership questions
are decided at exactly degenerate boundaries, where floats misclassify.

lp_feasible decides {x >= 0 : Ax = b} with a phase-1-only primal simplex
under Bland's anti-cycling rule, so answers are deterministic.  Feasible
answers carry an exact witness; infeasible answers carry an exact Farkas
certificate y with y^T A >= 0 componentwise and y^T b < 0.  Both are
re-verified by substitution before returning; a failed re-check raises
InvariantError, which (unlike assert) also runs under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


class InvariantError(RuntimeError):
    """An exactness check on a computed result failed; the result is not
    returned."""


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of Fractions (rows tuple-of-tuples, auto-normalized)."""

    rows: tuple
    num_cols: int

    @classmethod
    def from_rows(cls, rows, num_cols=None) -> "RationalMatrix":
        conv = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if conv:
            num_cols = len(conv[0])
            if any(len(r) != num_cols for r in conv):
                raise ValueError("ragged rows")
        elif num_cols is None:
            num_cols = 0
        return cls(conv, num_cols)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def _as_row_lists(M):
    """Accept RationalMatrix or any sequence of rows; return (rows, ncols)."""
    if isinstance(M, RationalMatrix):
        return [list(r) for r in M.rows], M.num_cols
    rows = [[Fraction(x) for x in row] for row in M]
    return rows, (len(rows[0]) if rows else 0)


def rank(M) -> int:
    """Exact rank by fraction-free (Bareiss) elimination.

    Rows are scaled by their denominator lcm first, so the elimination runs
    on integers with exact divisions only.
    """
    rows, n = _as_row_lists(M)
    irows = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row)) if row else 1
        irows.append([int(x * scale) for x in row])
    m = len(irows)
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if irows[i][c] != 0), None)
        if piv is None:
            continue
        irows[r], irows[piv] = irows[piv], irows[r]
        pivot = irows[r][c]
        for i in range(r + 1, m):
            factor = irows[i][c]
            row_i, row_r = irows[i], irows[r]
            for j in range(c + 1, n):
                num = pivot * row_i[j] - factor * row_r[j]
                q, rem = divmod(num, prev)
                if rem != 0:
                    raise InvariantError("Bareiss division must be exact")
                row_i[j] = q
            row_i[c] = 0
        prev = pivot
        r += 1
    return r


def solve(M, b):
    """Some exact solution x of Mx = b (free variables 0), or None."""
    rows, n = _as_row_lists(M)
    bvec = [Fraction(x) for x in b]
    if len(bvec) != len(rows):
        raise ValueError("dimension mismatch")
    aug = [row + [bvec[i]] for i, row in enumerate(rows)]
    m = len(aug)
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


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
    rows, n = _as_row_lists(A)
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
