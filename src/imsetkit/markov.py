"""Minimal Markov bases of a configuration, degree by degree.

For each degree d up to a cap, enumerate every size-d multiset of columns,
bucket the multisets by their column sum (the fiber), and add one
connecting move per surplus connected component.  Connectivity under the
moves selected at lower degrees reduces to a cheap criterion: two
multisets in the same fiber are connected iff they are linked by a chain
of common columns.  (Sharing a column c lets the lower-degree basis walk
between the two after peeling c, because all lower-degree fibers are
already connected; conversely every lower-degree move keeps at least one
column fixed.)

Per-degree counts of a minimal generating set are independent of the
connecting-move choices, so reports expose the counts (after reduction by
the label-permutation action) as the stable contract, with one canonical
choice of representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .groundset import GroundSet
from .imsets import Configuration
from .linalg import InvariantError, rank
from .relations import BudgetError, Move, _normalize_orientation, symmetry_reduce

MEMORY_BUDGET_BYTES = 2 << 30


def _multiset_index_array(num_cols: int, d: int) -> np.ndarray:
    """All nondecreasing index tuples of length d over range(num_cols),
    lexicographically ordered, as an (N, d) int16 array."""
    if d == 1:
        return np.arange(num_cols, dtype=np.int16).reshape(-1, 1)
    prev = _multiset_index_array(num_cols, d - 1)
    # block b of the previous level holds tuples starting at index >= b
    starts = prev[:, 0]
    out_blocks = []
    for i in range(num_cols):
        tail = prev[starts >= i]
        head = np.full((tail.shape[0], 1), i, dtype=np.int16)
        out_blocks.append(np.hstack([head, tail]))
    return np.vstack(out_blocks)


def _estimate_bytes(num_cols: int, num_rows: int, d: int) -> int:
    n_multi = comb(num_cols + d - 1, d)
    return n_multi * (2 * d + 2 * num_rows + 16)


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


@dataclass(frozen=True)
class MarkovBasisReport:
    """Minimal-basis moves up to a degree cap, reduced by label symmetry."""

    ground: GroundSet
    degree_cap: int
    per_degree_counts: dict
    representatives: tuple
    complete: bool

    def to_json(self) -> dict:
        return {
            "degree_cap": self.degree_cap,
            "per_degree_counts": {str(d): c for d, c in sorted(self.per_degree_counts.items())},
            "complete": self.complete,
            "representatives": [m.to_json() for m in self.representatives],
        }

    def to_csv(self) -> str:
        lines = ["degree,representatives"]
        for d, c in sorted(self.per_degree_counts.items()):
            lines.append(f"{d},{c}")
        return "\n".join(lines) + "\n"


def _connecting_moves_for_fiber(members, idx, num_cols, tie_break):
    """Connecting difference vectors (one per surplus component) for the
    multisets `members` (row ids into idx) of one fiber."""
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
                elif tie_break == "least":
                    best = min(best, cand)
                else:
                    best = max(best, cand)
        # soundness: elements of distinct components never share a column,
        # so the connecting move has degree exactly d and joining the two
        # components leaves the fiber processed so far fully connected
        if sum(v for v in best if v > 0) != d:
            raise InvariantError(f"connecting move has degree other than {d}")
        out.append(best)
        connected.extend(comp)
    return out


def _is_full_configuration(cfg: Configuration) -> bool:
    ranks = {e.rank for e in cfg.columns}
    return len(ranks) == cfg.num_cols == cfg.ground.num_elementary


def markov_basis(cfg: Configuration, degree_cap: int, tie_break: str = "least") -> MarkovBasisReport:
    """Minimal Markov basis moves of degree ≤ degree_cap, with per-degree
    representative counts under the label-permutation action.

    tie_break in {"least", "greatest"} picks between equally valid
    connecting moves; per-degree counts do not depend on it.
    """
    if degree_cap < 2:
        raise ValueError("degree cap must be at least 2")
    if tie_break not in ("least", "greatest"):
        raise ValueError("tie_break must be 'least' or 'greatest'")
    g = cfg.ground
    column_ranks = [e.rank for e in cfg.columns]
    full = _is_full_configuration(cfg)
    cols_np = np.array(cfg.matrix, dtype=np.int8)  # (num_rows, num_cols)
    num_rows, num_cols = cols_np.shape

    # every degree is checked against the budget before any index is built
    for d in range(2, degree_cap + 1):
        estimate = _estimate_bytes(num_cols, num_rows, d)
        if estimate > MEMORY_BUDGET_BYTES:
            raise BudgetError(
                f"degree {d} needs about {estimate >> 20} MiB, over the "
                f"{MEMORY_BUDGET_BYTES >> 20} MiB budget"
            )

    raw_by_degree = {}
    for d in range(2, degree_cap + 1):
        idx = _multiset_index_array(num_cols, d)
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
                for diff in _connecting_moves_for_fiber(members, idx, num_cols, tie_break):
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
    else:
        # for a proper column subset we can certify completeness only in
        # the trivial-kernel case (no two multisets ever share a sum)
        complete = _kernel_trivial(cfg)
    return MarkovBasisReport(g, degree_cap, per_degree, tuple(reps), complete)


def _kernel_trivial(cfg: Configuration) -> bool:
    return rank(cfg.matrix) == cfg.num_cols
