"""Minimal Markov bases of a configuration, degree by degree.

For each degree d up to a cap, enumerate every size-d multiset of columns,
group the multisets by their column sum (the fiber), and add one
connecting move per surplus connected component.  Connectivity under the
moves selected at lower degrees reduces to a cheap criterion: two
multisets in the same fiber are connected iff they are linked by a chain
of common columns.  (Sharing a column c lets the lower-degree basis walk
between the two after peeling c, because all lower-degree fibers are
already connected; conversely every lower-degree move keeps at least one
column fixed.)

Each degree is one array pass.  The lexicographic index of the size-d
multisets is carried through the degree loop: degree d+1 is each column i
followed by the degree-d rows that start at i or later.  Column j gets the
int64 key w·A_j for fixed seeded weights w (drawn once per process) and a
multiset the sum of its column keys, so one argsort puts every fiber in
one run of equal keys.  The sort is unstable: a second argsort by (fiber,
multiset), over the fiber members only, makes the fiber order explicit
and puts each fiber's members in ascending order.  Inside a run the
integer column sums of adjacent multisets are compared exactly: a
mismatch (a hash collision) raises InvariantError, so no answer depends
on the hash.  A two-member fiber has two components exactly when its two
multisets share no column, one (k, d, d) comparison for all such fibers.
Min-label propagation over the (fiber, column) incidences finds the
common-column components of all fibers of three or more members at once.
Python runs only for the few fibers with two or more components, to pick
the lexicographically least connecting difference, joining components in
the order of their least multiset.

Per-degree counts of a minimal generating set are independent of the
connecting-move choices, so reports expose the counts (after reduction by
the label-permutation action) as the stable contract, with one canonical
choice of representatives.  The moves of all degrees are reduced in one
symmetry_reduce call; orbits keep the degree, so the representatives are
then sorted stably by degree and counted.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from .groundset import MAX_GROUND_SIZE, GroundSet
from .imsets import Configuration
from .linalg import InvariantError, rank
from .relations import BudgetError, Move, symmetry_reduce

MEMORY_BUDGET_BYTES = 2 << 30
_KEY_SEED = 20240817


def _extend_index(prev: np.ndarray, num_cols: int) -> np.ndarray:
    """The lexicographic (N, d + 1) int16 index of all nondecreasing tuples
    of length d + 1 over range(num_cols), from the one of length d: each
    column i followed by the suffix of rows that start at i or later."""
    starts = np.searchsorted(prev[:, 0], np.arange(num_cols))
    return np.vstack([
        np.column_stack([np.full(len(prev) - s, i, dtype=np.int16), prev[s:]])
        for i, s in enumerate(starts)
    ])


def _estimate_bytes(num_cols: int, num_rows: int, d: int) -> int:
    """An upper bound on the bytes of degree d, not a per-array account:
    per multiset, the int16 index (2d), the keys with their temporary,
    order and sorted keys (8d + 16), and, for at most as many fiber
    members, their int16 rows, int8 column sums, ids and labels
    (2d + num_rows + 24) and the int64 incidence arrays of the
    propagation (48d)."""
    n_multi = comb(num_cols + d - 1, d)
    return n_multi * (60 * d + num_rows + 40)


def check_degree_cap(num_cols: int, num_rows: int, degree_cap: int) -> None:
    """ValueError for a cap below 2, BudgetError if some degree up to the cap
    would exceed MEMORY_BUDGET_BYTES; needs only the configuration's shape,
    so it can run before the configuration is built."""
    if degree_cap < 2:
        raise ValueError("degree cap must be at least 2")
    # the estimate is nondecreasing in d: bisect for the least failing degree
    degrees = range(2, degree_cap + 1)
    i = bisect_left(
        degrees, True, key=lambda d: _estimate_bytes(num_cols, num_rows, d) > MEMORY_BUDGET_BYTES
    )
    if i < len(degrees):
        d = degrees[i]
        estimate = _estimate_bytes(num_cols, num_rows, d)
        raise BudgetError(
            f"degree {d} needs about {estimate >> 20} MiB, over the "
            f"{MEMORY_BUDGET_BYTES >> 20} MiB budget"
        )


@cache
def _key_weights() -> np.ndarray:
    """One seeded weight per subset of the largest ground set, drawn on
    first use (importing numpy.random costs every process megabytes); a
    longer draw extends a shorter one, so a configuration's keys are those
    of a draw of its row count."""
    w = np.random.default_rng(_KEY_SEED).integers(-(1 << 40), 1 << 40, size=1 << MAX_GROUND_SIZE)
    w.flags.writeable = False
    return w


def _column_keys(cols_t: np.ndarray) -> np.ndarray:
    """int64 key w·A_j of each column j (row j of cols_t), w fixed and seeded."""
    return cols_t.astype(np.int64) @ _key_weights()[: cols_t.shape[1]]


@dataclass(frozen=True)
class MarkovBasisReport:
    """Minimal-basis moves up to a degree cap, reduced by label symmetry;
    complete_source says why they generate the kernel: "literature
    (n <= 4)", "certified (trivial kernel)" or "unknown"."""

    ground: GroundSet
    degree_cap: int
    per_degree_counts: dict
    representatives: tuple
    complete_source: str

    @property
    def complete(self) -> bool:
        return self.complete_source != "unknown"

    def to_json(self) -> dict:
        return {
            "degree_cap": self.degree_cap,
            "per_degree_counts": {str(d): c for d, c in sorted(self.per_degree_counts.items())},
            "complete": self.complete,
            "complete_source": self.complete_source,
            "representatives": [m.to_json() for m in self.representatives],
        }

    def to_csv(self) -> str:
        lines = ["degree,representatives"]
        for d, c in sorted(self.per_degree_counts.items()):
            lines.append(f"{d},{c}")
        return "\n".join(lines) + "\n"


def _split_fibers(idx, cols_t, col_keys):
    """The non-singleton fibers of one degree: their members as row ids
    into idx (fiber by fiber, ascending inside a fiber), a flag on each
    fiber's first member, and each member's component label (the position
    of the component's least member)."""
    n_multi, d = idx.shape
    keys = np.take(col_keys, idx[:, 0])
    for t in range(1, d):
        keys += np.take(col_keys, idx[:, t])
    order = np.argsort(keys)
    keys = keys[order]
    same = keys[1:] == keys[:-1]
    pos = np.flatnonzero(np.concatenate(([False], same)) | np.concatenate((same, [False])))
    starts = np.concatenate(([True], ~same))[pos]
    members = order[pos]
    del keys, order, same, pos
    # the unstable sort leaves each fiber in one run; put its members in
    # ascending order
    fiber = np.cumsum(starts) - 1
    members = members[np.argsort(fiber * n_multi + members)]
    rows = np.take(idx, members, axis=0)

    # exact check: equal keys must mean equal column sums (|entries| <= d)
    sums = np.take(cols_t, rows[:, 0], axis=0)
    for t in range(1, d):
        sums += np.take(cols_t, rows[:, t], axis=0)
    if np.any(np.any(sums[1:] != sums[:-1], axis=1) & ~starts[1:]):
        raise InvariantError("multisets with equal keys have different column sums")
    del sums

    labels = np.arange(len(members))
    first = np.flatnonzero(starts)
    sizes = np.diff(np.append(first, len(members)))
    # a two-member fiber has two components exactly when its rows share no column
    pair = first[sizes == 2]
    a, b = np.take(rows, pair, axis=0), np.take(rows, pair + 1, axis=0)
    shared = (a[:, :, None] == b[:, None, :]).any(axis=(1, 2))
    labels[pair + 1] = np.where(shared, pair, pair + 1)
    big = np.flatnonzero(np.repeat(sizes >= 3, sizes))
    if len(big):
        local = _common_column_components(np.take(rows, big, axis=0), fiber[big], cols_t.shape[0])
        labels[big] = big[local]
    return members, starts, labels


def _common_column_components(rows, fiber, num_cols):
    """Component label (position of the least member) of each row under
    "shares a column with" inside its fiber: min-label propagation with
    pointer jumping over the (fiber, column) incidence nodes, column-major."""
    k, d = rows.shape
    node_key = (fiber * num_cols + rows.T).ravel()
    inc_order = np.argsort(node_key)
    node_start = np.diff(node_key[inc_order], prepend=-1) != 0
    node_of = np.empty_like(inc_order)
    node_of[inc_order] = np.cumsum(node_start) - 1
    node_of = node_of.reshape(d, k)
    inc_member, node_first = inc_order % k, np.flatnonzero(node_start)
    labels = np.arange(k)
    while True:
        node_min = np.minimum.reduceat(labels[inc_member], node_first)
        new = node_min[node_of[0]]
        for t in range(1, d):
            np.minimum(new, node_min[node_of[t]], out=new)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _connecting_moves(rows, labels, num_cols):
    """Lexicographically least connecting difference for every surplus
    component of one fiber; rows ascend and labels name the least member
    of each row's component."""
    counts = np.stack([np.bincount(r, minlength=num_cols) for r in rows])
    comp_ids = list(dict.fromkeys(labels.tolist()))  # by least member
    connected = counts[labels == comp_ids[0]]
    out = []
    for cid in comp_ids[1:]:
        comp = counts[labels == cid]
        diffs = (comp[:, None, :] - connected[None, :, :]).reshape(-1, num_cols)
        best = diffs[np.lexsort(diffs.T[::-1])[0]]
        # soundness: elements of distinct components never share a column,
        # so the connecting move has degree exactly d and joining the two
        # components leaves the fiber processed so far fully connected
        if best[best > 0].sum() != rows.shape[1]:
            raise InvariantError(f"connecting move has degree other than {rows.shape[1]}")
        out.append(best.tolist())
        connected = np.vstack([connected, comp])
    return out


def _is_full_configuration(cfg: Configuration) -> bool:
    ranks = {e.rank for e in cfg.columns}
    return len(ranks) == cfg.num_cols == cfg.ground.num_elementary


def markov_basis(cfg: Configuration, degree_cap: int) -> MarkovBasisReport:
    """Minimal Markov basis moves of degree ≤ degree_cap, with per-degree
    representative counts under the label-permutation action."""
    check_degree_cap(cfg.num_cols, cfg.num_rows, degree_cap)
    g = cfg.ground
    column_ranks = [e.rank for e in cfg.columns]
    cols_t = np.ascontiguousarray(np.array(cfg.matrix, dtype=np.int8).T)
    num_cols = cols_t.shape[0]
    col_keys = _column_keys(cols_t)
    full = _is_full_configuration(cfg)
    # for a proper column subset we can certify completeness only in the
    # trivial-kernel case, where no two multisets share a sum: no degree
    # has moves, so the loop is skipped
    trivial = not full and _kernel_trivial(cfg)
    idx = np.arange(num_cols, dtype=np.int16).reshape(-1, 1)
    moves = []
    for _ in range(2, 2 if trivial else degree_cap + 1):
        idx = _extend_index(idx, num_cols)
        members, starts, labels = _split_fibers(idx, cols_t, col_keys)
        bounds = np.append(np.flatnonzero(starts), len(labels))
        num_comps = np.add.reduceat(labels == np.arange(len(labels)), bounds[:-1])
        for f in np.flatnonzero(num_comps >= 2):
            lo, hi = bounds[f], bounds[f + 1]
            for diff in _connecting_moves(idx[members[lo:hi]], labels[lo:hi], num_cols):
                coeffs = [0] * g.num_elementary
                for r, v in zip(column_ranks, diff):
                    coeffs[r] = v
                moves.append(Move(g, tuple(coeffs)))
    reps = sorted(symmetry_reduce(moves, allowed_ranks=column_ranks), key=lambda m: m.degree)
    per_degree = dict(Counter(m.degree for m in reps))

    if full:
        # known from the literature: degree 2 suffices for n <= 3, 4 for n = 4
        known = g.n <= 3 or (g.n == 4 and degree_cap >= 4)
        source = "literature (n <= 4)" if known else "unknown"
    else:
        source = "certified (trivial kernel)" if trivial else "unknown"
    return MarkovBasisReport(g, degree_cap, per_degree, tuple(reps), source)


def _kernel_trivial(cfg: Configuration) -> bool:
    # the span of E(N) has dimension 2^n - n - 1: more columns than that
    # always have a kernel
    n = cfg.ground.n
    return cfg.num_cols <= 2**n - n - 1 and rank(cfg.matrix) == cfg.num_cols
