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

Every Markov move stays an integer array until it is an orbit
representative; each degree is one array pass:

* Keys carried from degree to degree.  Column j gets the int64 key w·A_j
  for fixed seeded weights w (drawn once per process) and a multiset the
  sum of its column keys.  The lexicographic index of the size-(d+1)
  multisets is each column i followed by the size-d rows that start at i
  or later, one slice per column into a preallocated array, and the key of
  such a row is col_keys[i] plus the key of its size-d suffix, so no
  degree re-sums its keys.  The keys of the last degree are dropped once
  its fibers are known.
* Fibers by one sort.  One argsort puts every fiber in one run of equal
  keys.  The sort is unstable: a second argsort by (fiber, multiset), over
  the fiber members only, makes the fiber order explicit and puts each
  fiber's members in ascending order.
* The exact check on packed lanes.  Each column's entries plus 1 (so in
  {0, 1, 2}) are packed into unsigned lanes of uint64 words, and the words
  of the d columns of every fiber member are added.  A lane of such a sum
  stays in [0, 2d]; the lane width is the narrowest that holds 2d (8 bits
  up to degree 127), so no lane carries into the next, and two members
  have equal words exactly when they have equal column sums.  Adjacent
  members of a fiber with different words (a hash collision) raise
  InvariantError, so no answer depends on the hash.
* Components.  A two-member fiber has two components exactly when its
  two multisets share no column, one (k, d, d) comparison for all such
  fibers.  Min-label propagation over the (fiber, column) incidences finds
  the common-column components of all fibers of three or more members at
  once.
* Connecting moves in one pass.  For all surplus components of a degree
  at once, each member of a later component is paired with every member
  of an earlier component of its fiber (components in the order of their
  least multiset); the lexicographically least multiplicity difference of
  each component, found by one lexsort on byte keys, is its connecting
  move, and every such move is checked to have degree exactly d.

Per-degree counts of a minimal generating set are independent of the
connecting-move choices, so reports expose the counts (after reduction by
the label-permutation action) as the stable contract, with one canonical
choice of representatives.  The connecting differences of all degrees are
canonicalised at once by relations._least_images on their array, under
the label permutations that fix the column set (orbits keep the degree),
and the representatives are sorted stably by degree.  A Move, with its
exact kernel check, is built only for each representative: every other
difference is a kernel vector already, because its two multisets passed
the exact sum check.
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
from .relations import BudgetError, Move, _byte_keys, _least_images, _lex_codes, _stabiliser

MEMORY_BUDGET_BYTES = 2 << 30
_KEY_SEED = 20240817


def _extend_index(prev: np.ndarray, prev_keys: np.ndarray, col_keys: np.ndarray) -> tuple:
    """The lexicographic (N, d + 1) int16 index of all nondecreasing tuples
    of length d + 1 over the columns, with their int64 keys, from those of
    length d: each column i followed by the suffix of rows that start at i
    or later, keyed col_keys[i] plus the suffix row's key."""
    num_prev, d = prev.shape
    starts = np.searchsorted(prev[:, 0], np.arange(len(col_keys))).tolist()
    total = sum(num_prev - s for s in starts)
    idx = np.empty((total, d + 1), dtype=np.int16)
    keys = np.empty(total, dtype=np.int64)
    lo = 0
    for i, s in enumerate(starts):
        hi = lo + num_prev - s
        idx[lo:hi, 0] = i
        idx[lo:hi, 1:] = prev[s:]
        np.add(prev_keys[s:], col_keys[i], out=keys[lo:hi])
        lo = hi
    return idx, keys


def _estimate_bytes(num_cols: int, num_rows: int, d: int) -> int:
    """An upper bound on the bytes of degree d, not a per-array account:
    per multiset, the int16 index (2d), its carried int64 key (8) and the
    argsort order with the sorted keys (16); and, for at most as many fiber
    members, their int16 rows (2d), ids, fiber order and labels (24), the
    packed lane sums with their gather temporary (2 · 8 bytes per word of
    num_rows lanes) and the int64 incidence arrays of the propagation
    (48d).  The previous degree's index and keys are smaller than these."""
    n_multi = comb(num_cols + d - 1, d)
    lane_sums = 2 * 8 * -(-num_rows * _lane_bytes(d) // 8)
    return n_multi * (52 * d + 48 + lane_sums)


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


def _lane_bytes(d: int) -> int:
    """Bytes of the narrowest unsigned lane that holds 2d."""
    return 1 if 2 * d < 1 << 8 else 2 if 2 * d < 1 << 16 else 8


def _packed_lanes(cols_t: np.ndarray, d: int) -> np.ndarray:
    """Each column's entries plus 1 in lanes of _lane_bytes(d), packed into
    uint64 words: words of d columns add without a carry between lanes."""
    width = _lane_bytes(d)
    num_cols, num_rows = cols_t.shape
    out = np.zeros((num_cols, -(-num_rows * width // 8) * 8 // width), dtype=f"u{width}")
    np.add(cols_t, 1, out=out[:, :num_rows], casting="unsafe")
    return out.view(np.uint64)


def _fiber_members(keys):
    """The non-singleton fibers of one degree, from the multisets' keys:
    their members as row ids into the index (fiber by fiber, ascending
    inside a fiber) and a flag on each fiber's first member."""
    order = np.argsort(keys)
    sorted_keys = keys[order]
    same = sorted_keys[1:] == sorted_keys[:-1]
    del sorted_keys
    pos = np.flatnonzero(np.concatenate(([False], same)) | np.concatenate((same, [False])))
    starts = np.concatenate(([True], ~same))[pos]
    members = order[pos]
    del order, same, pos
    # the unstable sort leaves each fiber in one run; put its members in
    # ascending order
    fiber = np.cumsum(starts) - 1
    return members[np.argsort(fiber * len(keys) + members)], starts


def _fiber_components(idx, members, starts, cols_t):
    """Each fiber member's component label (the position of the
    component's least member), after the exact check of the fibers."""
    d = idx.shape[1]
    rows = np.take(idx, members, axis=0)

    # exact check: equal keys must mean equal column sums
    lanes = _packed_lanes(cols_t, d)
    sums = np.take(lanes, rows[:, 0], axis=0)
    for t in range(1, d):
        sums += np.take(lanes, rows[:, t], axis=0)
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
        fiber = (np.cumsum(starts) - 1)[big]
        local = _common_column_components(np.take(rows, big, axis=0), fiber, cols_t.shape[0])
        labels[big] = big[local]
    return labels


def _common_column_components(rows, fiber, num_cols):
    """Component label (position of the least member) of each row under
    "shares a column with" inside its fiber: min-label propagation with
    pointer jumping over the (fiber, column) incidence nodes, column-major."""
    k, d = rows.shape
    node_key = (fiber * num_cols + rows.T).ravel()
    inc_order = np.argsort(node_key)
    node_key = node_key[inc_order]
    node_start = np.empty(len(node_key), dtype=bool)
    node_start[0] = True
    np.not_equal(node_key[1:], node_key[:-1], out=node_start[1:])
    del node_key
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


def _connecting_differences(idx, members, starts, labels, num_cols):
    """The lexicographically least connecting difference of every surplus
    component of one degree, as multiplicity vectors over the columns,
    fiber by fiber and, inside a fiber, by least member.  A component is
    joined to the union of the components with a lesser least member, so
    each row x of a later component pairs with every row y of its fiber
    whose label is less than x's."""
    d = idx.shape[1]
    first = np.flatnonzero(starts)
    sizes = np.diff(np.append(first, len(labels)))
    surplus = np.add.reduceat(labels == np.arange(len(labels)), first) >= 2
    x = np.flatnonzero(np.repeat(surplus, sizes))
    if not len(x):
        return np.zeros((0, num_cols), dtype=np.int64)
    span = np.repeat(sizes, sizes)[x]
    lo = np.repeat(np.repeat(first, sizes)[x], span)
    x = np.repeat(x, span)
    y = lo + np.arange(len(x)) - np.repeat(np.cumsum(span) - span, span)
    later = labels[y] < labels[x]
    x, y = x[later], y[later]
    # the multiplicity vector of x's multiset minus that of y's
    cells = np.arange(len(x))[:, None] * num_cols
    size = len(x) * num_cols
    diffs = (
        np.bincount((cells + np.take(idx, members[x], axis=0)).ravel(), minlength=size)
        - np.bincount((cells + np.take(idx, members[y], axis=0)).ravel(), minlength=size)
    ).reshape(len(x), num_cols)
    comp = labels[x]
    order = np.lexsort((_byte_keys(_lex_codes(diffs)[0]), comp))
    comp = comp[order]
    best = diffs[order[np.concatenate(([True], comp[1:] != comp[:-1]))]]
    # soundness: elements of distinct components never share a column, so
    # the connecting move has degree exactly d and joining the two
    # components leaves the fiber processed so far fully connected
    if np.any(np.maximum(best, 0).sum(axis=1) != d):
        raise InvariantError(f"connecting move has degree other than {d}")
    return best


def _is_full_configuration(cfg: Configuration) -> bool:
    ranks = {e.rank for e in cfg.columns}
    return len(ranks) == cfg.num_cols == cfg.ground.num_elementary


def _representatives(g: GroundSet, column_ranks, diffs: np.ndarray) -> list:
    """One Move per orbit of the connecting differences (rows over the
    columns, whose elementary ranks are column_ranks) under negation and
    the label permutations that fix the column set: the least image,
    ordered by degree and lexicographically inside a degree."""
    if not len(diffs):
        return []
    by_rank = np.argsort(column_ranks)
    ranks = np.asarray(column_ranks)[by_rank]
    least = _least_images(diffs[:, by_rank], ranks, _stabiliser(g, ranks))
    least = least[np.argsort(np.maximum(least, 0).sum(axis=1), kind="stable")]
    coeffs = np.zeros((len(least), g.num_elementary), dtype=np.int64)
    coeffs[:, ranks] = least
    return [Move(g, tuple(row)) for row in coeffs.tolist()]


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
    idx, keys = np.arange(num_cols, dtype=np.int16).reshape(-1, 1), col_keys
    diffs = [np.zeros((0, num_cols), dtype=np.int64)]
    for d in range(2, 2 if trivial else degree_cap + 1):
        idx, keys = _extend_index(idx, keys, col_keys)
        members, starts = _fiber_members(keys)
        if d == degree_cap:
            del keys  # no later degree extends them
        labels = _fiber_components(idx, members, starts, cols_t)
        diffs.append(_connecting_differences(idx, members, starts, labels, num_cols))
    reps = _representatives(g, column_ranks, np.concatenate(diffs))
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
    # always have a kernel; otherwise rank the columns as rows, over only
    # the subsets some column touches
    n = cfg.ground.n
    if cfg.num_cols > 2**n - n - 1:
        return False
    return rank(list(zip(*(row for row in cfg.matrix if any(row))))) == cfg.num_cols
