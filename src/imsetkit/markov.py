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
  sum of its column keys.  The index is column-major, (d, N) int16 with
  row t holding entry t of every multiset.  The lexicographic index of the
  size-(d+1) multisets is each column i followed by the size-d multisets
  that start at i or later, d contiguous row slices per column into a
  preallocated array, and the key of such a multiset is col_keys[i] plus
  the key of its size-d suffix, so no degree re-sums its keys.  The keys
  of the last degree are sorted in place and then dropped.
* Fibers by one sort.  One in-place sort of the uint64 words
  (key - min) >> r << s | position, s the bit length of the last
  position, puts the multisets of equal keys in one run, ascending inside
  the run.  r is the fewest low key bits to drop to keep a word under
  2^63: 0 on every shape up to 48 columns at degree 4, 3 on the full n=5
  configuration at degree 4.  A key is linear in the column sum, so
  equal sums have equal keys and every fiber lies inside one run.
* Fibers are exact-sum classes.  Each column's entries plus 1 (so in
  {0, 1, 2}) are packed into unsigned lanes of uint64 words, one lane per
  row some column touches, and the words of the d columns of every run
  member are added.  A lane of such a sum stays in [0, 2d]; the lanes are
  packed once per call, 4 bits wide while 2·cap < 16 and 8 bits up to cap
  127, so no lane carries into the next, and two members have equal words
  exactly when they have equal column sums.  Adjacent members of a run
  are compared; a run with a mismatch (a 64-bit key collision, or keys
  merged by r > 0) is regrouped by a stable lexsort of its members' words,
  and only such runs pay for it.  The key orders the multisets; the lanes
  decide the fibers, so no answer depends on the hash.
* Components.  A two-member fiber has two components exactly when its
  two multisets share no column, one (d, d, k) comparison for all such
  fibers.  For the fibers of three or more members, one sort of the words
  (fiber, column, member) links the members that share a (fiber, column)
  node, and min-label propagation with pointer jumping over those links
  finds the common-column components of all of them at once.
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
    """The lexicographic column-major (d + 1, N) int16 index of all
    nondecreasing tuples of length d + 1 over the columns, with their int64
    keys, from those of length d: each column i followed by the suffix of
    tuples that start at i or later, keyed col_keys[i] plus the suffix's
    key.  Row t of the index holds entry t of every tuple."""
    d, num_prev = prev.shape
    counts = num_prev - np.searchsorted(prev[0], np.arange(len(col_keys)))
    idx = np.empty((d + 1, int(counts.sum())), dtype=np.int16)
    keys = np.empty(idx.shape[1], dtype=np.int64)
    idx[0] = np.repeat(np.arange(len(col_keys), dtype=np.int16), counts)
    lo = 0
    for i, count in enumerate(counts.tolist()):
        hi = lo + count
        idx[1:, lo:hi] = prev[:, num_prev - count :]
        np.add(prev_keys[num_prev - count :], col_keys[i], out=keys[lo:hi])
        lo = hi
    return idx, keys


def _estimate_bytes(num_cols: int, num_rows: int, d: int) -> int:
    """An upper bound on the bytes of the arrays alive together at degree
    d.  Nothing bounds the fiber members below the N multisets before the
    pass, so every multiset counts as a member of a fiber of three or more.
    Per multiset: the (d, N) int16 index and the carried int64 key (2d + 8)
    throughout, and the larger of the sort (the key copy it sorts, the
    positions, two flag arrays and the members it returns: 27) and the
    fibers (per member its id, flag, row, label and fiber bookkeeping,
    2d + 41; its packed lane sums over num_rows rows, with a gather
    temporary, 8 per word; and the propagation's incidence words, links
    and labels, 36d + 16).  The previous degree's index and keys, alive
    while this degree's are built, are smaller than the sort's arrays."""
    n_multi = comb(num_cols + d - 1, d)
    words = -(-num_rows // (64 // _lane_bits(d)))
    return n_multi * (2 * d + 8 + max(27, 38 * d + 57 + 8 * words))


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


def _lane_bits(d: int) -> int:
    """Bits of the narrowest lane, of 4, 8, 16 or 64, that holds 2d."""
    return next(bits for bits in (4, 8, 16, 64) if 2 * d < 1 << bits)


def _packed_lanes(cols_t: np.ndarray, d: int) -> np.ndarray:
    """Row w holds word w of every column: the column's entries plus 1 in
    lanes of _lane_bits(d) bits, lane j of a word at bit j times the width,
    so the words of up to d columns add without a carry between lanes."""
    bits = _lane_bits(d)
    per = 64 // bits
    num_cols, num_rows = cols_t.shape
    vals = np.zeros((num_cols, -(-num_rows // per), per), dtype=np.uint64)
    np.add(cols_t, 1, out=vals.reshape(num_cols, per * vals.shape[1])[:, :num_rows], casting="unsafe")
    vals <<= np.arange(0, 64, bits, dtype=np.uint64)
    return np.ascontiguousarray(np.bitwise_or.reduce(vals, axis=2).T)


def _fiber_members(keys):
    """The runs of one degree that may hold a fiber, from the multisets'
    keys (overwritten): one sort of the words (key - min) >> r << s |
    position, s the bit length of the last position and r the fewest low
    key bits to drop to keep a word under 2^63.  Returns the members of the
    runs of two or more multisets with equal words >> s, as row ids into
    the index (run by run, ascending inside a run), and a flag on each
    run's first member."""
    lo = int(keys.min())
    s = (len(keys) - 1).bit_length()
    r = max(0, (int(keys.max()) - lo).bit_length() + s - 63)
    words = keys.view(np.uint64)
    words -= np.uint64(lo % (1 << 64))
    if r:
        words >>= np.uint64(r)
    words <<= np.uint64(s)
    pos = np.arange(len(words), dtype=np.uint64)
    words |= pos
    words.sort()
    np.bitwise_and(words, np.uint64((1 << s) - 1), out=pos)
    words >>= np.uint64(s)
    after = np.concatenate(([False], words[1:] == words[:-1]))
    keep = after.copy()
    keep[:-1] |= after[1:]
    return pos[keep].view(np.int64), ~after[keep]


def _fiber_components(idx, members, starts, lanes):
    """The fibers of one degree inside its key runs, and each fiber
    member's component label (the position of the component's least
    member).  Equal column sums have equal keys, so every fiber lies in one
    run; a run whose members' packed lane sums differ (a key collision, or
    keys merged by the shift) is split by a stable sort of those sums."""
    d = idx.shape[0]
    rows = np.take(idx, members, axis=1)
    sums = np.empty((len(lanes), len(members)), dtype=np.uint64)
    differ = np.zeros_like(starts[1:])
    for word, out in zip(lanes, sums):
        np.take(word, rows[0], out=out)
        for t in range(1, d):
            out += word.take(rows[t])
        differ |= out[1:] != out[:-1]
    if np.any(differ & ~starts[1:]):
        # regroup the runs with a mismatch by their sums, each in its range
        run = np.cumsum(starts) - 1
        mixed = np.zeros(run[-1] + 1, dtype=bool)
        mixed[run[1:][differ & ~starts[1:]]] = True
        p = np.flatnonzero(mixed[run])
        order = np.arange(len(members))
        order[p] = p[np.lexsort((*sums[::-1, p], run[p]))]
        members, rows, sums = members[order], rows[:, order], sums[:, order]
        starts = starts | np.concatenate(([True], np.any(sums[:, 1:] != sums[:, :-1], axis=0)))
        keep = ~(starts & np.append(starts[1:], True))
        members, starts, rows = members[keep], starts[keep], rows[:, keep]
    del sums

    labels = np.arange(len(members))
    first = np.flatnonzero(starts)
    sizes = np.diff(np.append(first, len(members)))
    # a two-member fiber has two components exactly when its rows share no column
    pair = first[sizes == 2]
    a, b = np.take(rows, pair, axis=1), np.take(rows, pair + 1, axis=1)
    shared = (a[:, None, :] == b[None, :, :]).any(axis=(0, 1))
    labels[pair + 1] = np.where(shared, pair, pair + 1)
    big = np.flatnonzero(np.repeat(sizes >= 3, sizes))
    if len(big):
        fiber = (np.cumsum(starts) - 1)[big]
        local = _common_column_components(np.take(rows, big, axis=1), fiber, lanes.shape[1])
        labels[big] = big[local]
    return members, starts, labels


def _common_column_components(rows, fiber, num_cols):
    """Component label (position of the least member) of each member, a
    column of rows, under "shares a column with" inside its fiber: one
    sort of the words (fiber, column, member) links the members of each
    (fiber, column) node in a path, and min-label propagation with pointer
    jumping runs over those links."""
    d, k = rows.shape
    s = (k - 1).bit_length()
    if ((int(fiber[-1]) + 1) * num_cols) >> (63 - s):
        raise BudgetError(f"{k} fiber members of degree {d} are too many to sort in one pass")
    words = fiber * num_cols + rows
    words <<= s
    words |= np.arange(k)
    words = words.ravel()
    words.sort()
    node = words >> s
    link = node[1:] == node[:-1]
    del node
    words &= (1 << s) - 1
    u, v = words[:-1][link], words[1:][link]
    del words, link
    labels = np.arange(k)
    while True:
        lu, lv = labels[u], labels[v]
        if np.array_equal(lu, lv):
            return labels
        np.minimum.at(labels, u, lv)
        np.minimum.at(labels, v, lu)
        labels = labels[labels]


def _connecting_differences(idx, members, starts, labels, num_cols):
    """The lexicographically least connecting difference of every surplus
    component of one degree, as multiplicity vectors over the columns,
    fiber by fiber and, inside a fiber, by least member.  A component is
    joined to the union of the components with a lesser least member, so
    each member x of a later component pairs with every member y of its
    fiber whose label is less than x's."""
    d = idx.shape[0]
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
    cells = np.arange(len(x)) * num_cols
    size = len(x) * num_cols
    diffs = (
        np.bincount((cells + np.take(idx, members[x], axis=1)).ravel(), minlength=size)
        - np.bincount((cells + np.take(idx, members[y], axis=1)).ravel(), minlength=size)
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
    # lanes wide enough for the cap serve every degree up to it; a row no
    # column touches adds the same to every sum, so it gets no lane
    lanes = _packed_lanes(cols_t[:, cols_t.any(axis=0)], degree_cap)
    idx, keys = np.arange(num_cols, dtype=np.int16).reshape(1, -1), col_keys
    diffs = [np.zeros((0, num_cols), dtype=np.int64)]
    for d in range(2, 2 if trivial else degree_cap + 1):
        idx, keys = _extend_index(idx, keys, col_keys)
        members, starts = _fiber_members(keys if d == degree_cap else keys.copy())
        if d == degree_cap:
            del keys  # sorted in place, and no later degree extends them
        members, starts, labels = _fiber_components(idx, members, starts, lanes)
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
