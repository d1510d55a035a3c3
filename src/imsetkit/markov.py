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
  for fixed weights w (splitmix64 of the subset index, so no numpy
  submodule is loaded for them) and a multiset the sum of its column keys.
  The index is column-major, (d, N) int16 with row t holding entry t of
  every multiset.  The lexicographic index of the size-(d+1) multisets is
  each column i followed by the size-d multisets that start at i or
  later, d contiguous row slices per column into a preallocated array,
  and the key of such a multiset is col_keys[i] plus the key of its size-d
  suffix, so no degree re-sums its keys.
* Fibers by one sort.  One in-place sort of the uint64 words
  (key - min) >> r << s | position, s the bit length of the last
  position, puts the multisets of equal keys in one run, ascending inside
  the run; the positions live only in these words, and the run flags are
  read off them in fixed-size blocks.  r is the fewest low key bits to
  drop to keep a word under 2^63: 0 on every shape up to 48 columns at
  degree 4, 3 on the full n=5 configuration at degree 4 and 7 at degree 5.
  A key is linear in the column sum, so equal sums have equal keys and
  every fiber lies inside one run.  The run members' rows are gathered
  from the index; at the last degree the keys go before the gather and the
  index after it.
* Chunks of whole runs.  No fiber spans two runs, so the members are
  worked in chunks of whole runs, each about _CHUNK_BYTES of work arrays,
  and each chunk's fibers, components and connecting moves are those of
  the whole degree.
* Fibers are exact-sum classes.  Each column's entries plus 1 (so in
  {0, 1, 2}) are packed into unsigned lanes of uint64 words, one lane per
  row some column touches, and the words of the d columns of every run
  member are added.  A lane of such a sum stays in [0, 2d]; the lanes are
  packed once per pass, 4 bits wide while 2·cap < 16 and 8 bits up to cap
  127, so no lane carries into the next, and two members have equal words
  exactly when they have equal column sums.  Adjacent members of a run
  are compared; a run with a mismatch (a 64-bit key collision, or keys
  merged by r > 0) is regrouped by a stable lexsort of its members' words,
  and only such runs pay for it.  The key orders the multisets; the lanes
  decide the fibers, so no answer depends on the hash.
* Components.  A two-member fiber has two components exactly when its
  two multisets share no column, one (d, d, k) comparison for all such
  fibers of a chunk.  For the fibers of three or more members, one sort of
  the words (fiber, column, member) links the members that share a
  (fiber, column) node, and min-label propagation with pointer jumping
  over those links finds the common-column components of all of them.
* Connecting moves.  For the surplus components of a chunk, in batches
  of whole fibers, each member of a later component is paired with every
  member of an earlier component of its fiber (components in the order of
  their least multiset); the lexicographically least multiplicity
  difference of each component, found by one lexsort on byte keys, is its
  connecting move, and every such move is checked to have degree exactly
  d.

Memory.  What is alive at degree d, per multiset of the N: the index and
keys (2d + 8 bytes); during the sort the key copy (none at the last
degree), the two run-flag arrays and the members with their flags; then
the members' rows (2d) and flags, and one chunk's work arrays.  At the
last degree only the rows and flags outlive the gather.  check_degree_cap
bounds all of this from the shape before any work (_estimate_bytes),
against MEMORY_BUDGET_BYTES; the full n=5 configuration at degree 5
estimates 883 MiB and peaks near 0.8 GiB of resident memory.  The
label-permutation tables that canonicalise the moves grow with n!, so
markov_basis bounds them from n and the column count
(_label_table_bytes) before the first degree, unless the kernel is
trivial and they are never built.  The number of connecting moves is not
bounded by the shape, so the pass checks the moves it holds against what
the larger of the two estimates leaves.

One pass per reduced matrix.  The fibers and connecting differences of a
pass depend only on the cap and the int8 matrix of the rows some column
touches, in column order: a row no column touches adds the same to every
sum, and the order of the rows changes no sum's equality.  So the face of
an exactly effective triplet <A|B|C> shares its pass with the face of
<A|B|∅> lifted by C, and with every face whose touched rows are the same
up to order (the 121 faces at n = 3..5 have 17 such matrices).  The pass
runs on that matrix with its rows sorted by their bytes (_pass_key), and
_passes keeps what it found per process: whether the kernel is trivial and
the connecting differences, read-only, keyed by the cap and that matrix.
The memo holds at most _MEMO_ENTRIES passes and _MEMO_BYTES (8 MiB) of
differences, and drops the least recently used first; a pass whose
differences alone are more is not kept.  The tail runs on every call, with
the caller's ground set and column ranks: the representatives and
complete_source.  Reports are those of a pass of the caller's own matrix:
the key weights of the sorted rows order the multisets, but the lanes
decide the fibers, and relations._least_images returns the distinct least
images in ascending order, whatever the order of the differences.  Every
check still runs: the shape estimate and the label-table refusal before
any degree is built (a hit gives the trivial kernel its exemption), the
held differences of a hit against the caller's budget, the degree check on
every difference a miss finds, and the kernel check of every
representative Move.

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
from math import comb, factorial
from threading import Lock

import numpy as np

from .groundset import MAX_GROUND_SIZE, GroundSet
from .imsets import Configuration
from .linalg import InvariantError, rank
from .relations import MEMORY_BUDGET_BYTES, BudgetError, Move
from .relations import _byte_keys, _least_images, _lex_codes, _stabiliser

_KEY_SEED = 20240817
# the work arrays of one chunk of fiber runs, in bytes (a chunk ends at the
# first run boundary past this size, so one longer run is one chunk)
_CHUNK_BYTES = 8 << 20
# sorted words read per step when the run flags are computed
_FLAG_BLOCK = 1 << 16
# copies of the connecting differences alive at once while they are
# concatenated and written as lexicographic codes with their negations
_HELD_COPIES = 8
# the passes kept per process (_passes), and the bytes of connecting
# differences they hold together: as much as one chunk's work arrays
_MEMO_ENTRIES = 32
_MEMO_BYTES = 8 << 20


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
    """An upper bound on the bytes of the arrays alive together in a pass
    up to degree d, from the shape alone: the larger of degree d as the
    last degree and degree d - 1 as an earlier one (a pass up to a larger
    cap needs at least as much), plus, per entry of the dense
    configuration, its list cell and int8 copy and the int64 product of
    the column keys or the uint64 packing of the lanes (17).  The
    connecting differences are not bounded by the shape; the pass checks
    them against what is left as it finds them."""
    last = _degree_bytes(num_cols, num_rows, d, last=True)
    earlier = _degree_bytes(num_cols, num_rows, d - 1, last=False) if d > 2 else 0
    return 17 * num_cols * num_rows + max(last, earlier)


def _degree_bytes(num_cols: int, num_rows: int, d: int, last: bool) -> int:
    """The bytes alive together while the pass works on degree d.  Nothing
    bounds the run members below the N multisets before the pass, so every
    multiset counts as one.  Per multiset, the largest of the stages:
    building the (d, N) int16 index and the int64 keys (2d + 8) from the
    previous degree's (2d + 6 per previous multiset); the sort, with the
    index and keys, the key copy an earlier degree sorts, two flag arrays,
    the members and their run flags (2d + 20, or 2d + 28), and one block
    of xor words; the gather of the members' rows (2d + 9) beside the index,
    and the keys of an earlier degree; and the chunks, with the rows and
    flags (2d + 1) and one chunk's work arrays, at most _CHUNK_BYTES unless
    a single run is longer than a chunk, beside the index and keys of an
    earlier degree (the last degree has dropped both)."""
    n_multi = comb(num_cols + d - 1, d)
    prev = n_multi * d // (num_cols + d - 1)
    words = -(-num_rows // (64 // _lane_bits(d)))
    carried = (2 * d + 8) * n_multi
    work = min(n_multi * _chunk_member_bytes(d, words), _CHUNK_BYTES)
    return max(
        (2 * d + 6) * prev + carried,
        carried + (12 if last else 20) * n_multi + 8 * min(n_multi, _FLAG_BLOCK),
        (2 * d if last else carried) + (2 * d + 9) * n_multi,
        (0 if last else carried) + (2 * d + 1) * n_multi + work,
    )


def check_degree_cap(num_cols: int, num_rows: int, degree_cap: int) -> int:
    """ValueError for a cap below 2, BudgetError if some degree up to the cap
    would exceed MEMORY_BUDGET_BYTES, else the estimate of the whole pass;
    needs only the configuration's shape, so it can run before the
    configuration is built."""
    if degree_cap < 2:
        raise ValueError("degree cap must be at least 2")
    estimate = _estimate_bytes(num_cols, num_rows, degree_cap)
    if estimate <= MEMORY_BUDGET_BYTES:
        return estimate
    # the estimate is nondecreasing in d: bisect for the least failing degree
    degrees = range(2, degree_cap + 1)
    d = degrees[
        bisect_left(degrees, True, key=lambda d: _estimate_bytes(num_cols, num_rows, d) > MEMORY_BUDGET_BYTES)
    ]
    raise _over_budget(f"degree {d} needs", _estimate_bytes(num_cols, num_rows, d))


def _over_budget(what: str, need: int) -> BudgetError:
    return BudgetError(f"{what} about {need >> 20} MiB, over the {MEMORY_BUDGET_BYTES >> 20} MiB budget")


def _label_table_bytes(g: GroundSet, num_cols: int) -> int:
    """An upper bound on the bytes of the label-permutation tables that
    _representatives builds for num_cols columns over g, from n and the
    column count alone: the cached (n!, 2^n) subset images and, beside
    them, the largest of the permutation list with one more (n!, 2^n)
    array while the images are built (relations._subset_images), three
    (n!, |E(N)|) arrays while the rank maps are built (_rank_map_array),
    and the cached rank maps with the stabiliser rows and three
    (n!, num_cols) gathers (_stabiliser, _least_images)."""
    perms, subsets = factorial(g.n), g.num_subsets
    cells = perms * g.num_elementary
    return 8 * perms * subsets + max(
        perms * (48 + 16 * g.n + 8 * subsets),
        8 * subsets**2 + 24 * cells,
        16 * cells + 24 * perms * num_cols,
    )


@cache
def _key_weights() -> np.ndarray:
    """One fixed weight per subset of the largest ground set: splitmix64
    of the subset index (output i of the generator seeded with _KEY_SEED),
    its top 41 bits as a signed int64 in [-2^40, 2^40).  Weight i does not
    depend on how many are made, so a configuration's keys are those of its
    row count, and no numpy submodule is imported for them."""
    x = np.arange(1, (1 << MAX_GROUND_SIZE) + 1, dtype=np.uint64)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x += np.uint64(_KEY_SEED)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    w = (x >> np.uint64(23)).astype(np.int64) - (1 << 40)
    w.flags.writeable = False
    return w


def _column_keys(cols_t: np.ndarray) -> np.ndarray:
    """int64 key w·A_j of each column j (row j of cols_t), w fixed."""
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
    return 4 if 2 * d < 16 else 8 if 2 * d < 256 else 16 if 2 * d < 65536 else 64


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
    run's first member.  The positions live only in the sorted words; the
    run flags are read off them _FLAG_BLOCK words at a time."""
    lo = int(keys.min())
    s = (len(keys) - 1).bit_length()
    r = max(0, (int(keys.max()) - lo).bit_length() + s - 63)
    words = keys.view(np.uint64)
    words -= np.uint64(lo % (1 << 64))
    if r:
        words >>= np.uint64(r)
    words <<= np.uint64(s)
    words |= np.arange(len(words), dtype=np.uint64)
    words.sort()
    # after[i]: word i is in the run of word i - 1, i.e. the two differ
    # only in their position bits
    after = np.empty(len(words), dtype=bool)
    after[0] = False
    for i in range(1, len(words), _FLAG_BLOCK):
        j = min(i + _FLAG_BLOCK, len(words))
        np.less(words[i:j] ^ words[i - 1 : j - 1], np.uint64(1 << s), out=after[i:j])
    keep = after.copy()
    keep[:-1] |= after[1:]
    members = words[keep]
    members &= np.uint64((1 << s) - 1)
    return members.view(np.int64), ~after[keep]


def _chunks(starts, per_member: int):
    """(lo, hi) slices of whole runs (a run starts at each flag of starts),
    each the first run boundary past _CHUNK_BYTES / per_member members."""
    step = max(1, _CHUNK_BYTES // per_member)
    lo, k = 0, len(starts)
    while lo < k:
        hi = lo + step
        if hi >= k:
            hi = k
        else:
            # the next run start (argmax finds the first flag), or the end
            hi += int(np.argmax(starts[hi:]))
            if not starts[hi]:
                hi = k
        yield lo, hi
        lo = hi


def _degree_differences(rows, starts, lanes, num_cols):
    """The connecting differences of one degree from its run members' rows
    (d, k) and run flags, yielded chunk by chunk of whole runs: no fiber
    spans two runs, so each chunk's fibers, components and differences are
    those of the whole degree, and only one chunk's work arrays are alive."""
    for lo, hi in _chunks(starts, _chunk_member_bytes(rows.shape[0], len(lanes))):
        fibers = _fiber_components(rows[:, lo:hi], starts[lo:hi], lanes)
        yield _connecting_differences(*fibers, num_cols)


def _chunk_member_bytes(d: int, words: int) -> int:
    """An upper bound on the bytes of chunk work arrays per run member at
    degree d with `words` lane words: its lane sums (8 per word); its
    order, label, fiber bookkeeping and fiber id (48), and in the
    propagation its row copy, incidence words and node ids (18d), then its
    at most d links with their two labels (32d and 16 for its own label)."""
    return 34 * d + 8 * words + 64


def _fiber_components(rows, starts, lanes):
    """The fibers of one chunk of whole key runs, from its members' rows
    (d, k) and run flags: (rows, starts, labels), the rows of the fiber
    members (fiber by fiber, in run order inside a fiber), a flag on each
    fiber's first member and each member's component label (the position
    of the component's least member).  Equal column sums have equal keys,
    so every fiber lies in one run; a run whose members' packed lane sums
    differ (a key collision, or keys merged by the shift) is split by a
    stable sort of those sums."""
    d, k = rows.shape
    sums = np.empty((len(lanes), k), dtype=np.uint64)
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
        order = np.arange(k)
        order[p] = p[np.lexsort((*sums[::-1, p], run[p]))]
        rows, sums = rows[:, order], sums[:, order]
        starts = starts | np.concatenate(([True], np.any(sums[:, 1:] != sums[:, :-1], axis=0)))
        keep = ~(starts & np.append(starts[1:], True))
        starts, rows = starts[keep], rows[:, keep]
    del sums, differ

    labels = np.arange(len(starts))
    first = np.flatnonzero(starts)
    sizes = np.diff(np.append(first, len(starts)))
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
    return rows, starts, labels


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


def _connecting_differences(rows, starts, labels, num_cols):
    """The lexicographically least connecting difference of every surplus
    component of the fibers whose members' rows are the columns of rows
    (d, k), as multiplicity vectors over the columns, fiber by fiber and,
    inside a fiber, by least member.  A component is joined to the union
    of the components with a lesser least member, so each member x of a
    later component pairs with every member y of its fiber whose label is
    less than x's.  The candidate pairs are taken in batches of whole
    fibers that keep the dense work arrays near _CHUNK_BYTES (one fiber is
    one batch)."""
    first = np.flatnonzero(starts)
    sizes = np.diff(np.append(first, len(labels)))
    surplus = np.add.reduceat(labels == np.arange(len(labels)), first) >= 2
    x = np.flatnonzero(np.repeat(surplus, sizes))
    if not len(x):
        return np.zeros((0, num_cols), dtype=np.int64)
    span = np.repeat(sizes, sizes)[x]
    lo = np.repeat(first, sizes)[x]
    cost = np.cumsum(span) * (33 * num_cols + 16 * rows.shape[0] + 48)
    # batches of whole fibers: each ends at the last fiber end within a
    # further _CHUNK_BYTES, or at the next fiber end
    ends = np.append(np.flatnonzero(lo[1:] != lo[:-1]) + 1, len(x))
    reached = cost[ends - 1]
    out, j = [], 0
    while j < len(ends):
        spent = int(reached[j - 1]) if j else 0
        k = max(j + 1, int(np.searchsorted(reached, spent + _CHUNK_BYTES, side="right")))
        a, b = (int(ends[j - 1]) if j else 0), int(ends[k - 1])
        out.append(_least_differences(rows, x[a:b], span[a:b], lo[a:b], labels, num_cols))
        j = k
    return np.concatenate(out)


def _least_differences(rows, x, span, lo, labels, num_cols):
    """_connecting_differences for the surplus members x, each in a fiber
    of span members from lo."""
    d = rows.shape[0]
    lo = np.repeat(lo, span)
    x = np.repeat(x, span)
    y = lo + np.arange(len(x)) - np.repeat(np.cumsum(span) - span, span)
    later = labels[y] < labels[x]
    x, y = x[later], y[later]
    # the multiplicity vector of x's multiset minus that of y's
    cells = np.arange(len(x)) * num_cols
    size = len(x) * num_cols
    diffs = (
        np.bincount((cells + np.take(rows, x, axis=1)).ravel(), minlength=size)
        - np.bincount((cells + np.take(rows, y, axis=1)).ravel(), minlength=size)
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
    # nothing bounds the number of connecting differences before the pass:
    # refuse once their copies outgrow what the estimate of the pass leaves
    room = MEMORY_BUDGET_BYTES - check_degree_cap(cfg.num_cols, cfg.num_rows, degree_cap)
    g = cfg.ground
    key = _pass_key(cfg, degree_cap)
    found = _passes.get(key)
    # a trivial kernel has no two multisets with one sum: no degree has
    # moves, the loop is skipped, and no label tables are built, so only a
    # nontrivial kernel is refused for them; they outlive the pass's
    # arrays, not the connecting differences
    trivial = found.trivial if found else _kernel_trivial(cfg)
    tables = 0 if trivial else _label_table_bytes(g, cfg.num_cols)
    if tables > MEMORY_BUDGET_BYTES:
        raise _over_budget("the label-permutation tables need", tables)
    room = min(room, MEMORY_BUDGET_BYTES - tables)
    if found:
        _check_held(found.diffs, room)
    else:
        diffs = np.zeros((0, cfg.num_cols), dtype=np.int64) if trivial else _degree_loop(key, room)
        found = _passes.put(key, _Pass(trivial, diffs))
    reps = _representatives(g, [e.rank for e in cfg.columns], found.diffs)
    per_degree = dict(Counter(m.degree for m in reps))

    if _is_full_configuration(cfg):
        # known from the literature: degree 2 suffices for n <= 3, 4 for n = 4
        known = g.n <= 3 or (g.n == 4 and degree_cap >= 4)
        source = "literature (n <= 4)" if known else "unknown"
    else:
        # for a proper column subset we can certify completeness only in
        # the trivial-kernel case
        source = "certified (trivial kernel)" if trivial else "unknown"
    return MarkovBasisReport(g, degree_cap, per_degree, tuple(reps), source)


def _pass_key(cfg: Configuration, degree_cap: int) -> tuple:
    """(cap, shape, bytes) of the int8 rows some column touches, in column
    order, the rows sorted by their bytes: all a pass depends on."""
    m = np.array(cfg.matrix, dtype=np.int8)
    m = m[m.any(axis=1)]
    return degree_cap, m.shape, b"".join(sorted(map(bytes, m)))


def _degree_loop(key: tuple, room: int) -> np.ndarray:
    """The connecting differences of every degree up to the cap, in degree
    order, of the pass with this key (_pass_key); BudgetError once the
    copies of those held outgrow room."""
    degree_cap, shape, data = key
    num_cols = shape[1]
    cols_t = np.ascontiguousarray(np.frombuffer(data, dtype=np.int8).reshape(shape).T)
    col_keys = _column_keys(cols_t)
    # lanes wide enough for the cap serve every degree up to it
    lanes = _packed_lanes(cols_t, degree_cap)
    idx, keys = np.arange(num_cols, dtype=np.int16).reshape(1, -1), col_keys
    diffs, held = [np.zeros((0, num_cols), dtype=np.int64)], 0
    for d in range(2, degree_cap + 1):
        idx, keys = _extend_index(idx, keys, col_keys)
        last = d == degree_cap
        # the last degree's keys are sorted in place, and no degree extends
        # its index: both go once its run members' rows are gathered
        members, starts = _fiber_members(keys if last else keys.copy())
        if last:
            del keys
        rows = np.take(idx, members, axis=1)
        del members
        if last:
            del idx
        for found in _degree_differences(rows, starts, lanes, num_cols):
            diffs.append(found)
            held += found.nbytes
            if _HELD_COPIES * held > room:
                raise _held_over_budget(d, room)
        del rows, starts
    return np.concatenate(diffs)


def _held_over_budget(d: int, room: int) -> BudgetError:
    return BudgetError(
        f"the connecting differences of degree {d} need over {room >> 20} MiB, "
        f"past the {MEMORY_BUDGET_BYTES >> 20} MiB budget"
    )


def _check_held(diffs: np.ndarray, room: int) -> None:
    """The check _degree_loop makes as it finds the differences, on those of
    a memo hit: BudgetError, naming the degree of the first difference past
    room, if their copies outgrow it."""
    if _HELD_COPIES * diffs.nbytes > room:
        first = room // (_HELD_COPIES * diffs.itemsize * diffs.shape[1])
        raise _held_over_budget(int(np.maximum(diffs[first], 0).sum()), room)


@dataclass(frozen=True)
class _Pass:
    """What markov_basis keeps of a pass: whether the kernel is trivial, and
    the connecting differences of every degree (read-only)."""

    trivial: bool
    diffs: np.ndarray


class _PassMemo:
    """The passes of this process by _pass_key, least recently used first:
    at most _MEMO_ENTRIES of them and _MEMO_BYTES of held differences (a
    pass whose differences alone are more is not kept).  misses counts the
    lookups that found no pass; cache_clear() empties the memo.  One lock
    guards the entries and both counts, so threads may share it."""

    def __init__(self):
        self._lock = Lock()
        self.cache_clear()

    def cache_clear(self) -> None:
        with self._lock:
            self.entries, self.held, self.misses = {}, 0, 0

    def get(self, key) -> _Pass | None:
        with self._lock:
            found = self.entries.pop(key, None)
            if found is None:
                self.misses += 1
            else:
                self.entries[key] = found
            return found

    def put(self, key, found: _Pass) -> _Pass:
        found.diffs.flags.writeable = False
        if found.diffs.nbytes > _MEMO_BYTES:
            return found
        with self._lock:
            # a pass of the same key that another thread ran meanwhile
            older = self.entries.pop(key, None)
            self.held += found.diffs.nbytes - (older.diffs.nbytes if older else 0)
            self.entries[key] = found
            while len(self.entries) > _MEMO_ENTRIES or self.held > _MEMO_BYTES:
                self.held -= self.entries.pop(next(iter(self.entries))).diffs.nbytes
        return found


_passes = _PassMemo()


def _kernel_trivial(cfg: Configuration) -> bool:
    # the span of E(N) has dimension 2^n - n - 1: more columns than that
    # always have a kernel; otherwise rank the columns as rows, over only
    # the subsets some column touches
    n = cfg.ground.n
    if cfg.num_cols > 2**n - n - 1:
        return False
    return rank(list(zip(*(row for row in cfg.matrix if any(row))))) == cfg.num_cols
