"""Kernel vectors of the configuration: moves, reduction, classification.

A move is an integer vector z over E(N) with configuration·z = 0; writing
z = z⁺ - z⁻ gives a relation Σα_i u_i = Σβ_j v_j between elementary
imsets.  The basic 2x2 moves

    u_<a|b1|C> + u_<a|b2|b1C> = u_<a|b2|C> + u_<a|b1|b2C>

generate the whole integer kernel; reduce_to_basis implements the
constructive elimination as one sweep over the elementary order: each
pivot move is +1 at its lead and changes only later ranks, so the rank the
sweep reaches is the least nonzero, and subtracting that coefficient times
its pivot clears it.  The remainder is z minus the combination so far, so
a zero remainder after the sweep certifies that the combination re-sums to z.

Relations with a side of at most three distinct imsets fall into a short
taxonomy: positive multiples of a basic move, positive multiples of the
cyclic 3x3 exchange

    u_<a|b1|b2C> + u_<a|b2|b3C> + u_<a|b3|b1C>
      = u_<a|b2|b1C> + u_<a|b3|b2C> + u_<a|b1|b3C>,

relations one of whose sides contains a full side of a basic move, and a
residual class "other".  enumerate_small_relations machine-checks the
taxonomy by brute force within explicit bounds.

A Move holds only its support, the (rank, nonzero coefficient) pairs in
ascending rank, and its kernel check scatters them through the four-rank
column table of imsets.elementary_columns, O(4·nnz(z)).  The basic moves,
the cyclic 3x3 supports, the pivot move reduce_to_basis uses for each
leading rank (built from its four ranks) and the label action behind
symmetry_reduce are cached once per n (groundset.per_n), except the basic
and pivot moves, which carry their ground set and are cached per ground
set; basic_moves hands out a fresh list.  The label action is one
read-only array of the image of every subset mask under each of the n!
label permutations, and the elementary-rank maps are read off it through
an (ab mask, C mask) -> rank lookup.  classify_relation looks z's support,
divided by the gcd of its coefficients, up in cached sets of the basic and
cyclic supports (coefficients ±1; the basic ones built from their four
ranks, with no Move) and tests the cached positive sides of the basic
moves.

Orbits are canonicalised on integer arrays.  The acting maps, the
stabiliser of a set of ranks, come from one array test over the rank-map
array, and so does the label-canonical order of a set of columns
(_least_column_order), by which markov_basis shares one pass among the
label images of a column set.  Each row of coefficients, and its negation, is written as a byte
key whose byte order is the lexicographic order of the row (entries
offset by the largest |entry|, big-endian).  Orbit by orbit: all
images of the first row not yet covered under the acting maps, and their
negations, are gathered at once; their least key is the orbit's
representative and every row whose key is among them is covered, so the
cost is orbits × maps × columns.  Rows whose images all fit one gather
of about _ORBIT_CODES codes are taken in one step, and where orbits hold
one row each the rows taken per step double up to that size.  The
distinct representatives in ascending order are the result.
markov_basis feeds its connecting differences to this helper and builds
a Move only for each representative; symmetry_reduce is the same helper
over Move objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, permutations
from math import comb, gcd
from types import MappingProxyType

import numpy as np

from .groundset import ElementaryIndex, GroundSet, Triplet, bit_indices, iter_submasks, per_n
from .imsets import Imset, elementary_columns, elementary_combination
from .linalg import InvariantError
from .membership import _dfs_witnesses


class BudgetError(RuntimeError):
    """Raised when a computation would exceed its documented budget."""


# candidate sides enumerate_small_relations may try; at about 12k (n=6) to
# 30k (n=4) sides/s (2 cores, Python 3.11) that is 4 s at most
MAX_RELATION_SIDES = 50_000
# codes gathered per step of _least_images (one orbit's worth at least)
_ORBIT_CODES = 1 << 20


@dataclass(frozen=True, init=False, slots=True)
class Move:
    """Integer kernel vector of the configuration, held as its support.
    Move(g, coeffs) takes the dense vector over E(N), Move.of(g, support)
    the support; both run the one kernel check."""

    ground: GroundSet
    support: tuple

    def __init__(self, ground: GroundSet, coeffs):
        if len(coeffs) != ground.num_elementary:
            raise ValueError("coefficient vector must cover all of E(N)")
        # a zero that is not an int stays in, for the check to refuse
        support = tuple((j, c) for j, c in enumerate(coeffs) if c or not isinstance(c, int))
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "support", support)
        self.__post_init__()

    @classmethod
    def of(cls, ground: GroundSet, support) -> "Move":
        """The move with these (rank, coefficient) pairs, ascending in rank."""
        move = object.__new__(cls)
        object.__setattr__(move, "ground", ground)
        object.__setattr__(move, "support", tuple(support))
        move.__post_init__()
        return move

    def __post_init__(self):
        columns = elementary_columns(self.ground)
        size, sums, last = len(columns), {}, -1
        get = sums.get
        for j, c in self.support:
            if not (last < j < size and c and isinstance(c, int)):
                raise ValueError(f"not an ascending (rank in E(N), nonzero int) pair: {(j, c)!r}")
            last = j
            abc, c_rank, ac, bc = columns[j]
            sums[abc] = get(abc, 0) + c
            sums[c_rank] = get(c_rank, 0) + c
            sums[ac] = get(ac, 0) - c
            sums[bc] = get(bc, 0) - c
        if any(sums.values()):
            raise ValueError("not a kernel vector of the configuration")

    @property
    def coeffs(self) -> tuple:
        """The dense coefficient vector over E(N)."""
        out = [0] * self.ground.num_elementary
        for j, c in self.support:
            out[j] = c
        return tuple(out)

    @property
    def is_zero(self) -> bool:
        return not self.support

    @property
    def degree(self) -> int:
        return sum(c for _, c in self.support if c > 0)

    def __neg__(self) -> "Move":
        return Move.of(self.ground, ((j, -c) for j, c in self.support))

    def to_json(self) -> dict:
        g = self.ground
        lhs, rhs = {}, {}
        for j, c in self.support:
            key = str(ElementaryIndex.from_rank(g, j).triplet())
            (lhs if c > 0 else rhs)[key] = abs(c)
        return {"lhs": lhs, "rhs": rhs}

    @classmethod
    def from_json(cls, ground: GroundSet, data: dict) -> "Move":
        """ValueError when two keys, in lhs or rhs, name one elementary imset."""
        seen = {}
        for sign, key in ((1, "lhs"), (-1, "rhs")):
            for name, mult in data.get(key, {}).items():
                t = Triplet.parse(ground, name)
                m = int(mult)
                if isinstance(mult, bool) or m != mult or m < 1:
                    raise ValueError(f"multiplicity of {name} must be an integer >= 1, got {mult!r}")
                r = ElementaryIndex.from_triplet(t).rank
                if r in seen:
                    raise ValueError(f"keys {seen[r][0]!r} and {name!r} name the same elementary imset")
                seen[r] = name, sign * m
        return cls.of(ground, sorted((r, c) for r, (_, c) in seen.items()))


def basic_moves(g: GroundSet) -> list:
    """All 2x2 moves δ_<a|b1|C> + δ_<a|b2|b1C> - δ_<a|b2|C> - δ_<a|b1|b2C>
    over ordered distinct (a, b1, b2) and C ⊆ N∖{a,b1,b2}; includes each
    vector together with its negation (swap b1, b2).  A fresh list of the
    per-ground-set cached moves."""
    return list(_basic_move_table(g).values())


def _basic_move_ranks(g: GroundSet, a: int, b1: int, b2: int, c_mask: int) -> tuple:
    """Ranks of the sides (<a|b1|C>, <a|b2|b1C>) and (<a|b2|C>, <a|b1|b2C>)
    of the basic move (a, b1, b2, C)."""
    r, b1c, b2c = g.elementary_rank, c_mask | 1 << b1, c_mask | 1 << b2
    return (r(a, b1, c_mask), r(a, b2, b1c)), (r(a, b2, c_mask), r(a, b1, b2c))


def _basic_support(g: GroundSet, a: int, b1: int, b2: int, c_mask: int) -> tuple:
    """The (rank, ±1) pairs, by rank, of the basic move (a, b1, b2, C)."""
    (p1, p2), (m1, m2) = _basic_move_ranks(g, a, b1, b2, c_mask)
    return tuple(sorted(((p1, 1), (p2, 1), (m1, -1), (m2, -1))))


def _basic_move(g: GroundSet, a: int, b1: int, b2: int, c_mask: int) -> Move:
    """The basic move (a, b1, b2, C), built from its four ranks."""
    return Move.of(g, _basic_support(g, a, b1, b2, c_mask))


def _basic_quadruples(g: GroundSet):
    """(a, b1, b2, C mask) of every basic move, in basic_moves order."""
    if g.n < 3:
        raise ValueError("no kernel relations exist with fewer than 3 variables")
    for a, b1, b2 in permutations(range(g.n), 3):
        free = g.full_mask & ~((1 << a) | (1 << b1) | (1 << b2))
        for c_mask in sorted(iter_submasks(free), key=g.subset_key):
            yield a, b1, b2, c_mask


@lru_cache(maxsize=32)
def _basic_move_table(g: GroundSet):
    """Read-only map (a, b1, b2, C mask) -> basic move, in basic_moves
    order."""
    return MappingProxyType({q: _basic_move(g, *q) for q in _basic_quadruples(g)})


@lru_cache(maxsize=32)
def _pivot_table(g: GroundSet) -> tuple:
    """Per elementary rank j of <a|b|C>: the one basic move whose least
    nonzero is +1 at j and whose other three terms come strictly later;
    None when the two largest labels outside C are a and b, which cannot
    lead a kernel vector."""
    out = []
    for a, b, c_mask in g.elementary_triples:
        alpha, beta = bit_indices(g.full_mask & ~c_mask)[-2:]
        if b < beta:
            out.append(_basic_move(g, a, b, beta, c_mask))
        elif a < alpha:
            out.append(_basic_move(g, b, a, alpha, c_mask))
        else:
            out.append(None)
    return tuple(out)


def reduce_to_basis(z: Move) -> list:
    """Write z as an exact integer combination of basic moves, returned as
    (basic move, coefficient) pairs in elimination order."""
    pivots = _pivot_table(z.ground)
    vec = [0] * z.ground.num_elementary
    for j, c in z.support:
        vec[j] = c
    out = []
    for lead, c in enumerate(vec):
        if not c:
            continue
        pivot = pivots[lead]
        if pivot is None:
            raise RuntimeError(f"irreducible leading term at rank {lead}")
        for j, mc in pivot.support:
            vec[j] -= c * mc
        out.append((pivot, c))
    if any(vec):
        raise InvariantError("reduction left a nonzero remainder")
    return out


@per_n
def _cyclic_moves(g: GroundSet):
    """One support per cyclic 3x3 relation (both cycle orientations), as a
    read-only map (a, b1, b2, b3, C mask) -> the (rank, ±1) pairs, by rank,
    of u_<a|b1|b2C> + u_<a|b2|b3C> + u_<a|b3|b1C>
      - u_<a|b2|b1C> - u_<a|b3|b2C> - u_<a|b1|b3C>."""
    out = {}
    for trio in combinations(range(g.n), 3):
        for a in range(g.n):
            if a in trio:
                continue
            free = g.full_mask & ~sum(1 << i for i in trio) & ~(1 << a)
            for c_mask in iter_submasks(free):
                for b1, b2, b3 in ((trio[0], trio[1], trio[2]), (trio[0], trio[2], trio[1])):
                    cycle = ((b1, b2), (b2, b3), (b3, b1))
                    support = [(g.elementary_rank(a, x, c_mask | 1 << y), 1) for x, y in cycle]
                    support += [(g.elementary_rank(a, y, c_mask | 1 << x), -1) for x, y in cycle]
                    out[(a, b1, b2, b3, c_mask)] = tuple(sorted(support))
    return MappingProxyType(out)


@dataclass(frozen=True)
class RelationForm:
    """Shape summary of a nonzero move: side sizes k ≤ m, common degree,
    and its place in the small-relation taxonomy."""

    k: int
    m: int
    degree: int
    classification: str
    move: Move


def _normalize_orientation(z: Move) -> Move:
    """z or -z: fewer positive entries, or on a tie a positive first one."""
    pos = sum(1 for _, c in z.support if c > 0)
    neg = len(z.support) - pos
    if neg < pos or (neg == pos and z.support and z.support[0][1] < 0):
        return -z
    return z


@per_n
def _relation_classes(g: GroundSet) -> tuple:
    """Sets of the basic and of the cyclic supports, all checked to have
    coefficients ±1, and the basic moves' distinct positive sides as rank
    frozensets.  The basic supports are built from their ranks, with no
    Move."""
    basics = tuple(_basic_support(g, *q) for q in _basic_quadruples(g))
    cyclics = tuple(_cyclic_moves(g).values())
    if any(c not in (-1, 1) for support in basics + cyclics for _, c in support):
        raise InvariantError("a basic or cyclic move has a coefficient other than ±1")
    sides = dict.fromkeys(frozenset(j for j, c in s if c > 0) for s in basics)
    return frozenset(basics), frozenset(cyclics), tuple(sides)


def classify_relation(z: Move) -> RelationForm:
    """Normalize orientation and place z in the taxonomy: a positive
    multiple of a basic 2x2 move, a positive multiple of a cyclic 3x3
    relation, a relation one of whose sides contains a full side of a
    basic move, or "other"."""
    if z.is_zero:
        raise ValueError("the zero move has no relation form")
    z = _normalize_orientation(z)
    pos = frozenset(j for j, c in z.support if c > 0)
    neg = frozenset(j for j, c in z.support if c < 0)
    basics, cyclics, sides = _relation_classes(z.ground)
    q = gcd(*(c for _, c in z.support))
    primitive = tuple((j, c // q) for j, c in z.support)
    if primitive in basics:
        classification = "two-by-two-semigraphoid"
    elif primitive in cyclics:
        classification = "three-by-three-cyclic"
    elif any(side <= pos or side <= neg for side in sides):
        classification = "contains-2x2"
    else:
        classification = "other"
    return RelationForm(len(pos), len(neg), z.degree, classification, z)


def _coeff_tuples(k: int, coeff_bound: int, degree_bound: int, prefix=()):
    """The k-tuples over 1..coeff_bound with sum ≤ degree_bound, ascending."""
    if len(prefix) == k:
        yield prefix
        return
    # the remaining slots need at least 1 each
    top = min(coeff_bound, degree_bound - sum(prefix) - (k - len(prefix) - 1))
    for c in range(1, top + 1):
        yield from _coeff_tuples(k, coeff_bound, degree_bound, prefix + (c,))


def enumerate_small_relations(
    g: GroundSet, k_max: int, coeff_bound: int, degree_bound: int
) -> list:
    """All relations whose smaller side has at most k_max distinct imsets,
    with side coefficients in 1..coeff_bound and degree ≤ degree_bound,
    classified; exhaustive within the bounds.  Raises BudgetError before
    any work when there are more than MAX_RELATION_SIDES candidate sides."""
    if k_max < 2:
        raise ValueError("a relation needs at least two imsets on a side")
    num_cols = g.num_elementary
    sides = 0
    tuples_by_k = {}
    for k in range(2, min(k_max, num_cols) + 1):
        tuples = list(islice(_coeff_tuples(k, coeff_bound, degree_bound), MAX_RELATION_SIDES + 1))
        # none for k when coeff_bound < 1 or k > degree_bound, nor for any larger k
        if not tuples:
            break
        sides += comb(num_cols, k) * len(tuples)
        if sides > MAX_RELATION_SIDES:
            raise BudgetError(
                f"at least {sides} candidate sides, over the {MAX_RELATION_SIDES} budget"
            )
        tuples_by_k[k] = tuples
    seen = {}
    for k, tuples in tuples_by_k.items():
        for support in combinations(range(num_cols), k):
            support_set = set(support)
            for alphas in tuples:
                side = [0] * num_cols
                for j, a in zip(support, alphas):
                    side[j] = a
                u = Imset(g, tuple(elementary_combination(g, side)))
                for witness in _dfs_witnesses(u, excluded=support_set):
                    z = _normalize_orientation(Move(g, tuple(s - w for s, w in zip(side, witness))))
                    seen.setdefault(z.support, z)
    forms = [classify_relation(z) for z in seen.values()]
    forms.sort(key=lambda f: (f.degree, f.k, f.m, f.move.coeffs))
    return forms


@per_n
def _subset_images(g: GroundSet) -> np.ndarray:
    """images[p, m]: the image of subset mask m under the p-th label
    permutation perm (label index i to perm[i]), in itertools.permutations
    order; one read-only (n!, 2^n) array."""
    masks = np.arange(g.num_subsets)
    perms = np.array(list(permutations(range(g.n))), dtype=np.intp)
    images = np.zeros((len(perms), g.num_subsets), dtype=np.intp)
    for i in range(g.n):
        images |= (masks >> i & 1) << perms[:, i, None]
    images.flags.writeable = False
    return images


@per_n
def _rank_map_array(g: GroundSet) -> np.ndarray:
    """Row p: the rank of the image of every elementary triplet under the
    p-th permutation of _subset_images; one read-only (n!, |E(N)|) array."""
    triples = np.array(g.elementary_triples, dtype=np.intp).reshape(-1, 3)
    ab, c = 1 << triples[:, 0] | 1 << triples[:, 1], triples[:, 2]
    rank_of = np.zeros((g.num_subsets, g.num_subsets), dtype=np.intp)
    rank_of[ab, c] = np.arange(len(triples))
    images = _subset_images(g)
    maps = rank_of[images[:, ab], images[:, c]]
    maps.flags.writeable = False
    return maps


def _stabiliser(g: GroundSet, ranks) -> np.ndarray:
    """The rows of the rank-map array that map the set `ranks` into, hence
    (a rank map is a bijection) onto, itself."""
    maps = _rank_map_array(g)
    inside = np.zeros(maps.shape[1], dtype=bool)
    inside[ranks] = True
    return maps[inside[maps[:, ranks]].all(axis=1)]


def _least_column_order(g: GroundSet, ranks) -> np.ndarray:
    """The order that puts the columns with elementary ranks `ranks` in
    label-canonical position: under the label permutation whose sorted
    image of the ranks is lexicographically least, the argsort of the
    images.  Permutations that tie differ by a symmetry of that least set,
    so they give the same matrix up to the order of its rows."""
    images = _rank_map_array(g)[:, ranks]
    least = np.sort(images, axis=1)
    return np.argsort(images[np.lexsort(least.T[::-1])[0]], kind="stable")


def _lex_codes(z: np.ndarray) -> tuple:
    """(codes, bound): the integer rows of z as unsigned big-endian codes,
    each entry plus bound, the largest |entry|, in the fewest bytes that
    hold 2·bound, so that the bytes of a row order the rows
    lexicographically."""
    bound = int(np.abs(z).max(initial=0))
    width = next(w for w in (1, 2, 4, 8) if 2 * bound < 256**w)
    # uint64 arithmetic wraps the negative entries back into [0, 2·bound]
    codes = z.astype(np.uint64)
    codes += np.uint64(bound)
    return codes.astype(f">u{width}"), bound


def _byte_keys(codes: np.ndarray) -> np.ndarray:
    """One bytes key per row of a 2-d code array."""
    return np.ascontiguousarray(codes).view(f"S{codes.shape[1] * codes.itemsize}").ravel()


def _least_images(z: np.ndarray, ranks, maps: np.ndarray) -> np.ndarray:
    """The distinct least images of the rows of z, ascending.  z holds
    coefficients over the ascending elementary ranks `ranks`, which every
    rank map in `maps` maps onto themselves; a row's least image is the
    lexicographically least of its images and their negations.  Orbit by
    orbit: the first row not yet covered has all its images and their
    negations gathered at once, the least is its orbit's representative,
    and every row among them is covered.  A step gathers about
    _ORBIT_CODES codes at most: all rows at once if they fit, else one row,
    and twice as many while each step covers only its own rows (orbits of
    one row)."""
    ranks = np.asarray(ranks)
    pos = np.zeros(maps.shape[1], dtype=np.intp)
    pos[ranks] = np.arange(len(ranks))
    # an image puts entry p at pos[map[ranks[p]]]: gather its columns back
    gathers = np.argsort(pos[maps[:, ranks]], axis=1)
    m, width = len(z), len(ranks)
    codes, bound = _lex_codes(np.concatenate((z, -z)))
    keys = _byte_keys(codes[:m])
    most = max(1, _ORBIT_CODES // (2 * len(gathers) * max(width, 1)))
    if m <= most:
        step, by_key = m, None  # one step takes every row
    else:
        step, by_key = 1, np.argsort(keys)
        sorted_keys = keys[by_key]
    covered = np.zeros(m, dtype=bool)
    least = [keys[:0]]
    while not covered.all():
        first = np.flatnonzero(~covered)[:step]
        covered[first] = True
        images = np.take(codes[np.concatenate((first, first + m))], gathers, axis=1)
        images = _byte_keys(images.reshape(-1, width)).reshape(2, len(first), -1)
        rows = np.arange(len(first))
        low, high = (half[rows, half.argmin(axis=1)] for half in images)
        least.append(np.where(high < low, high, low))
        if by_key is not None:
            # every row whose key is an image is in one of these orbits
            images = images.ravel()
            hit = np.minimum(sorted_keys.searchsorted(images), m - 1)
            found = by_key[hit[sorted_keys[hit] == images]]
            if covered[found].all():
                # orbits of one row: take twice as many rows next step
                step = min(2 * step, most)
            covered[found] = True
    least = np.sort(np.concatenate(least))
    least = least[np.concatenate(([True], least[1:] != least[:-1]))[: len(least)]]
    least = least.view(codes.dtype).reshape(-1, width)
    return (least.astype(np.uint64) - np.uint64(bound)).astype(np.int64)


def symmetry_reduce(moves, allowed_ranks=None) -> list:
    """Orbit representatives of moves under label permutations and
    negation; representative = lexicographically least orbit element.
    When allowed_ranks is given, only the label permutations that map that
    set of elementary ranks onto itself act."""
    moves = list(moves)
    if not moves:
        return []
    g = moves[0].ground
    if any(m.ground != g for m in moves):
        raise ValueError("moves over different ground sets")
    everything = np.arange(g.num_elementary)
    allowed = everything if allowed_ranks is None else sorted(set(allowed_ranks))
    z = np.array([m.coeffs for m in moves], dtype=np.int64)
    least = _least_images(z, everything, _stabiliser(g, allowed))
    return [Move(g, tuple(row)) for row in least.tolist()]
