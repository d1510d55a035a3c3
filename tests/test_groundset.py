"""Orders, ranks, and triplet canonicalization."""

from __future__ import annotations

import math
import random
from types import MappingProxyType

import pytest

from imsetkit import imsets, membership, relations
from imsetkit.groundset import (
    ElementaryIndex,
    GroundSet,
    Triplet,
    bit_indices,
    enumerate_elementary,
    enumerate_triplets,
)

TABLES = ("masks_graded", "elementary_triples", "_elementary_rank")
# derived tables that hold ranks and values, never a label
LABEL_FREE = (
    imsets.elementary_columns,
    membership._blocks_by_conditioning,
    membership._cut_table,
    membership._separating_table,
    relations._cyclic_moves,
    relations._relation_classes,
)


def per_instance_tables(g):
    """The per-GroundSet construction the shared per-n tables replaced, kept
    as the reference they must match."""
    masks_graded = tuple(sorted(range(g.num_subsets), key=g.subset_key))
    rank = [0] * g.num_subsets
    for r, m in enumerate(masks_graded):
        rank[m] = r
    triples = []
    for c_mask in masks_graded:
        rest = bit_indices(g.full_mask & ~c_mask)
        for j, b in enumerate(rest):
            for a in rest[:j]:
                triples.append((a, b, c_mask))
    return masks_graded, tuple(rank), tuple(triples), {t: r for r, t in enumerate(triples)}


def test_graded_order_examples():
    g = GroundSet(4)
    rank = lambda s: g.subset_rank(g.parse_subset(s))
    assert rank("0") < rank("a")
    assert rank("ab") < rank("ac")
    assert rank("cd") < rank("abc")
    assert rank("bc") == rank("bc") == g.subset_rank(g.parse_subset("cb"))
    # full size-2 ascending chain over a..d
    size2 = [m for m in g.masks_graded if bin(m).count("1") == 2]
    assert [g.subset_str(m) for m in size2] == ["ab", "ac", "ad", "bc", "bd", "cd"]


def test_subset_rank_roundtrip():
    for n in (2, 3, 4, 6):
        g = GroundSet(n)
        for r in range(g.num_subsets):
            assert g.subset_rank(g.mask_of_rank(r)) == r
        # ascending chain starts at the empty set and ends at N
        assert g.mask_of_rank(0) == 0
        assert g.mask_of_rank(g.num_subsets - 1) == g.full_mask


def test_delta_ab_rank_position():
    g = GroundSet(4)
    # 0,a,b,c,d,ab -> {a,b} sits at rank 5
    assert g.subset_rank(g.parse_subset("ab")) == 5


def test_subset_string_roundtrip():
    g = GroundSet(5)
    for r in range(g.num_subsets):
        m = g.mask_of_rank(r)
        assert g.parse_subset(g.subset_str(m)) == m
    with pytest.raises(ValueError):
        g.parse_subset("ax")
    with pytest.raises(ValueError):
        g.parse_subset("aa")


def test_elementary_count_formula():
    for n in range(2, 9):
        g = GroundSet(n)
        expected = math.comb(n, 2) * 2 ** (n - 2)
        assert g.num_elementary == expected
        assert sum(t.is_elementary for t in enumerate_triplets(g)) == expected


def test_elementary_order_examples():
    g = GroundSet(4)
    t = lambda s: ElementaryIndex.from_triplet(Triplet.parse(g, s))
    assert t("a|b|0").rank < t("a|c|0").rank
    assert t("c|d|0").rank < t("b|c|a").rank
    assert t("a|b|cd").rank == 23
    assert t("a|b|0").rank == 0
    # the first column block, conditioning on the empty set
    heads = [str(e) for e in enumerate_elementary(g)[:6]]
    assert heads == ["a|b|0", "a|c|0", "b|c|0", "a|d|0", "b|d|0", "c|d|0"]


def test_elementary_rank_roundtrip():
    for n in (2, 3, 4, 5):
        g = GroundSet(n)
        for r in range(g.num_elementary):
            assert ElementaryIndex.from_rank(g, r).rank == r
        # the unordered rank takes the two singletons in either order
        for a, b, c in g.elementary_triples:
            rank = ElementaryIndex(g, a, b, c).rank
            assert g.elementary_rank(a, b, c) == g.elementary_rank(b, a, c) == rank


def test_enumerate_triplets_counts_and_order():
    # canonical triplets with A,B nonempty: (4^n - 2*3^n + 2^n) / 2
    for n in (2, 3, 4, 5):
        g = GroundSet(n)
        ts = enumerate_triplets(g)
        assert len(ts) == (4**n - 2 * 3**n + 2**n) // 2
        assert len(set(ts)) == len(ts)
        keys = [t.key() for t in ts]
        assert keys == sorted(keys)
    g = GroundSet(4)
    elem = [t for t in enumerate_triplets(g) if t.is_elementary]
    assert [str(t) for t in elem] == [str(e) for e in enumerate_elementary(g)]


def test_triplet_canonicalization_and_parse():
    g = GroundSet(4)
    t = Triplet(g, g.parse_subset("cd"), g.parse_subset("b"), 0)
    # B = b precedes A = cd in the graded order, so the slots swap
    assert str(t) == "b|cd|0"
    assert str(Triplet.parse(g, "cd|b|0")) == "b|cd|0"
    assert Triplet.parse(g, "a|b|cd").is_elementary
    assert Triplet.parse(g, "0|b|cd").is_trivial
    with pytest.raises(ValueError):
        Triplet.parse(g, "ab|bc|0")
    with pytest.raises(ValueError):
        Triplet.parse(g, "a|b")


def test_order_properties_random():
    rng = random.Random(9181)
    for n in (3, 5):
        g = GroundSet(n)
        masks = [rng.randrange(g.num_subsets) for _ in range(60)]
        for s in masks:
            for t in masks:
                # the rank is injective and follows the graded sort key
                assert (g.subset_rank(s) == g.subset_rank(t)) == (s == t)
                assert (g.subset_rank(s) < g.subset_rank(t)) == (g.subset_key(s) < g.subset_key(t))


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(0)
    with pytest.raises(ValueError):
        GroundSet(13)
    with pytest.raises(ValueError):
        GroundSet(["a", "a"])
    # "0" writes the empty set and "|" splits a triplet, so neither is a label
    for labels in ("0ab", "a|b", ["0"], ["|", "x"]):
        with pytest.raises(ValueError, match="reserved"):
            GroundSet(labels)
    g = GroundSet(["x", "y", "z"])
    assert g.subset_str(g.parse_subset("xz")) == "xz"


@pytest.mark.parametrize("n", range(1, 9))
def test_shared_tables_match_per_instance_oracle(n):
    for g in (GroundSet(n), GroundSet("zyxwvuts"[:n])):
        masks_graded, rank, triples, elementary_rank = per_instance_tables(g)
        for name, want in zip(TABLES, (masks_graded, triples, elementary_rank)):
            assert getattr(g, name) == want, name
        assert tuple(map(g.subset_rank, range(g.num_subsets))) == rank


def test_tables_are_shared_per_n_and_read_only():
    for n in (1, 4, 7):
        g, h = GroundSet(n), GroundSet("ZYXWVUT"[:n])
        for name in TABLES:
            assert getattr(g, name) is getattr(h, name), name
    assert GroundSet("abcd")._elementary_rank is not GroundSet("abc")._elementary_rank
    g = GroundSet(4)
    with pytest.raises(TypeError):
        g._elementary_rank[(0, 1, 0)] = 7
    for name in TABLES:
        with pytest.raises(AttributeError):
            setattr(g, name, ())
    assert g._elementary_rank[(0, 1, 0)] == 0


def is_read_only(x):
    """Built of ints, tuples, frozensets, read-only maps and frozen
    dataclasses all the way down."""
    if isinstance(x, int):
        return True
    if isinstance(x, MappingProxyType):
        return all(map(is_read_only, x.keys())) and all(map(is_read_only, x.values()))
    if isinstance(x, membership._CutTable):
        return is_read_only(tuple(vars(x).values()))
    return isinstance(x, (tuple, frozenset)) and all(map(is_read_only, x))


@pytest.mark.parametrize("table", LABEL_FREE, ids=lambda t: t.__name__)
def test_label_free_tables_are_shared_per_n_and_read_only(table):
    assert table(GroundSet("abcd")) is table(GroundSet("wxyz"))
    assert table(GroundSet("abcd")) is not table(GroundSet("abc"))
    assert is_read_only(table(GroundSet("wxyz")))
    # the first ground set of a size builds the table for every label set
    table.cache_clear()
    first = table(GroundSet("wxyz"))
    table.cache_clear()
    assert first == table(GroundSet(4))


def test_tables_of_grounded_objects_stay_per_ground_set():
    for g in (GroundSet(4), GroundSet("wxyz")):
        assert {m.ground for m in relations.basic_moves(g)} == {g}
        assert {p.ground for p in relations._pivot_table(g) if p} == {g}
        assert imsets.configuration(g).ground == g
        assert membership.degree_function(g).ground == g
