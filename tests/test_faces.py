import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import imsetkit
from imsetkit import faces, membership
from imsetkit.ci import CIModel, ci_model_of_imset
from imsetkit.faces import (
    certify_face,
    extreme_rank,
    extreme_set,
    face_description,
    face_of_structural,
    orthogonal_set,
    subconfiguration,
    verify_face_theorem,
)
from imsetkit.groundset import (
    ElementaryIndex,
    GroundSet,
    Triplet,
    bit_indices,
    enumerate_elementary,
    enumerate_triplets,
    popcount,
)
from imsetkit.imsets import (
    Imset,
    configuration,
    elementary_columns,
    elementary_combination,
    elementary_imset,
    inner,
    semi_elementary,
)
from imsetkit.linalg import InvariantError, lp_feasible, rank
from imsetkit.supermodular import (
    _skeleton,
    _subset_indicator,
    _superset_indicator,
    four_generator_witness,
    is_supermodular,
)


def dim_formula(t):
    return ((1 << popcount(t.a_mask)) - 1) * ((1 << popcount(t.b_mask)) - 1)


def test_extreme_set_examples():
    g4 = GroundSet(4)
    single = extreme_set(Triplet.parse(g4, "a|b|cd"))
    assert [str(e) for e in single] == ["a|b|cd"]
    g3 = GroundSet(3)
    quad = extreme_set(Triplet.parse(g3, "a|bc|0"))
    assert [str(e) for e in quad] == ["a|b|0", "a|c|0", "a|c|b", "a|b|c"]
    assert len(extreme_set(Triplet.parse(g4, "ab|cd|0"))) == 16


def test_extreme_set_counting_formula():
    g = GroundSet(4)
    for t in enumerate_triplets(g):
        ext = extreme_set(t)
        na, nb = popcount(t.a_mask), popcount(t.b_mask)
        assert len(ext) == na * nb * (1 << (na + nb - 2))
        # sorted by elementary rank, no duplicates
        ranks = [e.rank for e in ext]
        assert ranks == sorted(set(ranks))
        # every member uses only labels of ABC and conditions on at least C
        abc = t.a_mask | t.b_mask | t.c_mask
        for e in ext:
            used = (1 << e.a_bit) | (1 << e.b_bit) | e.c_mask
            assert used & ~abc == 0
            assert e.c_mask & t.c_mask == t.c_mask


def test_extreme_set_rejects_trivial():
    g = GroundSet(3)
    with pytest.raises(ValueError):
        extreme_set(Triplet(g, g.parse_subset("a"), 0, g.parse_subset("c")))
    with pytest.raises(ValueError):
        orthogonal_set(Triplet(g, 0, 0, 0))


def test_orthogonal_set_counts_and_first_family():
    g2 = GroundSet(2)
    fam = orthogonal_set(Triplet.parse(g2, "a|b|0"))
    assert len(fam) == 3
    # family 1 with A1 = 0 gives the constant-one function
    assert all(v == 1 for v in fam[0].values)
    # then the superset indicators of a and of b
    assert [f.at(g2.parse_subset("a")) for f in fam] == [1, 1, 0]
    assert [f.at(g2.parse_subset("b")) for f in fam] == [1, 0, 1]

    g4 = GroundSet(4)
    assert len(orthogonal_set(Triplet.parse(g4, "a|b|cd"))) == 15
    for t in enumerate_triplets(g4):
        assert len(orthogonal_set(t)) == (1 << 4) - dim_formula(t)


def test_orthogonal_members_supermodular_and_binary_inner():
    g = GroundSet(3)
    elems = [elementary_imset(e) for e in enumerate_elementary(g)]
    for t in enumerate_triplets(g):
        fam = orthogonal_set(t)
        for f in fam:
            assert is_supermodular(f)
            assert set(f.values) <= {0, 1}
            for u in elems:
                assert inner(f, u) in (0, 1)
            # the face contains u_t itself, so the family annihilates it
            assert inner(f, semi_elementary(t)) == 0


def test_dimension_and_rank_agree():
    g3 = GroundSet(3)
    for t in enumerate_triplets(g3):
        assert extreme_rank(t) == dim_formula(t)
    g4 = GroundSet(4)
    rng = random.Random(5)
    sample = rng.sample(list(enumerate_triplets(g4)), 12)
    for t in sample:
        assert extreme_rank(t) == dim_formula(t)
    assert dim_formula(Triplet.parse(g4, "a|b|cd")) == 1
    assert dim_formula(Triplet.parse(g4, "ab|cd|0")) == 9


def test_verify_face_theorem_small():
    g3 = GroundSet(3)
    for t in enumerate_triplets(g3):
        report = verify_face_theorem(t)
        assert report["ok"], report["failures"]
        assert report["orthogonal_family_rank"] == report["orthogonal_family_size"]
    g4 = GroundSet(4)
    for s in ("a|b|cd", "ab|cd|0", "a|bc|d", "abc|d|0", "a|b|0"):
        report = verify_face_theorem(Triplet.parse(g4, s))
        assert report["ok"], report["failures"]
        assert report["extreme_rank"] == report["dimension"]


def dense_family(t):
    """[(SetFunction, descriptor)] for the four indicator families, each
    member built as a dense vector: the slow path kept as an oracle for
    faces._orthogonal_masks."""
    g = t.ground
    ab = t.a_mask | t.b_mask
    abc = ab | t.c_mask
    d_mask = g.full_mask & ~abc

    def graded(mask):
        return sorted((m for m in range(mask + 1) if m & ~mask == 0), key=g.subset_key)

    def sup(mask):
        return _superset_indicator(g, mask), {"kind": "superset-of", "set": g.subset_str(mask)}

    def sub(mask):
        return _subset_indicator(g, mask), {"kind": "subset-of", "set": g.subset_str(mask)}

    out = [sup(a1 | t.c_mask) for a1 in graded(t.a_mask)]
    out += [sup(b1 | t.c_mask) for b1 in graded(t.b_mask) if b1]
    out += [sub(e | c1) for e in graded(ab) for c1 in graded(t.c_mask) if c1 != t.c_mask]
    out += [sup(e | d1) for e in graded(abc) for d1 in graded(d_mask) if d1]
    return out


def dense_face_theorem(t):
    """verify_face_theorem by one dense inner product per family member and
    elementary imset, over the dense family of dense_family."""
    g = t.ground
    members = {e.rank for e in extreme_set(t)}
    family = [f for f, _ in dense_family(t)]
    failures = []
    for e in enumerate_elementary(g):
        inners = [inner(f, elementary_imset(e)) for f in family]
        if e.rank in members:
            if any(v != 0 for v in inners):
                failures.append(f"member {e} not orthogonal to the family")
        elif not any(v == 1 for v in inners):
            failures.append(f"non-member {e} not separated with inner product 1")
    fam_rank = rank([f.values for f in family])
    if fam_rank != len(family):
        failures.append(f"orthogonal family rank {fam_rank} below size {len(family)}")
    ext_rank = rank([elementary_imset(e).values for e in extreme_set(t)])
    if ext_rank != dim_formula(t):
        failures.append(f"extreme-ray rank {ext_rank} differs from dimension {dim_formula(t)}")
    return {
        "ok": not failures,
        "triplet": str(t),
        "orthogonal_family_size": len(family),
        "orthogonal_family_rank": fam_rank,
        "extreme_rank": ext_rank,
        "dimension": dim_formula(t),
        "failures": failures,
    }


def _oracle_triplets():
    """Every triplet for n <= 4 and a seeded sample of 20 at n = 5."""
    small = [t for n in (2, 3, 4) for t in enumerate_triplets(GroundSet(n))]
    return small + random.Random(20).sample(enumerate_triplets(GroundSet(5)), 20)


def test_family_pairs_match_dense_oracle():
    for t in _oracle_triplets():
        pairs = dense_family(t)
        desc = face_description(t)
        assert [f.values for f in orthogonal_set(t)] == [f.values for f, _ in pairs]
        assert desc.to_json()["orthogonal_set"] == [d for _, d in pairs]
        assert desc.dimension == dim_formula(t) and len(desc.family) == len(pairs)


def test_face_theorem_matches_dense_oracle():
    for t in _oracle_triplets():
        assert verify_face_theorem(t) == dense_face_theorem(t)


def test_face_theorem_holds_on_every_n5_triplet():
    triplets = enumerate_triplets(GroundSet(5))
    assert len(triplets) == 285
    for t in triplets:
        report = verify_face_theorem(t)
        assert report["ok"], (str(t), report["failures"])


def test_face_description_builds_no_dense_family():
    # 4095 family members at n = 12: as dense indicators they alone take
    # over 100 MiB
    t = Triplet.parse(GroundSet(12), "a|b|cdefghijkl")
    tracemalloc.start()
    try:
        desc = face_description(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(desc.family) == 4095
    assert peak < 32 * 2**20


def test_face_of_structural_matches_extreme_set():
    g3 = GroundSet(3)
    t = Triplet.parse(g3, "a|bc|0")
    face = face_of_structural(semi_elementary(t))
    assert [e.rank for e in face] == [e.rank for e in extreme_set(t)]
    # a single elementary imset spans its own ray and nothing else
    e0 = ElementaryIndex.from_rank(g3, 0)
    assert [x.rank for x in face_of_structural(elementary_imset(e0))] == [0]


def test_face_of_structural_four_generator_example():
    g = GroundSet(4)
    parts = ["c|d|ab", "a|b|0", "a|b|c", "a|b|d"]
    u = Imset.zero(g)
    for s in parts:
        u = u + semi_elementary(Triplet.parse(g, s))
    face = face_of_structural(u)
    assert sorted(str(e) for e in face) == sorted(parts)
    assert "a|b|cd" not in {str(e) for e in face}


def test_face_of_structural_rejects_non_structural():
    g = GroundSet(3)
    with pytest.raises(ValueError):
        face_of_structural(Imset.from_dict(g, {"abc": 1, "0": -1}))


def lp_oracle(u):
    """CI model and face of u by one exact LP per canonical triplet and one
    per elementary column over the columns [u | -w for w in E(N)]."""
    g = u.ground
    cfg = configuration(g)
    A = [[x] + [-y for y in row] for x, row in zip(u.values, cfg.matrix)]
    model = CIModel.from_triplets(
        g, [t for t in enumerate_triplets(g) if lp_feasible(A, semi_elementary(t).values).feasible]
    )
    face = [j for j in range(g.num_elementary) if lp_feasible(A, cfg.column_vector(j)).feasible]
    return model, face


def certified_face_ranks(u):
    """Ranks of F(u) from certify_face, after re-checking every reason."""
    g = u.ground
    inside, outside = certify_face(u)
    assert sorted(inside.keys() | outside.keys()) == list(range(g.num_elementary))
    assert not inside.keys() & outside.keys()
    for k, (mu, lam) in inside.items():
        assert min(lam) >= 0 and lam[k] > 0
        assert elementary_combination(g, lam) == [mu * x for x in u.values]
    for k, f in outside.items():
        on = [f[abc] + f[c] - f[ac] - f[bc] for abc, c, ac, bc in elementary_columns(g)]
        assert min(on) >= 0 and on[k] > 0
        assert sum(x * y for x, y in zip(f, u.values)) == 0
    return sorted(inside)


@st.composite
def elementary_sums_n4(draw):
    """A multiple (1..3) of a sum of 1-4 distinct elementary imsets at n=4."""
    g = GroundSet(4)
    column = st.integers(0, g.num_elementary - 1)
    ranks = draw(st.lists(column, min_size=1, max_size=4, unique=True))
    u = Imset.zero(g)
    for k in ranks:
        u = u + elementary_imset(ElementaryIndex.from_rank(g, k))
    return u.scale(draw(st.integers(1, 3)))


_G4 = GroundSet(4)


def elementary_sum(g, *names):
    u = Imset.zero(g)
    for name in names:
        u = u + semi_elementary(Triplet.parse(g, name))
    return u


# At n=4 every structural imset is combinatorial (see
# test_structural_and_combinatorial_agree_for_four_variables), so the
# explicit examples are multiples of semi-elementary imsets with |A||B| > 1
# and two sums whose first harvest LP is infeasible and whose Farkas cut
# leaves columns for a later LP to decide.
@settings(max_examples=6, deadline=None)
@given(elementary_sums_n4())
@example(semi_elementary(Triplet.parse(_G4, "ab|cd|0")).scale(2))
@example(semi_elementary(Triplet.parse(_G4, "a|bc|d")).scale(3))
@example(elementary_sum(_G4, "b|c|a", "b|d|0", "a|b|cd"))
@example(elementary_sum(_G4, "c|d|0", "b|d|ac", "c|d|ab", "a|c|d").scale(2))
def test_face_first_model_matches_lp_oracle(u):
    model, face = lp_oracle(u)
    assert certified_face_ranks(u) == face
    assert [e.rank for e in face_of_structural(u)] == face
    assert ci_model_of_imset(u) == model


def lp_harvest_ranks(u):
    """certified_face_ranks with the skeleton switched off, both its rays
    and its step, so that every column the base witness and the indicator
    cuts leave goes to the LP harvest: the oracle for the skeleton path at
    n <= 4."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(faces, "_separating_table", membership._cut_table)
        mp.setattr(faces, "SKELETON_MAX_N", 0)
        return certified_face_ranks(u)


def counted_lps(mp):
    """Count the LPs certify_face solves from here on."""
    calls = []
    solve = faces.lp_feasible
    mp.setattr(faces, "lp_feasible", lambda A, b: calls.append(1) or solve(A, b))
    return calls


@st.composite
def weighted_sums_n3_n4(draw):
    """Σ w_k u_k over 1-6 distinct elementary imsets at n = 3 or 4, with
    weights 1-3."""
    g = GroundSet(draw(st.sampled_from((3, 4))))
    ranks = draw(st.lists(st.integers(0, g.num_elementary - 1), min_size=1, max_size=6, unique=True))
    u = Imset.zero(g)
    for k in ranks:
        u = u + elementary_imset(ElementaryIndex.from_rank(g, k)).scale(draw(st.integers(1, 3)))
    return u


# the last example pauses the skeleton path's search, so the LP harvest
# decides it on both sides
@settings(max_examples=40, deadline=None)
@given(weighted_sums_n3_n4())
@example(elementary_sum(_G4, "c|d|ab", "a|b|0", "a|b|c", "a|b|d"))
@example(Imset.from_dict(_G4, {
    "0": 7, "b": -2, "c": -2, "d": -7, "ab": -2, "ac": -2, "ad": 2, "bc": 1,
    "bd": 2, "cd": 2, "bcd": -1, "abcd": 2,
}))
def test_skeleton_path_matches_the_lp_harvest(u):
    assert certified_face_ranks(u) == lp_harvest_ranks(u)


# the first three leave columns to the search of the skeleton step; in the
# last two the base witness, the cuts and the tight rays decide everything
_SEARCHED = [
    semi_elementary(Triplet.parse(_G4, "ab|cd|0")).scale(2),
    semi_elementary(Triplet.parse(_G4, "a|bc|d")).scale(3),
    elementary_sum(_G4, "c|d|0", "b|d|ac", "c|d|ab", "a|c|d").scale(2),
]
_DECIDED = [
    elementary_sum(_G4, "b|c|a", "b|d|0", "a|b|cd"),
    elementary_sum(_G4, "c|d|ab", "a|b|0", "a|b|c", "a|b|d"),
]


@pytest.mark.parametrize("u", _SEARCHED + _DECIDED)
def test_skeleton_path_solves_no_lp(u, monkeypatch):
    want = lp_harvest_ranks(u)
    calls = counted_lps(monkeypatch)
    assert certified_face_ranks(u) == want and not calls


@pytest.mark.parametrize("u", _SEARCHED)
def test_a_paused_search_falls_back_to_the_lp_harvest(u, monkeypatch):
    want = certified_face_ranks(u)
    calls = counted_lps(monkeypatch)
    monkeypatch.setattr(faces, "_search_pause", lambda g: 0)
    assert certified_face_ranks(u) == want and calls


def test_four_generator_face_is_cut_by_its_skeleton_ray(monkeypatch):
    u = elementary_sum(_G4, "c|d|ab", "a|b|0", "a|b|c", "a|b|d")
    k = ElementaryIndex.from_triplet(Triplet.parse(_G4, "a|b|cd")).rank
    m = four_generator_witness(_G4).values
    assert certify_face(u)[1][k] == m
    # without that ray v = mu·u - s is not in the cone, and the search says so
    rays = tuple(ray for ray in _skeleton(_G4) if ray[0] != m)
    monkeypatch.setattr(faces, "_separating_table", lambda g: membership._CutTable.of(g, rays))
    with pytest.raises(InvariantError):
        certify_face(u)


@pytest.mark.parametrize("text", ["a|b|cde", "ab|cd|e", "abc|de|0"])
def test_face_of_semi_elementary_n5(text):
    t = Triplet.parse(GroundSet(5), text)
    u = semi_elementary(t)
    assert certified_face_ranks(u) == [e.rank for e in extreme_set(t)]
    assert [e.rank for e in face_of_structural(u)] == [e.rank for e in extreme_set(t)]
    assert ci_model_of_imset(u).contains(t)


_CONFLICT_SCRIPT = """
from imsetkit import faces, membership
from imsetkit.groundset import ElementaryIndex, GroundSet
from imsetkit.imsets import elementary_imset

g = GroundSet(5)
u = elementary_imset(ElementaryIndex.from_rank(g, 0))
print([e.rank for e in faces.face_of_structural(u)])
# a cut that claims to exclude column 0, which the base witness puts inside
faces._separating_table = lambda g: membership._CutTable((((0,) * g.num_subsets, (0,)),), ((),), ())
try:
    faces.face_of_structural(u)
    print("unchecked")
except faces.InvariantError:
    print("checked")
"""


def test_face_conflict_raises_under_python_O():
    src = str(Path(imsetkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", _CONFLICT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.splitlines() == ["[0]", "checked"]


_SKELETON_CONFLICT_SCRIPT = """
from imsetkit import faces, membership
from imsetkit.groundset import ElementaryIndex, GroundSet
from imsetkit.imsets import elementary_imset

g = GroundSet(3)
u = elementary_imset(ElementaryIndex.from_rank(g, 0))
print([e.rank for e in faces.face_of_structural(u)])
# a ray tight at u that claims to exclude column 0, which the base witness
# puts inside
faces._separating_table = lambda g: membership._CutTable.of(g, (((0,) * g.num_subsets, (0,)),))
try:
    faces.face_of_structural(u)
    print("unchecked")
except faces.InvariantError:
    print("checked")
"""


def test_skeleton_conflict_raises_under_python_O():
    src = str(Path(imsetkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", _SKELETON_CONFLICT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.splitlines() == ["[0]", "checked"]


def test_subconfiguration():
    g3 = GroundSet(3)
    sub = subconfiguration(Triplet.parse(g3, "a|bc|0"))
    assert sub.num_rows == 8 and sub.num_cols == 4
    g4 = GroundSet(4)
    single = subconfiguration(Triplet.parse(g4, "a|b|cd"))
    assert single.num_cols == 1
    e = ElementaryIndex.from_triplet(Triplet.parse(g4, "a|b|cd"))
    assert single.column_vector(0) == elementary_imset(e).values
    with pytest.raises(ValueError):
        subconfiguration(Triplet.parse(g4, "a|b|c"))  # ABC != N


def test_conditioning_shift_preserves_size_and_rank():
    # <A|B|C> over N and <A|B|0> over the ground set ABC describe faces of
    # equal size and dimension
    rng = random.Random(17)
    g = GroundSet(5)
    cands = [t for t in enumerate_triplets(g) if t.c_mask]
    for t in rng.sample(cands, 10):
        labels = [g.labels[i] for i in bit_indices(t.a_mask | t.b_mask | t.c_mask)]
        g2 = GroundSet(labels)
        a2 = g2.parse_subset("".join(g.labels[i] for i in bit_indices(t.a_mask)))
        b2 = g2.parse_subset("".join(g.labels[i] for i in bit_indices(t.b_mask)))
        t2 = Triplet(g2, a2, b2, 0)
        assert len(extreme_set(t)) == len(extreme_set(t2))
        assert extreme_rank(t) == extreme_rank(t2)


def test_face_description_json():
    g = GroundSet(4)
    desc = face_description(Triplet.parse(g, "a|b|cd"))
    data = desc.to_json()
    assert data["triplet"] == "a|b|cd"
    assert data["dimension"] == 1
    assert data["extreme_set"] == ["a|b|cd"]
    assert len(data["orthogonal_set"]) == 15
    assert all(d["kind"] in ("superset-of", "subset-of") for d in data["orthogonal_set"])
    # a triplet with nonempty C produces subset-of (family 3) descriptors
    desc2 = face_description(Triplet.parse(g, "a|b|c")).to_json()
    kinds = {d["kind"] for d in desc2["orthogonal_set"]}
    assert "subset-of" in kinds and "superset-of" in kinds
