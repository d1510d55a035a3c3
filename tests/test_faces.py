import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import imsetkit
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
from imsetkit.linalg import lp_feasible
from imsetkit.supermodular import is_supermodular


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

g = GroundSet(3)
u = elementary_imset(ElementaryIndex.from_rank(g, 0))
print([e.rank for e in faces.face_of_structural(u)])
# a cut that claims to exclude column 0, which the base witness puts inside
faces._cut_table = lambda g: membership._CutTable((((0,) * g.num_subsets, (0,)),), ((),), 0, ())
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
