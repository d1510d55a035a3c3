"""Cross-module invariants on randomized inputs with fixed seeds.

These properties are mathematical identities, so each loop asserts them
directly; the seeds pin the exact instances for reproducibility.
"""

import json
import random
from fractions import Fraction

from imsetkit.ci import (
    JointTable,
    ci_model_of_P,
    multiinformation,
    semigraphoid_closure,
)
from imsetkit.faces import face_description
from imsetkit.groundset import GroundSet, Triplet, enumerate_triplets, popcount
from imsetkit.imsets import (
    Imset,
    decompose_semi_elementary,
    elementary_imset,
    inner,
    semi_elementary,
)
from imsetkit.membership import classify
from imsetkit.supermodular import (
    SetFunction,
    first_supermodularity_violation,
    indicator_superset,
    max_k,
    standardize,
)


def random_table(rng, cards):
    g = GroundSet(len(cards))
    size = 1
    for c in cards:
        size *= c
    weights = [rng.random() + 0.05 for _ in range(size)]
    total = sum(weights)
    return JointTable(g, tuple(cards), tuple(w / total for w in weights))


def test_multiinformation_is_standardized_supermodular():
    # entropy-based multiinformation lands in the supermodular cone and
    # vanishes on all sets of size <= 1
    rng = random.Random(11)
    for trial in range(6):
        cards = [rng.choice((2, 3)) for _ in range(rng.choice((3, 4)))]
        m = multiinformation(random_table(rng, cards))
        g = m.ground
        assert m.at(0) == 0
        for i in range(g.n):
            assert abs(m.at(1 << i)) < 1e-12
        violation = first_supermodularity_violation(m, tol=1e-9)
        assert violation is None


def test_inner_product_is_the_defining_difference():
    # <f, u_<A|B|C>> = f(ABC) + f(C) - f(AC) - f(BC) for any f and triplet
    rng = random.Random(12)
    for trial in range(20):
        g = GroundSet(rng.choice((3, 4, 5)))
        f = SetFunction(
            g, tuple(Fraction(rng.randrange(-20, 21), rng.randrange(1, 5)) for _ in range(g.num_subsets))
        )
        ts = list(enumerate_triplets(g))
        t = ts[rng.randrange(len(ts))]
        abc = t.a_mask | t.b_mask | t.c_mask
        expected = (
            f.at(abc) + f.at(t.c_mask) - f.at(t.a_mask | t.c_mask) - f.at(t.b_mask | t.c_mask)
        )
        assert inner(f, semi_elementary(t)) == expected


def test_semi_elementary_decomposition_resums():
    rng = random.Random(13)
    for trial in range(30):
        g = GroundSet(rng.choice((3, 4, 5)))
        ts = list(enumerate_triplets(g))
        t = ts[rng.randrange(len(ts))]
        terms = decompose_semi_elementary(t)
        total = Imset.zero(g)
        mult = 0
        for e, c in terms:
            total = total + elementary_imset(e).scale(c)
            mult += c
        assert total.values == semi_elementary(t).values
        assert mult == popcount(t.a_mask) * popcount(t.b_mask)


def test_classification_is_scaling_invariant():
    # multiplying a structural or combinatorial imset by a positive integer
    # never changes its finest class
    rng = random.Random(14)
    g = GroundSet(4)
    ts = list(enumerate_triplets(g))
    for trial in range(10):
        u = Imset.zero(g)
        for _ in range(rng.randrange(1, 4)):
            u = u + semi_elementary(ts[rng.randrange(len(ts))])
        base = classify(u).membership_class
        for k in (2, 3):
            assert classify(u.scale(k)).membership_class == base


def test_distribution_models_are_semigraphoids():
    # the CI model of any finite distribution is closed under the
    # semi-graphoid derivations
    rng = random.Random(15)
    for trial in range(5):
        cards = [rng.choice((2, 3)) for _ in range(3)]
        P = random_table(rng, cards)
        model = ci_model_of_P(P, tol=1e-9)
        closed = semigraphoid_closure(model.ground, model.statements)
        assert closed.statements == model.statements


def test_closure_is_idempotent_and_monotone():
    rng = random.Random(16)
    g = GroundSet(4)
    ts = [t for t in enumerate_triplets(g)]
    for trial in range(10):
        picked = [ts[rng.randrange(len(ts))] for _ in range(rng.randrange(1, 4))]
        closed = semigraphoid_closure(g, picked)
        for t in picked:
            assert closed.contains(t)
        again = semigraphoid_closure(g, closed.statements)
        assert again.statements == closed.statements


def test_face_data_is_permutation_equivariant():
    # relabeling the variables permutes the face but keeps its shape
    rng = random.Random(17)
    g = GroundSet(5)
    ts = list(enumerate_triplets(g))
    for trial in range(8):
        t = ts[rng.randrange(len(ts))]
        perm = list(range(g.n))
        rng.shuffle(perm)

        def apply(mask):
            out = 0
            for i in range(g.n):
                if mask & (1 << i):
                    out |= 1 << perm[i]
            return out

        t2 = Triplet(g, apply(t.a_mask), apply(t.b_mask), apply(t.c_mask))
        d1 = face_description(t)
        d2 = face_description(t2)
        assert d1.dimension == d2.dimension
        assert len(d1.extreme_set) == len(d2.extreme_set)
        assert len(d1.family) == len(d2.family)


def test_supermodular_functions_pair_nonnegatively():
    # duality: supermodular f has <f, u_t> >= 0 against every semi-elementary
    # imset, not just the elementary ones
    rng = random.Random(18)
    for trial in range(6):
        g = GroundSet(rng.choice((3, 4)))
        f = SetFunction.from_callable(g, lambda m: Fraction(0))
        for _ in range(3):
            k = rng.randrange(1, g.n)
            f = f + max_k(g, k).scale(rng.randrange(0, 3))
            mask = rng.randrange(1, g.num_subsets)
            if popcount(mask) >= 2:
                f = f + indicator_superset(g.subset(mask)).scale(rng.randrange(0, 3))
        assert first_supermodularity_violation(f) is None
        for t in enumerate_triplets(g):
            assert inner(f, semi_elementary(t)) >= 0


def test_standardize_kills_modular_part_only():
    rng = random.Random(19)
    for trial in range(10):
        g = GroundSet(rng.choice((3, 4)))
        f = SetFunction(
            g, tuple(Fraction(rng.randrange(-10, 11)) for _ in range(g.num_subsets))
        )
        s = standardize(f)
        assert s.at(0) == 0
        for i in range(g.n):
            assert s.at(1 << i) == 0
        # the difference is modular, so every elementary pairing is unchanged
        for t in enumerate_triplets(g):
            if not t.is_elementary:
                continue
            assert inner(s, semi_elementary(t)) == inner(f, semi_elementary(t))


def test_serialization_round_trips():
    rng = random.Random(20)
    g = GroundSet(4)
    ts = list(enumerate_triplets(g))
    for trial in range(10):
        u = Imset.zero(g)
        for _ in range(rng.randrange(1, 4)):
            u = u + semi_elementary(ts[rng.randrange(len(ts))]).scale(rng.randrange(1, 3))
        assert Imset.from_dict(g, u.to_dict()).values == u.values
        assert Imset.from_dict(g, json.loads(json.dumps(u.to_dict()))).values == u.values

    for trial in range(5):
        cards = [rng.choice((2, 3)) for _ in range(3)]
        P = random_table(rng, cards)
        Q = JointTable.from_json(json.loads(json.dumps(P.to_json())))
        assert Q.cardinalities == P.cardinalities
        assert max(abs(p - q) for p, q in zip(P.probabilities, Q.probabilities)) == 0
