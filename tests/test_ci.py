import itertools
import math
import random

import pytest

from imsetkit.ci import (
    CIModel,
    JointTable,
    _elementary_closure,
    ci_model_of_P,
    ci_model_of_imset,
    equivalence_3x3_check,
    multiinformation,
    semigraphoid_closure,
)
from imsetkit.faces import extreme_set, face_of_structural
from imsetkit.groundset import GroundSet, Triplet, enumerate_elementary, enumerate_triplets
from imsetkit.imsets import Imset, elementary_imset, semi_elementary


def _closure_step(ground, stmts):
    # one round of the four semi-graphoid axioms on canonical triplets
    new = set(stmts)
    as_masks = [(t.a_mask, t.b_mask, t.c_mask) for t in stmts]

    def add(a, b, c):
        if a and b:
            new.add(Triplet(ground, a, b, c))

    for a, b, c in as_masks:
        for first, second in ((a, b), (b, a)):
            # decomposition and weak union over proper nonempty parts of
            # the second slot
            sub = (second - 1) & second
            while sub > 0:
                rest = second & ~sub
                add(first, sub, c)          # decomposition
                add(first, sub, c | rest)   # weak union
                sub = (sub - 1) & second
    # contraction: <X|D|BC> and <X|B|C> give <X|BD|C>
    items = list(new)
    for t1 in items:
        for x1, d1 in ((t1.a_mask, t1.b_mask), (t1.b_mask, t1.a_mask)):
            for t2 in items:
                for x2, b2 in ((t2.a_mask, t2.b_mask), (t2.b_mask, t2.a_mask)):
                    if x1 == x2 and t1.c_mask == (b2 | t2.c_mask) and not d1 & b2:
                        add(x1, b2 | d1, t2.c_mask)
    return new


def four_axiom_closure(ground, statements):
    # differential oracle: the four axioms repeated to a fixed point
    stmts = set()
    for t in statements:
        t = Triplet.parse(ground, t) if isinstance(t, str) else t
        if not t.is_trivial:
            stmts.add(t)
    while True:
        grown = _closure_step(ground, stmts)
        if grown == stmts:
            return CIModel(ground, frozenset(stmts))
        stmts = grown


def face_sweep_model(u):
    # differential oracle: t is in the model iff E_t lies in the face of u
    g = u.ground
    face = {e.rank for e in face_of_structural(u)}
    stmts = [t for t in enumerate_triplets(g) if all(e.rank in face for e in extreme_set(t))]
    return CIModel.from_triplets(g, stmts)


def product_table(ground, margins):
    # independent variables with the given one-dimensional margins
    cards = [len(m) for m in margins]
    probs = []

    def rec(i, acc):
        if i == len(margins):
            probs.append(acc)
            return
        for p in margins[i]:
            rec(i + 1, acc * p)

    rec(0, 1.0)
    return JointTable(ground, cards, probs)


def markov_chain_table():
    # binary chain a -> c -> b, generic parameters, so the only CI statement
    # is a | b | c
    g = GroundSet(3)
    pa = [0.3, 0.7]
    pc_given_a = [[0.8, 0.2], [0.25, 0.75]]
    pb_given_c = [[0.6, 0.4], [0.1, 0.9]]
    probs = []
    for a in range(2):
        for b in range(2):
            for c in range(2):
                probs.append(pa[a] * pc_given_a[a][c] * pb_given_c[c][b])
    return g, JointTable(g, (2, 2, 2), probs)


def entropy(dist):
    return -sum(p * math.log(p) for p in dist if p > 0)


def test_joint_table_validation():
    g = GroundSet(2)
    with pytest.raises(ValueError):
        JointTable(g, (2, 2), [0.5, 0.5, 0.5, 0.5])  # does not sum to 1
    with pytest.raises(ValueError):
        JointTable(g, (2, 2), [0.75, 0.75, -0.25, -0.25])  # negative
    with pytest.raises(ValueError):
        JointTable(g, (2,), [1.0])  # one cardinality per variable
    with pytest.raises(ValueError):
        JointTable(g, (2, 9), [1.0 / 18] * 18)  # too many states
    with pytest.raises(ValueError):
        JointTable(GroundSet(7), (2,) * 7, [1.0 / 128] * 128)  # too many variables
    # cardinalities follow the integer rule of Imset.from_dict
    for cards in ([2.7, 2], ["2", True], [2, 2.5]):
        with pytest.raises(ValueError, match="cardinalities must be integers"):
            JointTable(g, cards, [0.25] * 4)
    assert JointTable(g, [2.0, 2], [0.25] * 4).cardinalities == (2, 2)
    t = JointTable.normalized(g, (2, 2), [1, 2, 3, 4])
    assert abs(sum(t.probabilities) - 1.0) < 1e-15
    assert t.probabilities[3] == 0.4


def test_marginal_consistency():
    rng = random.Random(7)
    g = GroundSet(3)
    cards = (2, 3, 2)
    weights = [rng.random() for _ in range(12)]
    P = JointTable.normalized(g, cards, weights)
    # full marginal is the table itself, empty marginal is the total mass
    assert P.marginal(0b111) == pytest.approx(P.probabilities)
    assert P.marginal(0) == pytest.approx([1.0])
    # marginal over {a} against direct summation (b, c summed out)
    pa = P.marginal(0b001)
    direct = [sum(P.probabilities[a * 6 + r] for r in range(6)) for a in range(2)]
    assert pa == pytest.approx(direct)
    # marginal over {a, c} preserves mass
    pac = P.marginal(0b101)
    assert sum(pac) == pytest.approx(1.0)
    assert len(pac) == 4


def test_multiinformation_product_distribution_is_zero():
    g = GroundSet(3)
    P = product_table(g, [[0.2, 0.8], [0.5, 0.5], [0.1, 0.3, 0.6]])
    m = multiinformation(P)
    for mask in range(8):
        assert abs(m.at(mask)) < 1e-12


def test_multiinformation_matches_entropy_identity():
    # m(S) = Σ_{i in S} H(P^i) - H(P^S), an independent route to the value
    rng = random.Random(11)
    g = GroundSet(3)
    cards = (2, 2, 3)
    P = JointTable.normalized(g, cards, [rng.random() + 0.05 for _ in range(12)])
    m = multiinformation(P)
    for mask in range(8):
        singles = sum(entropy(P.marginal(1 << i)) for i in range(3) if mask & (1 << i))
        expected = singles - entropy(P.marginal(mask))
        assert abs(m.at(mask) - expected) < 1e-12
    # nonnegativity of multiinformation
    for mask in range(8):
        assert m.at(mask) > -1e-12


def test_markov_chain_ci_model():
    g, P = markov_chain_table()
    model = ci_model_of_P(P)
    assert model.contains(Triplet.parse(g, "a|b|c"))
    assert not model.contains(Triplet.parse(g, "a|c|b"))
    assert not model.contains(Triplet.parse(g, "a|b|0"))
    assert model.contains(Triplet(g, g.parse_subset("a"), 0, g.parse_subset("c")))  # trivial
    assert model.to_strings() == ["a|b|c"]
    closure = semigraphoid_closure(g, ["a|b|c"])
    assert model == closure


def test_semigraphoid_closure_derivations():
    g = GroundSet(3)
    # closure of full independence a ⊥ {b, c}
    closed = semigraphoid_closure(g, ["a|bc|0"])
    expected = {"a|bc|0", "a|b|0", "a|c|0", "a|b|c", "a|c|b"}
    assert set(closed.to_strings()) == expected
    # contraction: a ⊥ c and a ⊥ b | c rebuild a ⊥ {b, c}
    closed2 = semigraphoid_closure(g, ["a|c|0", "a|b|c"])
    assert set(closed2.to_strings()) == expected
    # a single elementary statement is already closed
    assert semigraphoid_closure(g, ["b|c|a"]).to_strings() == ["b|c|a"]
    assert semigraphoid_closure(g, []).to_strings() == []


def test_closure_matches_imset_model():
    # two independent notions of the consequences of a ⊥ {b, c} must agree
    g = GroundSet(3)
    u = semi_elementary(Triplet.parse(g, "a|bc|0"))
    model = ci_model_of_imset(u)
    closed = semigraphoid_closure(g, ["a|bc|0"])
    assert model == closed


def test_ci_model_of_imset_small_cases():
    g = GroundSet(3)
    u = semi_elementary(Triplet.parse(g, "a|b|c"))
    assert ci_model_of_imset(u).to_strings() == ["a|b|c"]
    # the zero imset induces only trivial statements
    zero_model = ci_model_of_imset(Imset.zero(g))
    assert zero_model.to_strings() == []
    assert zero_model.contains(Triplet(g, g.parse_subset("ab"), 0, 0))


def test_ci_model_of_imset_rejects_non_structural():
    g = GroundSet(3)
    not_lattice = Imset.from_dict(g, {"abc": 1, "0": -1})
    with pytest.raises(ValueError):
        ci_model_of_imset(not_lattice)
    negative = -semi_elementary(Triplet.parse(g, "a|b|0"))
    with pytest.raises(ValueError):
        ci_model_of_imset(negative)


def test_model_of_P_equals_model_of_its_imset():
    # summing the semi-elementary imsets of every statement that holds for P
    # yields a structural imset inducing the same model
    g, P = markov_chain_table()
    model = ci_model_of_P(P)
    u = Imset.zero(g)
    for s in model.to_strings():
        u = u + semi_elementary(Triplet.parse(g, s))
    assert ci_model_of_imset(u) == model
    # same exercise for full independence
    P2 = product_table(g, [[0.2, 0.8], [0.5, 0.5], [0.1, 0.9]])
    model2 = ci_model_of_P(P2)
    assert len(model2) == 9  # every canonical statement holds
    u2 = Imset.zero(g)
    for s in model2.to_strings():
        u2 = u2 + semi_elementary(Triplet.parse(g, s))
    assert ci_model_of_imset(u2) == model2


def test_equivalence_3x3_check():
    report = equivalence_3x3_check()
    assert report["ok"]
    assert report["three_three"]
    assert report["expansion_1"]
    assert report["expansion_2"]
    assert report["kernel"]
    # also over a larger ground set, using its first four labels
    report5 = equivalence_3x3_check(GroundSet(5))
    assert report5["ok"]


def test_joint_table_serialization_round_trip():
    g, P = markov_chain_table()
    again = JointTable.from_json(P.to_json())
    assert again.ground == g
    assert again.cardinalities == P.cardinalities
    assert again.probabilities == pytest.approx(P.probabilities, abs=0)
    via_csv = JointTable.from_csv(P.to_csv())
    assert via_csv.ground == g
    assert via_csv.probabilities == P.probabilities


def test_ci_model_serialization():
    g = GroundSet(3)
    model = CIModel.from_strings(g, ["a|b|c", "b|c|0"])
    assert model.to_strings() == ["a|b|c", "b|c|0"]
    assert model == CIModel.from_strings(g, ["b|c|0", "a|b|c"])
    assert model.contains(Triplet.parse(g, "a|b|c"))
    assert not model.contains(Triplet.parse(g, "a|c|b"))
    # statements over a mismatched ground set are rejected
    with pytest.raises(ValueError):
        CIModel.from_triplets(g, [Triplet.parse(GroundSet(4), "a|b|cd")])


@pytest.mark.parametrize("n, count", [(2, 40), (3, 160), (4, 200), (5, 140), (6, 60)])
def test_semigraphoid_closure_matches_four_axiom_oracle(n, count):
    rng = random.Random(1000 + n)
    g = GroundSet(n)
    triplets = enumerate_triplets(g)
    for i in range(count):
        k = 0 if i == 0 else rng.randint(1, 3)
        stmts = rng.sample(triplets, min(k, len(triplets)))
        # half of the inputs pass Triplets, half their strings
        given = stmts if i % 2 else [str(t) for t in stmts]
        assert semigraphoid_closure(g, given) == four_axiom_closure(g, stmts), stmts


@pytest.mark.parametrize("n, count", [(3, 50), (4, 40), (5, 15)])
def test_ci_model_of_imset_matches_face_sweep_oracle(n, count):
    rng = random.Random(2000 + n)
    g = GroundSet(n)
    elems = enumerate_elementary(g)
    triplets = enumerate_triplets(g)
    for _ in range(count):
        u = Imset.zero(g)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                u = u + elementary_imset(rng.choice(elems)).scale(rng.randint(1, 2))
            else:
                u = u + semi_elementary(rng.choice(triplets))
        assert ci_model_of_imset(u) == face_sweep_model(u), u.to_dict()


@pytest.mark.parametrize("n, closed", [(2, 2), (3, 22)])
def test_elementary_closed_sets_are_the_semigraphoids(n, closed):
    # every subset of E(N) closed under the elementary rule is the
    # elementary part of one semi-graphoid: 22 at n = 3
    g = GroundSet(n)
    ranks = range(g.num_elementary)
    subsets = [
        set(s) for k in range(len(ranks) + 1) for s in itertools.combinations(ranks, k)
    ]
    assert sum(_elementary_closure(g, s) == s for s in subsets) == closed
