"""Conditional independence semantics for discrete joint distributions.

The multiinformation of a distribution P over the variables in N is the set
function m_P with m_P(S) = relative entropy of the marginal P^S to the
product of its one-dimensional marginals (natural log; m_P(∅) = 0).  A CI
statement <A|B|C> holds for P exactly when

    m(ABC) + m(C) - m(AC) - m(BC) = 0

(the left side is the conditional mutual information, always >= 0), so CI
testing is tolerance-based on floats while the imset side of the theory
stays exact.

The exact models work on elementary statements, which fix a semi-graphoid:
a set of them is the elementary part of one exactly when the two sides of
every basic 2x2 move imply each other (Studený 2005, Lemma 2.2).
semigraphoid_closure closes the input's elementary components under that
rule; ci_model_of_imset takes the least face of u (faces.certify_face),
since by the face theorem t is in the model of u exactly when E_t lies in
it.  One read-off, _model_of, turns either closed set into a CIModel.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

from .faces import extreme_set, face_of_structural
from .groundset import ElementaryIndex, GroundSet, Triplet, bit_indices, enumerate_triplets
from .imsets import Imset, semi_elementary
# lp_feasible: unused, but bench/test_bench.py checks the tracer patches it
from .linalg import InvariantError, lp_feasible  # noqa: F401
from .membership import classify
from .relations import Move, _rank_of
from .supermodular import SetFunction

SUM_TOL = 1e-12


class JointTable:
    """Dense joint probability table over the ground-set variables.

    probabilities are row-major in label order: the state of the last label
    varies fastest.  Desk scale: at most 6 variables, at most 8 states each.
    """

    def __init__(self, ground: GroundSet, cardinalities, probabilities):
        if ground.n > 6:
            raise ValueError("joint tables support at most 6 variables")
        cards = tuple(int(c) for c in cardinalities)
        if cards != tuple(cardinalities):
            raise ValueError(f"cardinalities must be integers, got {list(cardinalities)!r}")
        if len(cards) != ground.n or any(not 1 <= c <= 8 for c in cards):
            raise ValueError("need one cardinality in 1..8 per variable")
        size = math.prod(cards)
        probs = [float(p) for p in probabilities]
        if len(probs) != size:
            raise ValueError(f"need {size} probabilities, got {len(probs)}")
        if any(p < 0 for p in probs):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > SUM_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        self.ground = ground
        self.cardinalities = cards
        self.probabilities = probs

    @classmethod
    def normalized(cls, ground: GroundSet, cardinalities, weights) -> "JointTable":
        """Build from nonnegative weights, dividing by their sum."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        return cls(ground, cardinalities, [w / total for w in weights])

    def _cells(self):
        """(state tuple, probability) per cell, in row-major order."""
        return zip(itertools.product(*map(range, self.cardinalities)), self.probabilities)

    def marginal(self, mask: int):
        """Marginal table over the variables in `mask`, row-major in label
        order."""
        idx = bit_indices(mask)
        cards = [self.cardinalities[i] for i in idx]
        size = math.prod(cards) if cards else 1
        out = [0.0] * size
        for state, p in self._cells():
            if p == 0.0:
                continue
            pos = 0
            for i in idx:
                pos = pos * self.cardinalities[i] + state[i]
            out[pos] += p
        return out

    def to_json(self) -> dict:
        return {
            "labels": "".join(self.ground.labels),
            "cardinalities": list(self.cardinalities),
            "probabilities": list(self.probabilities),
        }

    @classmethod
    def from_json(cls, data: dict) -> "JointTable":
        labels = data.get("labels")
        cards = data["cardinalities"]
        ground = GroundSet(labels) if labels else GroundSet(len(cards))
        return cls(ground, cards, data["probabilities"])

    def to_csv(self) -> str:
        """One row per cell: variable states then the probability."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(list(self.ground.labels) + ["p"])
        for state, p in self._cells():
            w.writerow([*state, repr(p)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "JointTable":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or len(rows[0]) < 2 or rows[0][-1] != "p":
            raise ValueError("CSV joint table needs a header of labels then 'p'")
        labels = rows[0][:-1]
        ground = GroundSet(labels)
        body = [r for r in rows[1:] if r]
        states = [[int(x) for x in r[:-1]] for r in body]
        cards = [max(s[i] for s in states) + 1 for i in range(len(labels))]
        probs = [0.0] * math.prod(cards)
        for r, s in zip(body, states):
            flat = 0
            for card, st in zip(cards, s):
                flat = flat * card + st
            probs[flat] = float(r[-1])
        return cls(ground, cards, probs)


def multiinformation(P: JointTable) -> SetFunction:
    """m_P as a float-valued SetFunction; m_P(S) = D(P^S || Π_i P^i)."""
    g = P.ground
    singles = [P.marginal(1 << i) for i in range(g.n)]
    values = []
    for mask in g.masks_graded:
        idx = bit_indices(mask)
        if len(idx) <= 1:
            values.append(0.0)
            continue
        marg = P.marginal(mask)
        cards = [P.cardinalities[i] for i in idx]
        total = 0.0
        for pos, p in enumerate(marg):
            if p <= 0.0:
                continue
            rem = pos
            log_prod = 0.0
            for j in range(len(idx) - 1, -1, -1):
                rem, st = divmod(rem, cards[j])
                log_prod += math.log(singles[idx[j]][st])
            total += p * (math.log(p) - log_prod)
        values.append(total)
    return SetFunction(g, tuple(values))


def _ci_value(m: SetFunction, t: Triplet) -> float:
    abc = t.a_mask | t.b_mask | t.c_mask
    return (
        m.at(abc) + m.at(t.c_mask) - m.at(t.a_mask | t.c_mask) - m.at(t.b_mask | t.c_mask)
    )


@dataclass(frozen=True)
class CIModel:
    """A set of canonical CI statements (A, B nonempty) over a ground set.

    Trivial statements <A|0|C> hold implicitly and are never stored.
    """

    ground: GroundSet
    statements: frozenset

    @classmethod
    def from_triplets(cls, ground: GroundSet, triplets) -> "CIModel":
        stmts = set()
        for t in triplets:
            if t.ground != ground:
                raise ValueError("statement over a different ground set")
            if not t.is_trivial:
                stmts.add(t)
        return cls(ground, frozenset(stmts))

    @classmethod
    def from_strings(cls, ground: GroundSet, strings) -> "CIModel":
        return cls.from_triplets(ground, (Triplet.parse(ground, s) for s in strings))

    def contains(self, t: Triplet) -> bool:
        if t.is_trivial:
            return True
        return t in self.statements

    def to_strings(self):
        return sorted(str(t) for t in self.statements)

    def __len__(self):
        return len(self.statements)


def ci_model_of_P(P: JointTable, tol: float = 1e-9) -> CIModel:
    """All canonical triplets that hold for P within tol."""
    m = multiinformation(P)
    g = P.ground
    stmts = [t for t in enumerate_triplets(g) if abs(_ci_value(m, t)) < tol]
    return CIModel.from_triplets(g, stmts)


def _elementary_closure(g: GroundSet, ranks) -> set:
    """Least superset of the elementary ranks closed under the elementary
    semi-graphoid rule: the two sides of each basic 2x2 move
    <a|y|C> + <a|z|yC> = <a|z|C> + <a|y|zC> imply each other.  Each rank
    taken off the worklist checks only the 2·(n-2) moves through it."""
    closed = set(ranks)
    todo = list(closed)
    while todo:
        x, y, d = g.elementary_triples[todo.pop()]
        for a, b in ((x, y), (y, x)):
            for z in bit_indices(g.full_mask & ~(1 << a | 1 << b)):
                c = d & ~(1 << z)
                left = (_rank_of(g, a, b, c), _rank_of(g, a, z, c | 1 << b))
                right = (_rank_of(g, a, z, c), _rank_of(g, a, b, c | 1 << z))
                for side, other in ((left, right), (right, left)):
                    if side[0] in closed and side[1] in closed:
                        new = [r for r in other if r not in closed]
                        closed.update(new)
                        todo.extend(new)
    return closed


def _model_of(g: GroundSet, ranks) -> CIModel:
    """The model {t : E_t ⊆ ranks} of a closed set of elementary ranks,
    grown level by level in |A| + |B| from the elementary pairs: in a
    semi-graphoid <A|Bx|C> holds exactly when <A|B|C> and <A|x|BC> do.
    The growth keeps both orientations (A, B, C) and (B, A, C); Triplet
    puts the one with A < B as masks into canonical order."""
    level = set()
    for r in ranks:
        a, b, c = g.elementary_triples[r]
        level |= {(1 << a, 1 << b, c), (1 << b, 1 << a, c)}
    found = set(level)
    while level:
        grown = set()
        for a, b, c in level:
            for x in bit_indices(g.full_mask & ~(a | b | c)):
                if (a, 1 << x, b | c) in found:
                    grown |= {(a, b | 1 << x, c), (b | 1 << x, a, c)}
        found |= grown
        level = grown
    return CIModel(g, frozenset(Triplet(g, a, b, c) for a, b, c in found if a < b))


def semigraphoid_closure(ground: GroundSet, statements) -> CIModel:
    """Least superset closed under symmetry, decomposition, weak union, and
    contraction, read off the elementary closure of the statements'
    elementary components (a semi-graphoid is fixed by its elementary part)."""
    ranks = set()
    for t in statements:
        if isinstance(t, str):
            t = Triplet.parse(ground, t)
        if t.ground != ground:
            raise ValueError("statement over a different ground set")
        if not t.is_trivial:
            ranks.update(e.rank for e in extreme_set(t))
    return _model_of(ground, _elementary_closure(ground, ranks))


def is_structural(u: Imset) -> bool:
    """Does u lie in the cone generated by the elementary imsets, with
    integer lattice membership?  Decided by membership.classify, the one
    structural test of the library."""
    return classify(u).membership_class in ("combinatorial", "structural")


def ci_model_of_imset(u: Imset) -> CIModel:
    """CI model induced by a structural imset u.

    t is in the model iff u_t can be extracted from a positive multiple of
    u: exists mu, lambda >= 0 with mu*u - Σ lambda_w w = u_t over the
    elementary imsets w.  Since u_t lies in the relative interior of the
    face spanned by E_t = extreme_set(t), that holds iff E_t lies in the
    least face F(u) of u.  F(u) is computed once, with an exact reason per
    elementary column (faces.certify_face), and the model is read off its
    elementary ranks by the same _model_of as semigraphoid_closure.
    """
    g = u.ground
    face = {e.rank for e in face_of_structural(u)}
    # the read-off needs a closed set; a structural model is a semi-graphoid
    if _elementary_closure(g, face) != face:
        raise InvariantError("face of a structural imset is not semi-graphoid closed")
    return _model_of(g, face)


def equivalence_3x3_check(ground: GroundSet | None = None) -> dict:
    """Verify the 3x3 exchange identity among semi-elementary imsets and its
    two three-way expansions of u_<a|bcd|0>, plus the kernel membership of
    the difference vector.  Returns a report of exact booleans."""
    g = ground if ground is not None else GroundSet(4)
    if g.n < 4:
        raise ValueError("needs at least four variables")
    a, b, c, d = g.labels[:4]

    def u(x, y, z):
        return semi_elementary(Triplet(g, g.parse_subset(x), g.parse_subset(y), g.parse_subset(z)))

    lhs = u(a, b, c) + u(a, c, d) + u(a, d, b)
    rhs = u(a, c, b) + u(a, d, c) + u(a, b, d)
    three_three = lhs == rhs

    target = semi_elementary(
        Triplet(g, g.parse_subset(a), g.parse_subset(b + c + d), 0)
    ).scale(3)
    exp1 = (
        (u(a, b, "0") + u(a, c, b) + u(a, d, b + c))
        + (u(a, c, "0") + u(a, d, c) + u(a, b, c + d))
        + (u(a, d, "0") + u(a, b, d) + u(a, c, b + d))
    )
    exp2 = (
        (u(a, b, "0") + u(a, d, b) + u(a, c, b + d))
        + (u(a, c, "0") + u(a, b, c) + u(a, d, b + c))
        + (u(a, d, "0") + u(a, c, d) + u(a, b, c + d))
    )
    expansion_1 = exp1 == target
    expansion_2 = exp2 == target

    # the difference of the two sides, as an elementary-coefficient vector,
    # is annihilated by the configuration
    coeffs = [0] * g.num_elementary
    for sign, side in ((1, (f"{a}|{b}|{c}", f"{a}|{c}|{d}", f"{a}|{d}|{b}")),
                       (-1, (f"{a}|{c}|{b}", f"{a}|{d}|{c}", f"{a}|{b}|{d}"))):
        for s in side:
            t = Triplet.parse(g, s)
            coeffs[ElementaryIndex.from_triplet(t).rank] += sign
    try:
        Move(g, tuple(coeffs))
        kernel_ok = True
    except ValueError:
        kernel_ok = False
    return {
        "ok": three_three and expansion_1 and expansion_2 and kernel_ok,
        "three_three": three_three,
        "expansion_1": expansion_1,
        "expansion_2": expansion_2,
        "kernel": kernel_ok,
    }
