"""Batch verification suite shared by the acceptance tests and the CLI.

Every criterion is a zero-argument callable returning (ok, detail).  The
registry CRITERIA fixes numbering and names; run_suite executes a named
selection and reports one result record per criterion.  All randomized
checks use fixed seeds so the suite is deterministic.  It runs no LP:
criterion 4 checks the orthogonal-family certificate of every elementary
imset's extreme ray instead of one removal LP per imset.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from importlib import resources
from math import comb, prod
from time import perf_counter

import numpy as np

from .ci import (
    JointTable,
    ci_model_of_P,
    ci_model_of_imset,
    equivalence_3x3_check,
    multiinformation,
    semigraphoid_closure,
)
from .faces import (
    face_description,
    face_of_structural,
    extreme_rank,
    extreme_set,
    orthogonal_set,
    subconfiguration,
    verify_face_theorem,
)
from .groundset import (
    GroundSet,
    Triplet,
    enumerate_elementary,
    enumerate_triplets,
    popcount,
)
from .imsets import (
    Imset,
    column_value,
    configuration,
    decompose_semi_elementary,
    elementary_columns,
    elementary_imset,
    inner,
    semi_elementary,
)
from . import markov
from .markov import markov_basis
from .membership import classify, combinatorial_decompositions
from .relations import (
    Move,
    _cyclic_moves,
    _subset_images,
    basic_moves,
    classify_relation,
    enumerate_small_relations,
    reduce_to_basis,
)
from .supermodular import (
    SetFunction,
    duplicate_coordinate,
    extend_modular_top,
    extend_zero_slice,
    first_supermodularity_violation,
    four_generator_witness,
    indicator_superset,
    is_skeletal,
    max_k,
    product,
    reflect,
    skeleton,
)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _markov_chain_table() -> JointTable:
    """Three binary variables with a -> c -> b conditional structure."""
    pa = [0.3, 0.7]
    pc_given_a = [[0.8, 0.2], [0.25, 0.75]]
    pb_given_c = [[0.6, 0.4], [0.1, 0.9]]
    probs = []
    for a in range(2):
        for b in range(2):
            for c in range(2):
                probs.append(pa[a] * pc_given_a[a][c] * pb_given_c[c][b])
    return JointTable(GroundSet(3), (2, 2, 2), tuple(probs))


def _product_table(margins) -> JointTable:
    """Independent variables with the given one-dimensional margins."""
    probs = reduce(np.multiply.outer, map(np.asarray, margins))
    return JointTable(GroundSet(len(margins)), probs.shape, probs.ravel().tolist())


def _random_kernel_vector(rng, g, basics, max_terms=5, bound=5) -> Move:
    coeffs = [0] * g.num_elementary
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(basics)
        c = rng.choice([x for x in range(-bound, bound + 1) if x])
        for j, v in enumerate(m.coeffs):
            coeffs[j] += c * v
    return Move(g, tuple(coeffs))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_counting():
    """|E(N)| = C(n,2) * 2^(n-2) for n = 2..8, exactly."""
    for n in range(2, 9):
        want = comb(n, 2) * 2 ** (n - 2)
        got = GroundSet(n).num_elementary
        if got != want:
            return False, f"n={n}: |E(N)| = {got}, formula gives {want}"
    return True, "n=2..8 counts match C(n,2)*2^(n-2)"


def criterion_golden_configuration():
    """The n=4 configuration CSV reproduces the shipped golden file byte
    for byte."""
    golden = (
        resources.files("imsetkit").joinpath("data/configuration_n4.csv").read_text()
    )
    computed = configuration(GroundSet(4)).to_csv()
    if computed != golden:
        g_lines, c_lines = golden.splitlines(), computed.splitlines()
        for i, (x, y) in enumerate(zip(g_lines, c_lines)):
            if x != y:
                return False, f"first differing line {i}: {y!r} != {x!r}"
        return False, f"line counts differ: {len(c_lines)} vs {len(g_lines)}"
    return True, "16x24 matrix is byte-identical to the golden CSV"


def criterion_homogeneity():
    """<f, u> = 1 for f(S) = |S|^2/2 and every elementary imset, n=2..6."""
    checked = 0
    for n in range(2, 7):
        g = GroundSet(n)
        f = SetFunction.from_callable(g, lambda m: Fraction(popcount(m) ** 2, 2))
        for e in enumerate_elementary(g):
            if inner(f, elementary_imset(e)) != 1:
                return False, f"n={n}: <f, {e.triplet()}> != 1"
            checked += 1
    return True, f"{checked} elementary imsets over n=2..6, all inner products 1"


def _exposes(f, g: GroundSet, k: int) -> bool:
    """f is 0 on the k-th elementary column of g and > 0 on every other."""
    values = [column_value(f, column) for column in elementary_columns(g)]
    return values[k] == 0 and all(v > 0 for v in values[:k] + values[k + 1:])


def criterion_extreme_rays():
    """Every elementary imset u_t spans an extreme ray, n = 2..5: the sum f
    of the orthogonal family of t is 0 on u_t and > 0 on every other
    elementary imset, so f is supermodular and, on the cone, 0 only on the
    ray of u_t.  The check verifies f itself, assuming no face theorem."""
    checked = 0
    for n in range(2, 6):
        g = GroundSet(n)
        for k, e in enumerate(enumerate_elementary(g)):
            f = [sum(values) for values in zip(*(h.values for h in orthogonal_set(e.triplet())))]
            if not _exposes(f, g, k):
                return False, f"n={n}: the orthogonal family of {e} does not expose u_{e}"
            checked += 1
    return True, f"{checked} elementary imsets over n=2..5, each exposed by its orthogonal family"


def criterion_dimension_sweep():
    """rank(extreme_set) = (2^|A|-1)(2^|B|-1) and the orthogonal family has
    2^n - (2^|A|-1)(2^|B|-1) members for every triplet with n <= 5; the
    family is counted as (kind, T) pairs, with no vector built."""
    checked = 0
    for n in range(2, 6):
        g = GroundSet(n)
        for t in enumerate_triplets(g):
            desc = face_description(t)
            if extreme_rank(t) != desc.dimension:
                return False, f"n={n}: rank mismatch at {t}"
            if len(desc.family) != 2**n - desc.dimension:
                return False, f"n={n}: orthogonal count mismatch at {t}"
            checked += 1
    return True, f"{checked} triplets over n=2..5, dimensions and counts exact"


def criterion_face_theorem():
    """Face characterization verified in both directions: exhaustively at
    n=4, on a seeded sample at n=5; the orthogonal family is independent
    (rank = size)."""
    sample5 = random.Random(20240817).sample(enumerate_triplets(GroundSet(5)), 12)
    triplets = enumerate_triplets(GroundSet(4)) + sample5
    for t in triplets:
        # a dependent family is one of the failures verify_face_theorem reports
        rep = verify_face_theorem(t)
        if not rep["ok"]:
            return False, f"n={t.ground.n}: {t}: {rep['failures'][:3]}"
    return True, f"{len(triplets)} triplets (55 exhaustive at n=4, 12 sampled at n=5)"


def criterion_four_generator_demo():
    """End-to-end demo: the four-generator structural imset u and its
    skeletal witness m satisfy <m,u>=0, <m,u_<a|b|cd>>=1, m is skeletal and
    one of the 37 extreme rays of the n=4 skeleton (5 at n=3), and the CI
    model of u contains the four generators but not a|b|cd."""
    g = GroundSet(4)
    m = four_generator_witness(g)
    counts = {n: len(skeleton(GroundSet(n))) for n in (3, 4)}
    parts = ["c|d|ab", "a|b|0", "a|b|c", "a|b|d"]
    u = Imset.zero(g)
    for name in parts:
        u = u + semi_elementary(Triplet.parse(g, name))
    failures = []
    if inner(m, u) != 0:
        failures.append("<m,u> != 0")
    if inner(m, semi_elementary(Triplet.parse(g, "a|b|cd"))) != 1:
        failures.append("<m,u_<a|b|cd>> != 1")
    if not is_skeletal(m):
        failures.append("witness not skeletal")
    if counts != {3: 5, 4: 37}:
        failures.append(f"skeleton ray counts {counts}, expected 5 and 37")
    if m not in skeleton(g):
        failures.append("witness not a ray of the n=4 skeleton")
    model = ci_model_of_imset(u)
    for name in parts:
        if not model.contains(Triplet.parse(g, name)):
            failures.append(f"model misses {name}")
    if model.contains(Triplet.parse(g, "a|b|cd")):
        failures.append("model wrongly contains a|b|cd")
    face = face_of_structural(u)
    if sorted(str(e.triplet()) for e in face) != sorted(parts):
        failures.append("face differs from the four generators")
    if failures:
        return False, "; ".join(failures)
    return True, (
        "witness orthogonality, skeletality, CI model, and face all exact; "
        "skeleton 5 rays at n=3, 37 at n=4, the witness among them"
    )


def criterion_skeletal_constructors():
    """Every constructor output is skeletal: exhaustive parameters for
    n <= 4, seeded samples at n=5."""
    checked = 0
    failures = []

    def check(f, tag):
        nonlocal checked
        checked += 1
        if not is_skeletal(f):
            failures.append(tag)

    for n in (2, 3, 4):
        g = GroundSet(n)
        for k in range(1, n):
            check(max_k(g, k), f"max_k(n={n},k={k})")
            check(reflect(max_k(g, k)), f"reflect(max_k(n={n},k={k}))")
        for mask in g.masks_graded:
            if popcount(mask) >= 2:
                A = g.subset(g.subset_str(mask))
                check(indicator_superset(A), f"indicator(n={n},{g.subset_str(mask)})")
                check(reflect(indicator_superset(A)), f"reflect(indicator(n={n}))")
    g5 = GroundSet(5)
    for k in range(1, 5):
        check(max_k(g5, k), f"max_k(n=5,k={k})")
    rng = random.Random(20240818)
    masks5 = [m for m in g5.masks_graded if popcount(m) >= 2]
    for mask in rng.sample(masks5, 6):
        check(indicator_superset(g5.subset(g5.subset_str(mask))), "indicator(n=5)")
    # extensions from skeletal bases
    for n in (2, 3):
        g = GroundSet(n)
        new = "abcdef"[n]
        for k in range(1, n):
            check(extend_zero_slice(max_k(g, k), new), f"zero_slice(max_k(n={n},k={k}))")
            check(extend_modular_top(max_k(g, k), new), f"modular_top(max_k(n={n},k={k}))")
            check(duplicate_coordinate(max_k(g, k), new), f"duplicate(max_k(n={n},k={k}))")
    g4 = GroundSet(4)
    for k in rng.sample(range(1, 4), 2):
        check(extend_zero_slice(max_k(g4, k), "e"), f"zero_slice(max_k(n=4,k={k}))")
        check(extend_modular_top(max_k(g4, k), "e"), f"modular_top(max_k(n=4,k={k}))")
        check(duplicate_coordinate(max_k(g4, k), "e"), f"duplicate(max_k(n=4,k={k}))")
    # products on disjoint grounds
    ga, gb = GroundSet(["a", "b"]), GroundSet(["c", "d"])
    check(product(max_k(ga, 1), max_k(gb, 1)), "product(2,2)")
    check(
        product(max_k(ga, 1), indicator_superset(gb.subset("cd"))),
        "product(max,indicator)",
    )
    gc = GroundSet(["c", "d", "e"])
    for k in (1, 2):
        check(product(max_k(ga, 1), max_k(gc, k)), f"product(2,3;k={k})")
    check(four_generator_witness(g4), "four_generator_witness")
    if failures:
        return False, f"{len(failures)} non-skeletal outputs, first: {failures[0]}"
    return True, f"{checked} constructor outputs, all skeletal"


def criterion_lattice_reduction():
    """1000 seeded random kernel vectors at n=4 (combination coefficients
    in [-5,5]) reduce to exact combinations of 2x2 moves; the 3x3 cyclic
    vector reduces as well."""
    g = GroundSet(4)
    basics = basic_moves(g)
    basic_set = {m.coeffs for m in basics}
    rng = random.Random(20240819)
    vectors = [_random_kernel_vector(rng, g, basics) for _ in range(1000)]
    # trial 1000: u_<a|b|c> + u_<a|c|d> + u_<a|d|b> - u_<a|c|b> - u_<a|d|c> - u_<a|b|d>
    vectors.append(Move(g, _cyclic_moves(g)[(0, 1, 2, 3, 0)]))
    for trial, z in enumerate(vectors):
        total = [0] * g.num_elementary
        for m, c in reduce_to_basis(z):
            if m.coeffs not in basic_set:
                return False, f"trial {trial}: non-basic term in reduction"
            for j, v in enumerate(m.coeffs):
                total[j] += c * v
        if tuple(total) != z.coeffs:
            return False, f"trial {trial}: reduction does not re-sum"
    return True, "1000 random vectors + the 3x3 vector reduce exactly"


def criterion_relation_classification():
    """Exhaustive n=4 enumeration: every k=2 relation (degree <= 6) is a
    2x2 multiple; every k=3 relation (degree <= 6, coefficients <= 3) is
    cyclic or contains a 2x2 side."""
    g = GroundSet(4)
    two = enumerate_small_relations(g, 2, coeff_bound=6, degree_bound=6)
    bad = [r for r in two if r.classification != "two-by-two-semigraphoid"]
    if bad:
        return False, f"k=2: {len(bad)} relations escape the 2x2 classification"
    three = enumerate_small_relations(g, 3, coeff_bound=3, degree_bound=6)
    allowed = {"two-by-two-semigraphoid", "three-by-three-cyclic", "contains-2x2"}
    bad = [r for r in three if r.classification not in allowed]
    if bad:
        return False, f"k<=3: {len(bad)} relations classified 'other'"
    return True, f"{len(two)} k=2 and {len(three)} k<=3 relations, none escape"


def criterion_markov_n4():
    """Full n=4 Markov basis: per-degree representative counts
    {2:2, 3:1, 4:4}, reported complete."""
    rep = markov_basis(configuration(GroundSet(4)), 4)
    want = {2: 2, 3: 1, 4: 4}
    if rep.per_degree_counts != want:
        return False, f"counts {rep.per_degree_counts} != {want}"
    if not rep.complete:
        return False, "basis not reported complete at cap 4"
    return True, "counts {2:2, 3:1, 4:4}, complete"


def criterion_markov_n5():
    """n=5 Markov basis through degree 5, inside the memory budget:
    per-degree counts {2:3, 3:2, 4:11, 5:18}; completeness unknown."""
    rep = markov_basis(configuration(GroundSet(5)), 5)
    want = {2: 3, 3: 2, 4: 11, 5: 18}
    if rep.per_degree_counts != want:
        return False, f"counts {rep.per_degree_counts} != {want}"
    if rep.complete_source != "unknown":
        return False, f"cap 5 reported complete at n=5 ({rep.complete_source})"
    return True, "counts {2:3, 3:2, 4:11, 5:18}, completeness unknown"


def criterion_square_free():
    """For every sub-configuration with |A|+|B|+|C| <= 5 (A,B,C covering
    the ground set), all Markov-basis moves within the cap have
    coefficients in {0, +-1}.  Faces with one reduced matrix share a
    pass, so the sweep, from an empty memo, counts the passes it runs."""
    markov._passes.cache_clear()
    configs = moves = 0
    for n in (3, 4, 5):
        g = GroundSet(n)
        for t in enumerate_triplets(g):
            if t.a_mask | t.b_mask | t.c_mask != g.full_mask:
                continue
            rep = markov_basis(subconfiguration(t), 4)
            configs += 1
            for m in rep.representatives:
                moves += 1
                if any(abs(c) > 1 for c in m.coeffs):
                    return False, f"{t} at n={n}: non-square-free move {m.to_json()}"
    passes = markov._passes.misses
    return True, f"{configs} sub-configurations, {passes} passes, {moves} moves, all square-free"


def criterion_ci_semantics():
    """CI semantics: a 3-variable chain's CI model equals the
    semi-graphoid closure of a|b|c at 1e-9; a product distribution has
    multiinformation 0 within 1e-12; the 3x3 equivalence verifies
    exactly."""
    g = GroundSet(3)
    chain = _markov_chain_table()
    model = ci_model_of_P(chain, tol=1e-9)
    closure = semigraphoid_closure(g, ["a|b|c"])
    if model != closure:
        return False, f"chain model {model.to_strings()} != closure {closure.to_strings()}"
    independent = _product_table(([0.4, 0.6], [0.2, 0.5, 0.3], [0.7, 0.3]))
    m = multiinformation(independent)
    worst = max(abs(v) for v in m.values)
    if worst >= 1e-12:
        return False, f"product multiinformation reaches {worst:.2e}"
    rep = equivalence_3x3_check(GroundSet(4))
    if not rep["ok"]:
        return False, f"3x3 equivalence report: {rep}"
    return True, "chain closure matches, product multiinformation 0, 3x3 exact"


def criterion_property_suite():
    """Fixed-seed property battery across the library invariants."""
    rng = random.Random(20240820)
    failures = []
    checked = 0

    def note(ok, tag):
        nonlocal checked
        checked += 1
        if not ok:
            failures.append(tag)

    # multiinformation is supermodular within 1e-9
    for i in range(5):
        cards = rng.choice([(2, 2, 2), (2, 3, 2), (3, 2, 2)])
        weights = [rng.random() + 0.05 for _ in range(prod(cards))]
        P = JointTable.normalized(GroundSet(3), cards, weights)
        m = multiinformation(P)
        note(first_supermodularity_violation(m, tol=1e-9) is None, f"supermod #{i}")

    # membership class is invariant under positive scaling
    g4 = GroundSet(4)
    elems4 = enumerate_elementary(g4)
    for i in range(20):
        u = Imset.zero(g4)
        for _ in range(rng.randint(1, 4)):
            u = u + elementary_imset(rng.choice(elems4)).scale(rng.randint(1, 3))
        r1, r2 = classify(u), classify(u.scale(3))
        note(r1.membership_class == r2.membership_class, f"scaling #{i}")

    # combinatorial decompositions re-sum
    for i in range(10):
        u = Imset.zero(g4)
        for _ in range(rng.randint(1, 3)):
            u = u + elementary_imset(rng.choice(elems4))
        for witness in combinatorial_decompositions(u, limit=5):
            total = Imset.zero(g4)
            for j, c in enumerate(witness):
                if c:
                    total = total + elementary_imset(elems4[j]).scale(c)
            note(total == u, f"resum #{i}")

    # semi-graphoid closure is idempotent and contains its input
    for i in range(10):
        stmts = []
        for _ in range(3):
            t = rng.choice(enumerate_triplets(g4))
            stmts.append(str(t))
        c1 = semigraphoid_closure(g4, stmts)
        c2 = semigraphoid_closure(g4, c1.to_strings())
        note(c1 == c2, f"closure idempotent #{i}")
        note(all(c1.contains(Triplet.parse(g4, s)) for s in stmts), f"closure input #{i}")

    # face data is invariant under label permutations
    g5 = GroundSet(5)
    all5 = enumerate_triplets(g5)
    for i in range(8):
        t = rng.choice(all5)
        image = rng.choice(_subset_images(g5)).tolist()
        t2 = Triplet(g5, image[t.a_mask], image[t.b_mask], image[t.c_mask])
        note(len(extreme_set(t)) == len(extreme_set(t2)), f"face size perm #{i}")
        note(extreme_rank(t) == extreme_rank(t2), f"face rank perm #{i}")

    # serialization round trips
    u = semi_elementary(Triplet.parse(g4, "ab|cd|0"))
    note(Imset.from_dict(g4, u.to_dict()) == u, "imset dict round trip")
    f = max_k(g4, 2)
    note(SetFunction.from_dict(g4, f.to_dict()) == f, "set function round trip")
    chain = _markov_chain_table()
    note(
        JointTable.from_json(chain.to_json()).probabilities == chain.probabilities,
        "table json",
    )
    note(
        JointTable.from_csv(chain.to_csv()).probabilities == chain.probabilities,
        "table csv",
    )
    z = basic_moves(g4)[0]
    note(Move.from_json(g4, z.to_json()) == z, "move json round trip")
    desc = face_description(Triplet.parse(g4, "a|b|c"))
    note("dimension" in desc.to_json(), "face description json")

    # canonical decomposition of semi-elementary imsets re-sums
    for i in range(10):
        t = rng.choice(all5)
        total = Imset.zero(g5)
        for e, c in decompose_semi_elementary(t):
            total = total + elementary_imset(e).scale(c)
        note(total == semi_elementary(t), f"decompose #{i}")

    # orientation: every relation classification is deterministic
    for i in range(10):
        z = _random_kernel_vector(rng, g4, basic_moves(g4), max_terms=2, bound=2)
        if z.is_zero:
            continue
        r1, r2 = classify_relation(z), classify_relation(-z)
        note(r1.classification == r2.classification, f"orientation #{i}")

    if failures:
        return False, f"{len(failures)}/{checked} property checks failed, first: {failures[0]}"
    return True, f"{checked} property checks green"


CRITERIA = [
    (1, "elementary-count-formula", criterion_counting),
    (2, "configuration-golden-table", criterion_golden_configuration),
    (3, "homogeneity-inner-products", criterion_homogeneity),
    (4, "elementary-extreme-rays", criterion_extreme_rays),
    (5, "face-dimension-sweep", criterion_dimension_sweep),
    (6, "face-theorem-both-directions", criterion_face_theorem),
    (7, "four-generator-demo", criterion_four_generator_demo),
    (8, "skeletal-constructors", criterion_skeletal_constructors),
    (9, "lattice-basis-reduction", criterion_lattice_reduction),
    (10, "relation-classification", criterion_relation_classification),
    (11, "markov-basis-n4", criterion_markov_n4),
    (12, "markov-basis-n5", criterion_markov_n5),
    (13, "subconfiguration-square-free", criterion_square_free),
    (14, "ci-semantics", criterion_ci_semantics),
    (15, "property-suite", criterion_property_suite),
]

QUICK_IDS = (1, 2, 3, 5, 7, 11, 14)

SUITES = {
    "all": tuple(num for num, _, _ in CRITERIA),
    "quick": QUICK_IDS,
}


def _run_one(num: int, name: str, fn) -> dict:
    """One timed, exception-safe result record."""
    t0 = perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:
        ok, detail = False, f"exception: {exc!r}"
    return {
        "id": num,
        "name": name,
        "ok": bool(ok),
        "detail": detail,
        "seconds": round(perf_counter() - t0, 2),
    }


def run_criterion(num: int) -> dict:
    """Result record for one criterion number."""
    for cid, name, fn in CRITERIA:
        if cid == num:
            return _run_one(cid, name, fn)
    raise ValueError(f"no criterion numbered {num}")


def run_suite(suite: str = "all") -> list:
    """Run a named suite; one result record per criterion."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    wanted = set(SUITES[suite])
    return [
        _run_one(num, name, fn) for num, name, fn in CRITERIA if num in wanted
    ]


def format_results(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r["ok"] else "FAIL"
        lines.append(
            f"criterion {r['id']:02d} {r['name']}: {status} ({r['seconds']}s) {r['detail']}"
        )
    failed = sum(1 for r in results if not r["ok"])
    lines.append(f"{len(results) - failed}/{len(results)} criteria passed")
    return "\n".join(lines)
