"""Seeded op lists, op execution and known-answer checks for the workloads.

An op is a plain dict made before timing.  Its "cls" key names the op class;
the other keys are its input.  `execute` turns the dict into library calls
inside the timed interval, `summarize` reduces the result to plain data
right after it, and `check` compares that data with the known answer once
the timed loop has ended.

A run is a whole number of rounds.  Every round holds a fixed count of each
op class, shuffled by the seed, and draws fresh inputs, so the class mix of
a run does not depend on the seed or on the speed of the machine.  The seed
only picks the inputs within each class and their order.

The oracle helpers below rebuild the elementary order, elementary imsets
and the basic 2x2 moves from their definitions in plain Python, so that
inputs and expected answers do not come from the code under test.
"""

from __future__ import annotations

import functools
import json
import math
import random
from itertools import product as cartesian

WORKLOADS = ("cone-queries", "kernel-moves", "markov-fibers")

LABELS = {3: ("abc", "xyz"), 4: ("abcd", "wxyz", "pqrs"), 5: ("abcde", "vwxyz")}

# Op classes per round as (op class, count, every): the class is scheduled
# `count` times in each round whose index is a multiple of `every`.
# Counts are set so that neither the median nor the tail percentile falls
# on the boundary between two classes of different cost: the median lands
# inside classify-imset-4 on cone-queries, inside reduce-4 on kernel-moves
# and inside the 4-column n=5 shape on markov-fibers; the tail lands inside
# ci-model-imset, reduce-5 and the 32-column shape.
ROUNDS = {
    "cone-queries": (
        ("classify-imset-4-combinatorial", 3, 1),
        ("classify-imset-4-lattice", 3, 1),
        ("classify-imset-5", 1, 1),
        ("skeletal", 1, 1),
        ("check-supermodular", 1, 1),
        ("ci-model-imset", 1, 1),
        ("face-of", 1, 2),
        ("ci-model-dist", 1, 1),
        ("closure", 1, 1),
        ("malformed", 1, 1),
    ),
    "kernel-moves": (
        ("reduce-4", 6, 1),
        ("classify-relation-4", 4, 1),
        ("reduce-5", 2, 1),
    ),
    "markov-fibers": (
        ("sub-4", 25, 1),
        ("sub-5-1col", 2, 1),
        ("sub-5-4col", 10, 1),
        ("sub-5-12col", 4, 1),
        ("sub-5-16col", 3, 1),
        ("sub-5-32col", 4, 1),
        ("sub-5-48col", 1, 1),
        ("full-4", 1, 1),
        ("full-5", 1, 1),
    ),
}

# Seconds one round takes on the reference machine (see README.md).  A run
# holds round(seconds / ROUND_SECONDS) rounds, and at least MIN_ROUNDS: the
# tail takes the eleventh-slowest op, which must fall well inside
# ci-model-imset (one per round), reduce-5 and sub-5-32col (four per round).
# The count is rounded up to whole cycles; a cycle is the least number of
# rounds after which every class has had its share.
ROUND_SECONDS = {"cone-queries": 1.95, "kernel-moves": 0.85, "markov-fibers": 9.4}
MIN_ROUNDS = {"cone-queries": 20, "kernel-moves": 12, "markov-fibers": 3}

WARMUP_SEED = 0

# Per-degree representative counts of the sub-configuration of an exactly
# effective triplet <A|B|C>, keyed by (|A|, |B|).  |C| only conditions every
# column on the same extra variables, so it does not change the counts; the
# n=4 and n=5 shapes with equal (|A|, |B|) share a row.  Recorded from
# markov_basis at degree cap 4.
SUB_COUNTS = {
    (1, 1): {},
    (1, 2): {2: 1},
    (1, 3): {2: 2, 3: 1},
    (2, 2): {2: 2, 4: 4},
    (1, 4): {2: 3, 3: 2, 4: 3},
    (2, 3): {2: 7, 3: 2, 4: 10},
}
FULL_COUNTS = {(4, 4): {2: 2, 3: 1, 4: 4}, (5, 3): {2: 3, 3: 2}}
SUB_CAP = 4
FULL_CAP = {4: 4, 5: 3}

# Malformed requests whose documented result is exit code 2.
MALFORMED = ("unreadable-json", "ground-not-labels", "non-integer-value", "unknown-label")


# ---------------------------------------------------------------------------
# oracle helpers
# ---------------------------------------------------------------------------


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def graded_key(mask: int):
    """The graded set order: cardinality, then the sorted member indices."""
    return (popcount(mask), tuple(i for i in range(mask.bit_length()) if mask >> i & 1))


def elementary_triples(n: int) -> list:
    """(a, b, C mask) with a < b, ascending in the elementary order."""
    out = []
    for c in sorted(range(1 << n), key=graded_key):
        rest = [i for i in range(n) if not c >> i & 1]
        for j, b in enumerate(rest):
            for a in rest[:j]:
                out.append((a, b, c))
    return out


def subset_name(labels: str, mask: int) -> str:
    return "".join(labels[i] for i in range(len(labels)) if mask >> i & 1) or "0"


def parse_subset(labels: str, text: str) -> int:
    return 0 if text == "0" else sum(1 << labels.index(ch) for ch in text)


def triplet_name(labels: str, a: int, b: int, c: int) -> str:
    """Canonical A|B|C: A before B in the graded set order."""
    if graded_key(b) < graded_key(a):
        a, b = b, a
    return f"{subset_name(labels, a)}|{subset_name(labels, b)}|{subset_name(labels, c)}"


def imset_of(terms) -> dict:
    """{mask: value} of sum(coef * u_<A|B|C>) over (coef, (A, B, C)) masks."""
    vals: dict = {}
    for coef, (a, b, c) in terms:
        for mask, sign in ((a | b | c, 1), (c, 1), (a | c, -1), (b | c, -1)):
            vals[mask] = vals.get(mask, 0) + sign * coef
    return {m: v for m, v in vals.items() if v}


def elementary_masks(e) -> tuple:
    a, b, c = e
    return (1 << a, 1 << b, c)


def imset_json(labels: str, vals: dict) -> dict:
    return {"ground": labels, "values": {subset_name(labels, m): v for m, v in sorted(vals.items())}}


def standardize(n: int, f: dict) -> tuple:
    """f(S) - f(0) - sum over e in S of (f(e) - f(0)), as a vector over masks."""
    f0 = f.get(0, 0)
    lam = [f.get(1 << i, 0) - f0 for i in range(n)]
    return tuple(
        f.get(m, 0) - f0 - sum(lam[i] for i in range(n) if m >> i & 1) for m in range(1 << n)
    )


def proportional(x: tuple, y: tuple) -> bool:
    return all(x[i] * y[j] == x[j] * y[i] for i in range(len(x)) for j in range(len(x)))


def basic_moves(n: int) -> list:
    """Every basic 2x2 move u_<a|b1|C> + u_<a|b2|b1C> - u_<a|b2|C> -
    u_<a|b1|b2C> as a coefficient tuple over the elementary order."""
    triples = elementary_triples(n)
    rank = {t: r for r, t in enumerate(triples)}

    def r(x, y, c):
        return rank[(min(x, y), max(x, y), c)]

    full = (1 << n) - 1
    out = []
    for a in range(n):
        for b1 in range(n):
            for b2 in range(n):
                if len({a, b1, b2}) != 3:
                    continue
                free = full & ~((1 << a) | (1 << b1) | (1 << b2))
                for c in range(1 << n):
                    if c & ~free:
                        continue
                    coeffs = [0] * len(triples)
                    coeffs[r(a, b1, c)] += 1
                    coeffs[r(a, b2, c | 1 << b1)] += 1
                    coeffs[r(a, b2, c)] -= 1
                    coeffs[r(a, b1, c | 1 << b2)] -= 1
                    out.append(tuple(coeffs))
    return out


def effective_triplets(n: int) -> list:
    """Canonical (A, B, C) masks with A, B nonempty and A u B u C = N."""
    out = []
    for parts in cartesian(range(3), repeat=n):
        a = sum(1 << i for i, p in enumerate(parts) if p == 0)
        b = sum(1 << i for i, p in enumerate(parts) if p == 1)
        c = sum(1 << i for i, p in enumerate(parts) if p == 2)
        if a and b and graded_key(a) < graded_key(b):
            out.append((a, b, c))
    return sorted(out, key=lambda t: (graded_key(t[2]), graded_key(t[1]), graded_key(t[0])))


def triplet_count(n: int) -> int:
    """Number of canonical triplets with A, B nonempty."""
    return (4**n - 2 * 3**n + 2**n) // 2


# ---------------------------------------------------------------------------
# op generation
# ---------------------------------------------------------------------------


def _classify_imset(rng, n, kind):
    labels = rng.choice(LABELS[n])
    elems = elementary_triples(n)
    if kind == "combinatorial":
        terms = [(1, elementary_masks(rng.choice(elems))) for _ in range(rng.randint(1, 4))]
    else:
        e1, e2 = rng.sample(elems, 2)
        terms = [(1, elementary_masks(e1)), (-1, elementary_masks(e2))]
    vals = imset_of(terms)
    return {
        "argv": ["classify-imset", "@u.json"],
        "files": {"u.json": json.dumps(imset_json(labels, vals))},
        "ground": labels,
        "expect": kind,
        "values": {subset_name(labels, m): v for m, v in vals.items()},
    }


def _constructor_pool(n: int) -> list:
    """Skeletal constructor outputs as {mask: value}: max_k, superset
    indicators and their reflections f(N - S)."""
    full = (1 << n) - 1
    pool = [{m: max(popcount(m) - k, 0) for m in range(1 << n)} for k in range(1, n)]
    pool += [
        {m: int(m & a == a) for m in range(1 << n)} for a in range(1 << n) if popcount(a) >= 2
    ]
    pool += [{m: f[full & ~m] for m in range(1 << n)} for f in list(pool)]
    return pool


def _set_function(rng, skeletal):
    labels = rng.choice(LABELS[4])
    pool = _constructor_pool(4)
    if skeletal:
        f = rng.choice(pool)
    else:
        while True:
            f1, f2 = rng.sample(pool, 2)
            if not proportional(standardize(4, f1), standardize(4, f2)):
                break
        f = {m: f1[m] + f2[m] for m in f1}
    data = {"ground": labels, "values": {subset_name(labels, m): str(v) for m, v in f.items() if v}}
    return {"files": {"f.json": json.dumps(data)}, "ground": labels, "expect": skeletal}


def _ci_imset(rng, k):
    labels = rng.choice(LABELS[4])
    gens = rng.sample(elementary_triples(4), k)
    vals = imset_of([(1, elementary_masks(e)) for e in gens])
    return {
        "files": {"u.json": json.dumps(imset_json(labels, vals))},
        "ground": labels,
        "generators": [triplet_name(labels, *elementary_masks(e)) for e in gens],
    }


def _product_table(rng):
    n = rng.choice((3, 4))
    labels = rng.choice(LABELS[n])
    cards = [rng.randint(2, 3) for _ in range(n)]
    margins = []
    for c in cards:
        w = [rng.uniform(0.2, 1.0) for _ in range(c)]
        margins.append([x / sum(w) for x in w])
    probs = []
    for states in cartesian(*(range(c) for c in cards)):
        probs.append(math.prod(margins[i][s] for i, s in enumerate(states)))
    data = {"labels": labels, "cardinalities": cards, "probabilities": probs}
    return {"files": {"P.json": json.dumps(data)}, "ground": labels, "expect": "product"}


def _chain_table(rng):
    """Binary chain x -> z -> y over three labels: x and y independent given
    z and nothing else."""
    labels = rng.choice(LABELS[3])
    x, y, z = rng.sample(range(3), 3)
    px = rng.uniform(0.2, 0.8)
    lo, hi = rng.uniform(0.1, 0.3), rng.uniform(0.7, 0.9)
    pz = [lo, hi] if rng.random() < 0.5 else [hi, lo]  # P(z=1 | x)
    lo, hi = rng.uniform(0.1, 0.3), rng.uniform(0.7, 0.9)
    py = [lo, hi] if rng.random() < 0.5 else [hi, lo]  # P(y=1 | z)
    probs = []
    for states in cartesian(range(2), repeat=3):
        sx, sy, sz = states[x], states[y], states[z]
        p = px if sx else 1 - px
        p *= pz[sx] if sz else 1 - pz[sx]
        p *= py[sz] if sy else 1 - py[sz]
        probs.append(p)
    data = {"labels": labels, "cardinalities": [2, 2, 2], "probabilities": probs}
    stmt = triplet_name(labels, 1 << x, 1 << y, 1 << z)
    return {"files": {"P.json": json.dumps(data)}, "ground": labels, "expect": "chain", "chain": stmt}


def _random_statement(rng, labels):
    n = len(labels)
    while True:
        parts = [rng.randrange(4) for _ in range(n)]
        a = sum(1 << i for i, p in enumerate(parts) if p == 0)
        b = sum(1 << i for i, p in enumerate(parts) if p == 1)
        c = sum(1 << i for i, p in enumerate(parts) if p == 2)
        if a and b:
            return triplet_name(labels, a, b, c)


def _malformed(rng, r):
    # the kinds take turns, so every run of four or more rounds holds each
    kind = MALFORMED[r % len(MALFORMED)]
    labels = rng.choice(LABELS[4])
    if kind == "unreadable-json":
        text = '{"ground": "' + labels + '", "values": {'
    elif kind == "ground-not-labels":
        text = json.dumps({"ground": len(labels), "values": {labels[:2]: 1}})
    elif kind == "non-integer-value":
        text = json.dumps({"ground": labels, "values": {labels[:2]: 1.5}})
    else:
        text = json.dumps({"ground": labels, "values": {labels[0] + "!": 1}})
    return {"argv": ["classify-imset", "@u.json"], "files": {"u.json": text}, "ground": labels, "kind": kind}


def _cone_op(cls, rng, r):
    """One cone-queries op of class `cls` in round `r`."""
    if cls == "classify-imset-5":
        return _classify_imset(rng, 5, ("combinatorial", "lattice")[r % 2])
    if cls.startswith("classify-imset-4-"):
        return _classify_imset(rng, 4, cls.split("-")[-1])
    if cls in ("skeletal", "check-supermodular"):
        op = _set_function(rng, skeletal=r % 2 == 0)
        op["argv"] = [cls, "@f.json"]
        return op
    if cls == "ci-model-imset":
        op = _ci_imset(rng, 1 + r % 4)
        op["argv"] = ["ci-model", "--imset", "@u.json"]
        return op
    if cls == "ci-model-dist":
        op = _product_table(rng) if r % 2 == 0 else _chain_table(rng)
        op["argv"] = ["ci-model", "--dist", "@P.json"]
        return op
    if cls == "closure":
        labels = rng.choice(LABELS[4])
        stmts = [_random_statement(rng, labels) for _ in range(rng.randint(2, 4))]
        data = {"ground": labels, "statements": stmts}
        return {"argv": ["closure", "@s.json"], "files": {"s.json": json.dumps(data)}, "ground": labels}
    if cls == "malformed":
        return _malformed(rng, r)
    raise ValueError(f"unknown cone-queries op class {cls!r}")


def _random_kernel_vector(rng, basics):
    coeffs = [0] * len(basics[0])
    for _ in range(rng.randint(1, 5)):
        m = rng.choice(basics)
        c = rng.choice([x for x in range(-5, 6) if x])
        for j, v in enumerate(m):
            coeffs[j] += c * v
    return coeffs


def _kernel_op(cls, rng, basics):
    n = 5 if cls == "reduce-5" else 4
    if cls == "classify-relation-4":
        while True:
            m1, m2 = rng.sample(basics[4], 2)
            if m1 != tuple(-v for v in m2):
                break
        c1, c2 = (rng.choice([x for x in range(-5, 6) if x]) for _ in range(2))
        coeffs = [c1 * x + c2 * y for x, y in zip(m1, m2)]
    else:
        coeffs = _random_kernel_vector(rng, basics[n])
    return {"n": n, "coeffs": coeffs, "ground": "abcde"[:n]}


def _markov_shapes():
    """Exactly effective triplets by op class, with their shapes."""
    out: dict = {}
    for n in (4, 5):
        labels = LABELS[n][0]
        for a, b, c in effective_triplets(n):
            cols = popcount(a) * popcount(b) * 2 ** (popcount(a) + popcount(b) - 2)
            cls = "sub-4" if n == 4 else f"sub-5-{cols}col"
            out.setdefault(cls, []).append(
                {
                    "n": n,
                    "triplet": triplet_name(labels, a, b, c),
                    "shape": [popcount(a), popcount(b), popcount(c)],
                    "cols": cols,
                    "ground": labels,
                }
            )
    return out


def build_ops(workload: str, seed: int, rounds: int) -> list:
    """The op list of a run: `rounds` rounds, each shuffled by the seed."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    basics = {4: basic_moves(4), 5: basic_moves(5)} if workload == "kernel-moves" else None
    shapes = _markov_shapes() if workload == "markov-fibers" else None
    ops = []
    for r in range(rounds):
        batch = []
        for cls, count, every in ROUNDS[workload]:
            if r % every:
                continue
            if workload == "markov-fibers" and cls == "sub-4":
                # every exactly effective triplet at n=4, once per round
                batch += [dict(t, cls=cls) for t in shapes[cls]]
                continue
            for _ in range(count):
                if cls == "face-of":
                    # the imset of this round's ci-model op, so that the
                    # face can be checked against that model
                    model = next(op for op in batch if op["cls"] == "ci-model-imset")
                    op = dict(model, argv=["face-of", "@u.json"])
                elif workload == "cone-queries":
                    op = _cone_op(cls, rng, r)
                elif workload == "kernel-moves":
                    op = _kernel_op(cls, rng, basics)
                elif cls.startswith("full-"):
                    n = int(cls[-1])
                    op = {"n": n, "triplet": None, "cols": len(elementary_triples(n)), "ground": LABELS[n][0]}
                else:
                    op = dict(rng.choice(shapes[cls]))
                op["cls"] = cls
                batch.append(op)
        rng.shuffle(batch)
        ops += batch
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def op_class(cls: str) -> str:
    """The op class of a schedule entry: the n=5 Markov shapes are one class."""
    return "sub-5" if cls.startswith("sub-5-") else cls


def warmup_ops(workload: str) -> list:
    """One op of every op class, from a fixed seed so that set-up time does
    not depend on the run's seed.  A class with several schedule entries
    warms up with its first (for sub-5, the one-column shape)."""
    ops = build_ops(workload, WARMUP_SEED, cycle_rounds(workload))
    seen = {}
    for cls, _, _ in ROUNDS[workload]:
        seen.setdefault(op_class(cls), next(op for op in ops if op["cls"] == cls))
    return list(seen.values())


def cycle_rounds(workload: str) -> int:
    return math.lcm(*(every for _, _, every in ROUNDS[workload]))


def rounds_for(workload: str, seconds: float) -> int:
    rounds = max(MIN_ROUNDS[workload], round(seconds / ROUND_SECONDS[workload]))
    cycle = cycle_rounds(workload)
    return -(-rounds // cycle) * cycle


def write_inputs(ops, workdir) -> None:
    """Write the input files of cone-queries ops and fix their argv."""
    workdir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if "argv" not in op:
            continue
        folder = workdir / f"op{op['id']}"
        folder.mkdir(parents=True, exist_ok=True)
        for name, text in op["files"].items():
            (folder / name).write_text(text)
        argv = [str(folder / a[1:]) if a.startswith("@") else a for a in op["argv"]]
        op["run_argv"] = argv + ["-o", str(workdir / "out.json")]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


class Runner:
    """Runs the ops of one workload through the library's public API.

    Library names are looked up on their modules at call time, so wrappers
    installed by the tracer are seen.
    """

    def __init__(self, workload: str, workdir):
        from imsetkit import ci, cli, faces, groundset, imsets, markov, relations

        self.workload = workload
        self.out = workdir / "out.json"
        self.ci, self.cli, self.faces, self.groundset = ci, cli, faces, groundset
        self.imsets, self.markov, self.relations = imsets, markov, relations

    def before(self, op) -> None:
        if self.workload == "cone-queries":
            self.out.unlink(missing_ok=True)

    def run(self, op):
        """The timed part of an op."""
        if self.workload == "cone-queries":
            try:
                return self.cli.main(op["run_argv"])
            except SystemExit as exc:
                return exc.code
        g = self.groundset.GroundSet(op["n"])
        if self.workload == "kernel-moves":
            z = self.relations.Move(g, tuple(op["coeffs"]))
            if op["cls"] == "classify-relation-4":
                return self.relations.classify_relation(z)
            return self.relations.reduce_to_basis(z)
        if op["triplet"] is None:
            cfg = self.imsets.configuration(g)
            return self.markov.markov_basis(cfg, FULL_CAP[op["n"]])
        cfg = self.faces.subconfiguration(self.groundset.Triplet.parse(g, op["triplet"]))
        return self.markov.markov_basis(cfg, SUB_CAP)

    def summarize(self, op, raw) -> dict:
        """Plain data for the check, taken right after the timed part."""
        if self.workload == "cone-queries":
            out = json.loads(self.out.read_text()) if self.out.exists() else None
            return {"code": raw, "out": out}
        if self.workload == "kernel-moves":
            if op["cls"] == "classify-relation-4":
                return {"class": raw.classification, "move": list(raw.move.coeffs)}
            return {"terms": [(list(m.coeffs), c) for m, c in raw]}
        return {
            "counts": dict(raw.per_degree_counts),
            "square_free": all(abs(c) <= 1 for m in raw.representatives for c in m.coeffs),
        }


# ---------------------------------------------------------------------------
# known-answer checks
# ---------------------------------------------------------------------------


def check(op, summary, runner, models) -> str | None:
    """None when the answer is right, else why it is wrong.  `models` maps
    an imset file's text to the statements ci-model gave for it."""
    if runner.workload == "cone-queries":
        return _check_cone(op, summary, runner, models)
    if runner.workload == "kernel-moves":
        return _check_kernel(op, summary, runner)
    return _check_markov(op, summary)


def _closure(runner, labels, stmts) -> list:
    return runner.ci.semigraphoid_closure(runner.groundset.GroundSet(labels), stmts).to_strings()


def _check_cone(op, s, runner, models) -> str | None:
    cls, code, out = op["cls"], s["code"], s["out"]
    if cls == "malformed":
        return None if code == 2 else f"{op['kind']}: exit {code}, expected 2"
    if code != 0 or out is None:
        return f"exit {code}, expected 0"
    labels = op["ground"]
    if cls == "face-of":
        model = models.get(op["files"]["u.json"])
        if model is None:
            return "no ci-model answer for this imset to compare with"
        elementary = sorted(t for t in model if all(len(p) == 1 for p in t.split("|")[:2]))
        return None if sorted(out["face"]) == elementary else "face differs from the model"
    if cls.startswith("classify-imset-"):
        if out["class"] != op["expect"]:
            return f"class {out['class']}, expected {op['expect']}"
        if op["expect"] == "lattice":
            return None if out["witness"] is None else "lattice answer with a witness"
        terms = []
        for name, mult in out["witness"].items():
            a, b, c = (parse_subset(labels, p) for p in name.split("|"))
            terms.append((int(mult), (a, b, c)))
        got = {subset_name(labels, m): v for m, v in imset_of(terms).items()}
        return None if got == op["values"] else "witness does not re-sum to the input"
    if cls == "skeletal":
        if not out["supermodular"] or out["skeletal"] != op["expect"]:
            return f"skeletal={out['skeletal']}, expected {op['expect']}"
        return None
    if cls == "check-supermodular":
        return None if out["supermodular"] and out["violation"] is None else "reported a violation"
    stmts = out["statements"]
    if cls == "ci-model-imset":
        missing = set(op["generators"]) - set(stmts)
        if missing:
            return f"model misses generator {sorted(missing)[0]}"
        return None if _closure(runner, labels, stmts) == stmts else "model is not closed"
    if cls == "ci-model-dist":
        if op["expect"] == "product":
            want = triplet_count(len(labels))
            return None if len(set(stmts)) == len(stmts) == want else f"{len(stmts)} statements, expected {want}"
        want = _closure(runner, labels, [op["chain"]])
        return None if stmts == want else f"model {stmts}, expected {want}"
    if cls == "closure":
        if set(out["input"]) - set(stmts):
            return "closure misses its input"
        return None if _closure(runner, labels, stmts) == stmts else "closure is not idempotent"
    return f"unknown op class {cls}"


@functools.lru_cache(maxsize=None)
def _basic_move_set(n: int) -> frozenset:
    return frozenset(basic_moves(n))


def _check_kernel(op, s, runner) -> str | None:
    n, z = op["n"], tuple(op["coeffs"])
    if op["cls"] == "classify-relation-4":
        if s["move"] not in (list(z), [-c for c in z]):
            return "relation form holds another move"
        g = runner.groundset.GroundSet(n)
        other = runner.relations.classify_relation(runner.relations.Move(g, tuple(-c for c in z)))
        if other.classification != s["class"]:
            return f"z is {s['class']} but -z is {other.classification}"
        return None
    total = [0] * len(z)
    for coeffs, c in s["terms"]:
        if tuple(coeffs) not in _basic_move_set(n):
            return "reduction uses a move that is not a basic 2x2 move"
        for j, v in enumerate(coeffs):
            total[j] += c * v
    return None if tuple(total) == z else "reduction does not re-sum"


def _check_markov(op, s) -> str | None:
    if op["triplet"] is None:
        want = FULL_COUNTS[(op["n"], FULL_CAP[op["n"]])]
    else:
        if not s["square_free"]:
            return f"{op['triplet']}: a move is not square-free"
        want = SUB_COUNTS[tuple(op["shape"][:2])]
    return None if s["counts"] == want else f"counts {s['counts']}, expected {want}"


def input_properties(ops) -> dict:
    """Shares of op classes and of input kinds that a later change may
    help selectively."""
    total = len(ops)
    by_cls: dict = {}
    for op in ops:
        by_cls[op["cls"]] = by_cls.get(op["cls"], 0) + 1
    props = {
        "ops": total,
        "class_share": {k: round(v / total, 4) for k, v in sorted(by_cls.items())},
        "ground_sets": sorted({op["ground"] for op in ops}),
    }
    wide = [op for op in ops if op.get("cols", 0) in (32, 48)]
    if wide:
        props["markov_32_48_col_share"] = round(len(wide) / total, 4)
    bad = [op for op in ops if op["cls"] == "malformed"]
    if bad:
        props["malformed_share"] = {
            k: round(sum(op["kind"] == k for op in bad) / total, 4) for k in MALFORMED
        }
    return props
