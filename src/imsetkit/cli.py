"""The imset-kit command line.

Every command is deterministic given its inputs and flags.  JSON outputs
carry a "schema": "imset-kit/1" field; --format picks json or text, and
csv too for config, relations and markov (argparse refuses csv elsewhere,
exit 2, before any work).
Exit codes: 0 success, 1 verification failure, 2 input error, 3 budget
exceeded, 4 internal error (any other exception, such as a failed
exactness check: one line on stderr instead of a traceback).  The
argument parser is built once per process, on the first call to main, and
reused by every later call.

File conventions (JSON):
  set function   {"ground": "abcd", "values": {"ab": "1", "abc": "3/2"}}
  imset          {"ground": "abcd", "values": {"ab": 1, "a": -1}}
  move           {"ground": "abcd", "lhs": {"a|b|0": 1}, "rhs": {...}}
  statements     {"ground": "abcd", "statements": ["a|b|c", ...]}
  joint table    {"labels": "abc", "cardinalities": [2, 2, 2],
                  "probabilities": [...]}  (row-major, last label fastest)
JSON true/false is never read as a number: a bool where a number is
expected exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .ci import (
    JointTable,
    ci_model_of_imset,
    ci_model_of_P,
    semigraphoid_closure,
)
from .faces import extreme_set, face_description, face_of_structural, subconfiguration
from .groundset import GroundSet, Triplet
from .imsets import Imset, configuration, decompose_semi_elementary
from .membership import classify
from .relations import BudgetError, Move, enumerate_small_relations, reduce_to_basis
from .markov import check_degree_cap, markov_basis
from .supermodular import (
    SetFunction,
    duplicate_coordinate,
    extend_modular_top,
    extend_zero_slice,
    first_supermodularity_violation,
    four_generator_witness,
    indicator_superset,
    max_k,
    product,
    reflect,
    skeletal_report,
)
from .verify import SUITES, format_results, run_suite

SCHEMA = "imset-kit/1"
MAX_DENSE_ENTRIES = 11_796_480  # 2^n·|E(N)| at n = 10


class InputError(Exception):
    """Malformed input file or inconsistent flags."""


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    return data


def _check_labels(labels, path: str) -> None:
    if not isinstance(labels, str) and not (
        isinstance(labels, list) and all(isinstance(l, str) for l in labels)
    ):
        raise InputError(f"{path}: 'ground'/'labels' must be a string or a list of labels")


def _ground_of(data: dict, path: str) -> GroundSet:
    labels = data.get("ground") or data.get("labels")
    if labels is None:
        raise InputError(f"{path}: missing 'ground' (a string of labels)")
    _check_labels(labels, path)
    # GroundSet rejects a multi-character label in a list
    return GroundSet(labels)


def _load_vector(path: str, cls):
    """cls.from_dict (cls is SetFunction or Imset) of a {"ground", "values"}
    file."""
    data = _load_json(path)
    g = _ground_of(data, path)
    values = data.get("values")
    if not isinstance(values, dict):
        raise InputError(f"{path}: missing 'values' object")
    try:
        return cls.from_dict(g, values)
    except (TypeError, OverflowError) as exc:
        raise InputError(f"{path}: 'values' entries must be finite numbers") from exc


def _load_move(path: str) -> Move:
    data = _load_json(path)
    g = _ground_of(data, path)
    if "lhs" not in data and "rhs" not in data:
        raise InputError(f"{path}: a move needs 'lhs'/'rhs' objects")
    if not all(isinstance(data.get(side, {}), dict) for side in ("lhs", "rhs")):
        raise InputError(f"{path}: 'lhs' and 'rhs' must be objects of multiplicities")
    try:
        return Move.from_json(g, data)
    except (TypeError, OverflowError) as exc:
        raise InputError(f"{path}: move multiplicities must be integers") from exc


def _load_table(path: str) -> JointTable:
    data = _load_json(path)
    if not all(isinstance(data.get(key), list) for key in ("cardinalities", "probabilities")):
        raise InputError(f"{path}: a joint table needs 'cardinalities' and 'probabilities' lists")
    if data.get("labels") is not None:
        _check_labels(data["labels"], path)
    try:
        return JointTable.from_json(data)
    except (TypeError, OverflowError) as exc:
        raise InputError(f"{path}: joint-table entries must be numbers") from exc


def _check_dense_budget(g: GroundSet) -> None:
    """Refuse (BudgetError, exit 3) a ground set whose configuration has
    more than MAX_DENSE_ENTRIES = 2^n·|E(N)| entries, before any work.

    The dense commands (config, classify-imset, ci-model --imset, face-of,
    skeletal) build or scan a structure of that size; the cap is the n = 10
    size, where config takes about 10 s and 1.2 GB (2 cores)."""
    entries = g.num_subsets * g.num_elementary
    if entries > MAX_DENSE_ENTRIES:
        raise BudgetError(
            f"n={g.n}: 2^n·|E(N)| = {entries:,} dense entries exceed the cap of "
            f"{MAX_DENSE_ENTRIES:,} (n=10)"
        )


def _ground_flag(args) -> GroundSet:
    if getattr(args, "ground", None) is not None:
        return GroundSet(args.ground)
    return GroundSet(args.n)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _emit(args, payload: dict, text: str, csv_text: str | None = None) -> None:
    fmt = args.format
    if fmt == "json":
        out = json.dumps({"schema": SCHEMA, "command": args.command, **payload}, indent=2) + "\n"
    elif fmt == "csv":
        out = csv_text
    else:
        out = text if text.endswith("\n") else text + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_config(args) -> int:
    g = _ground_flag(args)
    _check_dense_budget(g)
    cfg = configuration(g)
    payload = {
        "ground": "".join(g.labels),
        "column_labels": [str(e) for e in cfg.columns],
        "row_labels": [g.subset_str(m) for m in g.masks_graded],
        "matrix": [list(row) for row in cfg.matrix],
    }
    csv_text = cfg.to_csv()
    _emit(args, payload, text=csv_text, csv_text=csv_text)
    return 0


def _cmd_check_supermodular(args) -> int:
    f = _load_vector(args.function, SetFunction)
    violation = first_supermodularity_violation(f, tol=args.tol)
    payload = {
        "supermodular": violation is None,
        "violation": None if violation is None else str(violation.triplet()),
    }
    text = "supermodular" if violation is None else f"violated at {violation.triplet()}"
    _emit(args, payload, text=text)
    return 0


def _cmd_skeletal(args) -> int:
    f = _load_vector(args.function, SetFunction)
    _check_dense_budget(f.ground)
    try:
        report = skeletal_report(f)
        payload = {"supermodular": True, **report}
    except ValueError as exc:
        payload = {"supermodular": False, "skeletal": False, "reason": str(exc)}
    lines = [f"skeletal: {payload['skeletal']}"]
    for key in ("tight_count", "tight_rank", "dimension", "reason"):
        if key in payload:
            lines.append(f"{key}: {payload[key]}")
    _emit(args, payload, text="\n".join(lines))
    return 0


def _cmd_construct(args) -> int:
    family = args.family
    if family == "max-k":
        g = _ground_flag(args)
        if args.k is None:
            raise InputError("construct --family max-k needs --k")
        f = max_k(g, args.k)
    elif family == "indicator":
        g = _ground_flag(args)
        if not args.set:
            raise InputError("construct --family indicator needs --set")
        f = indicator_superset(g.subset(args.set))
    elif family == "reflect":
        if not args.input:
            raise InputError("construct --family reflect needs --input")
        f = reflect(_load_vector(args.input, SetFunction))
    elif family in ("zero-slice", "modular-top", "duplicate"):
        if not args.input or not args.label:
            raise InputError(f"construct --family {family} needs --input and --label")
        base = _load_vector(args.input, SetFunction)
        builder = {
            "zero-slice": extend_zero_slice,
            "modular-top": extend_modular_top,
            "duplicate": duplicate_coordinate,
        }[family]
        f = builder(base, args.label)
    elif family == "product":
        if not args.input or not args.input2:
            raise InputError("construct --family product needs --input and --input2")
        f = product(_load_vector(args.input, SetFunction), _load_vector(args.input2, SetFunction))
    elif family == "four-generator-witness":
        g = _ground_flag(args)
        f = four_generator_witness(g)
    else:
        raise InputError(f"unknown construct family {family!r}")
    payload = {
        "family": family,
        "ground": "".join(f.ground.labels),
        "values": f.to_dict(),
    }
    text_lines = [f"{k}: {v}" for k, v in f.to_dict().items()]
    _emit(args, payload, text="\n".join(text_lines) or "0")
    return 0


def _cmd_decompose(args) -> int:
    g = _ground_flag(args)
    t = Triplet.parse(g, args.triplet)
    terms = decompose_semi_elementary(t)
    payload = {
        "triplet": str(t),
        "terms": [{"elementary": str(e.triplet()), "coefficient": c} for e, c in terms],
    }
    text = f"u_<{t}> = " + (
        " + ".join(f"{c if c != 1 else ''}u_<{e.triplet()}>".strip() for e, c in terms) or "0"
    )
    _emit(args, payload, text=text)
    return 0


def _cmd_classify_imset(args) -> int:
    u = _load_vector(args.imset, Imset)
    _check_dense_budget(u.ground)
    res = classify(u)
    payload = res.to_json()
    lines = [f"class: {payload['class']}", f"degree: {payload['degree']}"]
    if payload["witness"]:
        lines.append("witness: " + ", ".join(f"{k} x{v}" for k, v in payload["witness"].items()))
    _emit(args, payload, text="\n".join(lines))
    return 0


def _cmd_face(args) -> int:
    g = _ground_flag(args)
    t = Triplet.parse(g, args.triplet)
    desc = face_description(t)
    payload = desc.to_json()
    lines = [
        f"triplet: {t}",
        f"dimension: {desc.dimension}",
        "extreme set: " + ", ".join(str(e) for e in desc.extreme_set),
        f"orthogonal family size: {len(desc.family)}",
    ]
    _emit(args, payload, text="\n".join(lines))
    return 0


def _cmd_face_of(args) -> int:
    u = _load_vector(args.imset, Imset)
    _check_dense_budget(u.ground)
    face = face_of_structural(u)
    payload = {
        "face": [str(e.triplet()) for e in face],
        "imset": u.to_dict(),
    }
    text = "face: " + (", ".join(str(e.triplet()) for e in face) or "(empty)")
    _emit(args, payload, text=text)
    return 0


def _cmd_ci_model(args) -> int:
    if bool(args.dist) == bool(args.imset):
        raise InputError("ci-model needs exactly one of --dist or --imset")
    if args.dist:
        P = _load_table(args.dist)
        model = ci_model_of_P(P, tol=args.tol)
        source = {"source": "distribution", "tol": args.tol}
    else:
        u = _load_vector(args.imset, Imset)
        _check_dense_budget(u.ground)
        model = ci_model_of_imset(u)
        source = {"source": "imset"}
    payload = {
        **source,
        "ground": "".join(model.ground.labels),
        "statements": model.to_strings(),
    }
    _emit(args, payload, text="\n".join(model.to_strings()) or "(no nontrivial statements)")
    return 0


def _cmd_closure(args) -> int:
    data = _load_json(args.statements)
    g = _ground_of(data, args.statements)
    stmts = data.get("statements")
    if not isinstance(stmts, list) or not all(isinstance(s, str) for s in stmts):
        raise InputError(f"{args.statements}: missing 'statements' list of strings")
    model = semigraphoid_closure(g, stmts)
    payload = {
        "ground": "".join(g.labels),
        "input": list(stmts),
        "statements": model.to_strings(),
    }
    _emit(args, payload, text="\n".join(model.to_strings()) or "(no nontrivial statements)")
    return 0


def _cmd_reduce(args) -> int:
    z = _load_move(args.move)
    combo = reduce_to_basis(z)
    payload = {
        "terms": [{"coefficient": c, **m.to_json()} for m, c in combo],
    }
    lines = []
    for m, c in combo:
        data = m.to_json()
        lhs = " + ".join(f"u_<{k}>" for k in data["lhs"])
        rhs = " + ".join(f"u_<{k}>" for k in data["rhs"])
        lines.append(f"{c:+d} x ({lhs} = {rhs})")
    _emit(args, payload, text="\n".join(lines) or "(zero move)")
    return 0


def _cmd_relations(args) -> int:
    g = _ground_flag(args)
    forms = enumerate_small_relations(
        g, args.k, coeff_bound=args.coeff_bound, degree_bound=args.degree_max
    )
    by_class = {}
    for r in forms:
        by_class[r.classification] = by_class.get(r.classification, 0) + 1
    payload = {
        "ground": "".join(g.labels),
        "k_max": args.k,
        "coeff_bound": args.coeff_bound,
        "degree_bound": args.degree_max,
        "count": len(forms),
        "by_classification": dict(sorted(by_class.items())),
        "relations": [
            {
                "k": r.k,
                "m": r.m,
                "degree": r.degree,
                "classification": r.classification,
                **r.move.to_json(),
            }
            for r in forms
        ],
    }
    lines = [f"{len(forms)} relations"]
    for name, cnt in sorted(by_class.items()):
        lines.append(f"{name}: {cnt}")
    csv_lines = ["classification,count"]
    for name, cnt in sorted(by_class.items()):
        csv_lines.append(f"{name},{cnt}")
    _emit(args, payload, text="\n".join(lines), csv_text="\n".join(csv_lines) + "\n")
    return 0


def _cmd_markov(args) -> int:
    g = _ground_flag(args)
    t = Triplet.parse(g, args.sub) if args.sub else None
    # the budget needs only the shape: check it before building the matrix
    check_degree_cap(len(extreme_set(t)) if t else g.num_elementary, g.num_subsets, args.degree_cap)
    cfg = subconfiguration(t) if t else configuration(g)
    report = markov_basis(cfg, args.degree_cap)
    payload = {
        "ground": "".join(g.labels),
        "sub": args.sub,
        **report.to_json(),
    }
    lines = [f"degree cap: {report.degree_cap}", f"complete: {report.complete}"]
    lines.append(f"complete source: {report.complete_source}")
    for d, c in sorted(report.per_degree_counts.items()):
        lines.append(f"degree {d}: {c} representatives")
    _emit(args, payload, text="\n".join(lines), csv_text=report.to_csv())
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    ok = all(r["ok"] for r in results)
    payload = {
        "suite": args.suite,
        "passed": ok,
        "results": results,
    }
    text = format_results(results)
    _emit(args, payload, text=text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number >= 0 (else exit 2)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused (parsing does
    not change it).  The handler of a command is looked up by main at call
    time, not bound here."""
    def output(*formats):
        # a command offers csv only where it has a csv rendering
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--format", choices=formats, default="json", help="output format")
        parent.add_argument("-o", "--output", default=None, help="write output to a file")
        return parent

    common, tabular = output("json", "text"), output("json", "csv", "text")

    ground = argparse.ArgumentParser(add_help=False)
    ground.add_argument("--n", type=int, default=4, help="ground-set size (labels a, b, ...)")
    ground.add_argument("--ground", default=None, help="explicit labels, e.g. 'abcd'")

    p = argparse.ArgumentParser(
        prog="imset-kit",
        description="Imsets, supermodular cone geometry, CI models, and Markov moves.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("config", parents=[tabular, ground], help="the configuration matrix")

    sp = sub.add_parser(
        "check-supermodular", parents=[common], help="test a set function for supermodularity"
    )
    sp.add_argument("function", help="set-function JSON file")
    sp.add_argument("--tol", type=_tolerance, default=0, help="tolerance (default exact)")

    sp = sub.add_parser(
        "skeletal", parents=[common], help="extreme-ray test with tight-set evidence"
    )
    sp.add_argument("function", help="set-function JSON file")

    sp = sub.add_parser("construct", parents=[common, ground], help="build a named set function")
    sp.add_argument(
        "--family",
        required=True,
        choices=(
            "max-k",
            "indicator",
            "reflect",
            "zero-slice",
            "modular-top",
            "duplicate",
            "product",
            "four-generator-witness",
        ),
    )
    sp.add_argument("--k", type=int, default=None, help="level for max-k")
    sp.add_argument("--set", default=None, help="subset labels for indicator")
    sp.add_argument("--label", default=None, help="new variable label for extensions")
    sp.add_argument("--input", default=None, help="base set-function JSON file")
    sp.add_argument("--input2", default=None, help="second factor for product")

    sp = sub.add_parser(
        "decompose", parents=[common, ground], help="canonical elementary decomposition"
    )
    sp.add_argument("triplet", help="A|B|C, e.g. 'ab|cd|0'")

    sp = sub.add_parser(
        "classify-imset", parents=[common], help="finest imset class with a witness"
    )
    sp.add_argument("imset", help="imset JSON file")

    sp = sub.add_parser("face", parents=[common, ground], help="face data of u_<A|B|C>")
    sp.add_argument("triplet", help="A|B|C, e.g. 'a|b|cd'")

    sp = sub.add_parser(
        "face-of", parents=[common], help="the face a structural imset generates"
    )
    sp.add_argument("imset", help="imset JSON file")

    sp = sub.add_parser("ci-model", parents=[common], help="CI statements of a distribution or imset")
    sp.add_argument("--dist", default=None, help="joint-table JSON file")
    sp.add_argument("--imset", default=None, help="imset JSON file")
    sp.add_argument("--tol", type=_tolerance, default=1e-9, help="CI tolerance for --dist")

    sp = sub.add_parser("closure", parents=[common], help="semi-graphoid closure of statements")
    sp.add_argument("statements", help="statements JSON file")

    sp = sub.add_parser("reduce", parents=[common], help="write a move over the 2x2 basis")
    sp.add_argument("move", help="move JSON file")

    sp = sub.add_parser(
        "relations", parents=[tabular, ground], help="enumerate and classify small relations"
    )
    sp.add_argument("--k", type=int, default=3, help="max distinct imsets on the smaller side")
    sp.add_argument("--degree-max", type=int, default=6, help="degree bound")
    sp.add_argument("--coeff-bound", type=int, default=3, help="coefficient bound")

    sp = sub.add_parser("markov", parents=[tabular, ground], help="minimal Markov basis by degree")
    sp.add_argument("--degree-cap", type=int, default=4)
    sp.add_argument("--sub", default=None, help="restrict to the sub-configuration of A|B|C")

    sp = sub.add_parser("verify", parents=[common], help="run the acceptance checks")
    sp.add_argument("--suite", choices=sorted(SUITES), default="all")

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
