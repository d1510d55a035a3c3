"""End-to-end checks of the command line: example invocations, file I/O,
output formats, and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import imsetkit
from imsetkit.cli import main
from imsetkit.groundset import GroundSet, Triplet
from imsetkit.imsets import Imset, configuration, semi_elementary
from imsetkit.linalg import InvariantError
from imsetkit.relations import basic_moves


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    data = json.loads(out)
    assert list(data)[:2] == ["schema", "command"]
    assert data["schema"] == "imset-kit/1" and data["command"] == argv[0]
    return code, data


def write_four_generator_imset(path):
    g = GroundSet(4)
    u = Imset.zero(g)
    for s in ("a|b|0", "a|b|c", "a|b|d", "c|d|ab"):
        u = u + semi_elementary(Triplet.parse(g, s))
    path.write_text(json.dumps({"ground": "abcd", "values": u.to_dict()}))
    return u


def test_config_csv_matches_golden(capsys, tmp_path):
    code, out = run(capsys, "config", "--n", "4", "--format", "csv")
    assert code == 0
    assert out == configuration(GroundSet(4)).to_csv()


def test_config_json_shape(capsys):
    code, data = run_json(capsys, "config", "--n", "3")
    assert code == 0
    assert data["ground"] == "abc"
    assert len(data["column_labels"]) == 6
    assert len(data["matrix"]) == 8
    # the matrix rows follow the row labels, columns the column labels
    assert data["row_labels"][0] == "0" and data["row_labels"][-1] == "abc"


def test_markov_n4_counts(capsys):
    code, data = run_json(capsys, "markov", "--n", "4", "--degree-cap", "4")
    assert code == 0
    assert data["per_degree_counts"] == {"2": 2, "3": 1, "4": 4}
    assert data["complete"] is True
    assert len(data["representatives"]) == 7


def test_markov_csv(capsys):
    code, out = run(capsys, "markov", "--n", "4", "--degree-cap", "4", "--format", "csv")
    assert code == 0
    assert out == "degree,representatives\n2,2\n3,1\n4,4\n"


def test_markov_sub_configuration(capsys):
    code, data = run_json(
        capsys, "markov", "--n", "4", "--sub", "ab|cd|0", "--degree-cap", "4"
    )
    assert code == 0
    assert data["per_degree_counts"] == {"2": 2, "4": 4}
    assert data["complete"] is False


def test_face_example(capsys):
    code, data = run_json(capsys, "face", "a|b|cd", "--n", "4")
    assert code == 0
    assert data["dimension"] == 1
    assert data["extreme_set"] == ["a|b|cd"]
    assert len(data["orthogonal_set"]) == 15


def test_ci_model_of_imset_excludes_last_generator(capsys, tmp_path):
    path = tmp_path / "u.json"
    write_four_generator_imset(path)
    code, data = run_json(capsys, "ci-model", "--imset", str(path))
    assert code == 0
    assert data["statements"] == ["a|b|0", "a|b|c", "a|b|d", "c|d|ab"]
    assert "a|b|cd" not in data["statements"]


def test_ci_model_of_imset_n5(capsys, tmp_path):
    g = GroundSet(5)
    t = Triplet.parse(g, "abc|de|0")
    u = semi_elementary(t)
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"ground": "abcde", "values": u.to_dict()}))
    code, data = run_json(capsys, "ci-model", "--imset", str(path))
    assert code == 0
    assert data["ground"] == "abcde"
    assert str(t) in data["statements"]


def test_face_of_four_generators(capsys, tmp_path):
    path = tmp_path / "u.json"
    write_four_generator_imset(path)
    code, data = run_json(capsys, "face-of", str(path))
    assert code == 0
    assert data["face"] == ["a|b|0", "a|b|c", "a|b|d", "c|d|ab"]


def test_classify_imset(capsys, tmp_path):
    path = tmp_path / "u.json"
    write_four_generator_imset(path)
    code, data = run_json(capsys, "classify-imset", str(path))
    assert code == 0
    assert data["class"] == "combinatorial"
    assert data["degree"] == 4
    assert sum(data["witness"].values()) == 4


def test_one_variable_zero_imset_is_combinatorial(capsys, tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"ground": "a", "values": {}}))
    for argv, key, want in (
        (("classify-imset",), "class", "combinatorial"),
        (("face-of",), "face", []),
        (("ci-model", "--imset"), "statements", []),
    ):
        code, data = run_json(capsys, *argv, str(path))
        assert (code, data[key]) == (0, want)


def test_construct_roundtrips_through_files(capsys, tmp_path):
    # construct writes a file the other commands accept as input
    path = tmp_path / "f.json"
    code, _ = run(capsys, "construct", "--family", "max-k", "--n", "4", "--k", "2",
                  "-o", str(path))
    assert code == 0
    code, data = run_json(capsys, "skeletal", str(path))
    assert code == 0
    assert data["supermodular"] is True
    assert data["skeletal"] is True

    code, data = run_json(capsys, "check-supermodular", str(path))
    assert code == 0
    assert data["supermodular"] is True and data["violation"] is None


def test_construct_product_and_extensions(capsys, tmp_path):
    base = tmp_path / "base.json"
    code, _ = run(capsys, "construct", "--family", "max-k", "--ground", "ab",
                  "--k", "1", "-o", str(base))
    assert code == 0
    other = tmp_path / "other.json"
    code, _ = run(capsys, "construct", "--family", "max-k", "--ground", "cd",
                  "--k", "1", "-o", str(other))
    assert code == 0
    code, data = run_json(capsys, "construct", "--family", "product",
                          "--input", str(base), "--input2", str(other))
    assert code == 0
    assert data["ground"] == "abcd"

    code, data = run_json(capsys, "construct", "--family", "zero-slice",
                          "--input", str(base), "--label", "e")
    assert code == 0
    assert data["ground"] == "abe"


def test_construct_duplicate_refuses_an_input_that_is_not_standardized(capsys, tmp_path):
    # supermodular, f(∅) = 1 and 0 elsewhere: its duplicate would not be
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"ground": "abc", "values": {"0": 1}}))
    code, _ = run(capsys, "construct", "--family", "duplicate", "--input", str(path), "--label", "d")
    assert code == 2
    path.write_text(json.dumps({"ground": "abc", "values": {"ab": 1, "ac": 1, "bc": 1, "abc": 2}}))
    code, data = run_json(capsys, "construct", "--family", "duplicate", "--input", str(path), "--label", "d")
    assert code == 0 and data["ground"] == "abcd"


def test_construct_indicator_not_supermodular_detected(capsys, tmp_path):
    path = tmp_path / "g.json"
    code, _ = run(capsys, "construct", "--family", "indicator", "--ground", "abc",
                  "--set", "ab", "-o", str(path))
    assert code == 0
    code, data = run_json(capsys, "skeletal", str(path))
    assert code == 0
    assert data["skeletal"] is True


def test_decompose(capsys):
    code, data = run_json(capsys, "decompose", "ab|cd|0", "--n", "4")
    assert code == 0
    assert len(data["terms"]) == 4
    assert all(t["coefficient"] == 1 for t in data["terms"])


def test_closure(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"ground": "abc", "statements": ["a|b|c", "a|c|0"]}))
    code, data = run_json(capsys, "closure", str(path))
    assert code == 0
    # sorted as plain strings, so "a|bc|0" precedes "a|b|0"
    assert data["statements"] == ["a|bc|0", "a|b|0", "a|b|c", "a|c|0", "a|c|b"]
    assert data["statements"] == sorted(data["statements"])


def test_reduce_resums(capsys, tmp_path):
    g = GroundSet(4)
    move = basic_moves(g)[5]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ground": "abcd", **move.to_json()}))
    code, data = run_json(capsys, "reduce", str(path))
    assert code == 0
    # the reported combination re-sums to the input move
    total = [0] * g.num_elementary
    from imsetkit.relations import Move

    for term in data["terms"]:
        m = Move.from_json(g, term)
        for j, c in enumerate(m.coeffs):
            total[j] += term["coefficient"] * c
    assert tuple(total) == move.coeffs


@pytest.mark.parametrize("n", [11, 12])
def test_reduce_over_budget_exits_3_at_once(capsys, monkeypatch, tmp_path, n):
    from imsetkit import relations

    def no_move(*args):
        raise AssertionError("built a pivot move before the budget check")

    g = GroundSet(n)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ground": "".join(g.labels), **basic_moves(GroundSet(4))[5].to_json()}))
    monkeypatch.setattr(relations, "_basic_move", no_move)
    monkeypatch.setattr(relations, "_basic_move_ranks", no_move)
    start = time.perf_counter()
    code = main(["reduce", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert capsys.readouterr().err.startswith(f"budget exceeded: n={n}: ")


def test_relations_counts(capsys):
    code, data = run_json(capsys, "relations", "--n", "3", "--k", "2",
                          "--degree-max", "4", "--coeff-bound", "2")
    assert code == 0
    assert data["count"] == 6
    assert data["by_classification"] == {"two-by-two-semigraphoid": 6}


@pytest.mark.parametrize("argv", [["--n", "5", "--k", "3"], ["--n", "6", "--k", "2"]])
def test_relations_over_budget_exits_3_at_once(capsys, monkeypatch, argv):
    from imsetkit import relations

    def no_work(*args, **kwargs):
        raise AssertionError("enumerated a side before the budget check")

    monkeypatch.setattr(relations, "Imset", no_work)
    monkeypatch.setattr(relations, "_dfs_witnesses", no_work)
    start = time.perf_counter()
    code = main(["relations", *argv])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert capsys.readouterr().err.startswith("budget exceeded: ")


@pytest.mark.parametrize(
    "argv", [["--n", "6", "--k", "4"], ["--n", "12", "--k", "100000"]]
)
def test_relations_without_coefficient_tuples_walk_no_support(capsys, argv):
    # coefficient bound 0 leaves no side, whatever the supports
    start = time.perf_counter()
    code, data = run_json(capsys, "relations", *argv, "--coeff-bound", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert data["count"] == 0 and data["relations"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["config", "--n", "12"],
        ["config", "--n", "11"],
        ["classify-imset", "@imset"],
        ["face-of", "@imset"],
        ["ci-model", "--imset", "@imset"],
        ["skeletal", "@function"],
    ],
)
def test_dense_commands_over_budget_exit_3_at_once(capsys, monkeypatch, tmp_path, argv):
    import imsetkit.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("started dense work before the budget check")

    for name in ("configuration", "classify", "face_of_structural", "ci_model_of_imset", "skeletal_report"):
        monkeypatch.setattr(cli, name, no_work)
    files = {"@imset": {"ab": 1}, "@function": {"ab": "1/2"}}
    for i, arg in enumerate(argv):
        if arg in files:
            path = tmp_path / "in.json"
            path.write_text(json.dumps({"ground": "abcdefghijkl", "values": files[arg]}))
            argv[i] = str(path)
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert capsys.readouterr().err.startswith("budget exceeded: n=1")


def test_dense_budget_admits_n10():
    from imsetkit.cli import MAX_DENSE_ENTRIES, _check_dense_budget
    from imsetkit.relations import BudgetError

    g10 = GroundSet(10)
    assert g10.num_subsets * g10.num_elementary == MAX_DENSE_ENTRIES
    _check_dense_budget(g10)
    with pytest.raises(BudgetError):
        _check_dense_budget(GroundSet(11))


def test_ci_model_of_distribution(capsys, tmp_path):
    from imsetkit.ci import JointTable

    g = GroundSet(3)
    pa = [0.3, 0.7]
    pc_a = [[0.8, 0.2], [0.25, 0.75]]
    pb_c = [[0.6, 0.4], [0.1, 0.9]]
    probs = []
    for ia in range(2):
        for ib in range(2):
            for ic in range(2):
                probs.append(pa[ia] * pc_a[ia][ic] * pb_c[ic][ib])
    path = tmp_path / "P.json"
    path.write_text(json.dumps(JointTable(g, (2, 2, 2), tuple(probs)).to_json()))
    code, data = run_json(capsys, "ci-model", "--dist", str(path))
    assert code == 0
    assert data["statements"] == ["a|b|c"]


def test_verify_quick_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "quick", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].endswith("criteria passed")
    assert all("PASS" in l for l in lines[:-1])


def test_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _ = run(capsys, "classify-imset", str(bad))
    assert code == 2

    code, _ = run(capsys, "ci-model")
    assert code == 2

    code, _ = run(capsys, "face", "a|b|zz", "--n", "4")
    assert code == 2

    # an empty --ground is an error, not a fall-back to --n
    for ground in ("", "0ab", "a|b"):
        code = main(["face", "a|b|c", "--ground", ground])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""

    code, _ = run(capsys, "markov", "--n", "6", "--degree-cap", "4")
    assert code == 3

    # missing file
    code, _ = run(capsys, "skeletal", str(tmp_path / "absent.json"))
    assert code == 2

    # a ValueError from the library reaches main's own "error: ..." line
    g = GroundSet(3)
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps({"ground": "abc", "values": (-semi_elementary(Triplet.parse(g, "a|b|0"))).to_dict()}))
    for argv, message in (
        (["face-of", str(neg)], "imset is not structural"),
        (["ci-model", "--imset", str(neg)], "imset is not structural"),
        (["markov", "--n", "3", "--sub", "a|b|0"], "sub-configuration needs ABC = N"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    # --tol must be a finite number >= 0; the shared argparse type turns
    # any other value into exit 2 before any work (an exact run of the same
    # file finds the violation)
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"ground": "ab", "values": {"ab": -1}}))
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"cardinalities": [2, 2], "probabilities": [0.25] * 4}))
    code, out = run(capsys, "check-supermodular", str(sub), "--format", "text")
    assert code == 0 and out == "violated at a|b|0\n"
    for command in (["check-supermodular", str(sub)], ["ci-model", "--dist", str(table)]):
        for tol in ("nan", "inf", "-inf", "-1e-9", "abc"):
            with pytest.raises(SystemExit) as exc:
                main(command + [f"--tol={tol}"])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == ""
            assert "argument --tol: must be a finite number >= 0" in captured.err
        code, _ = run(capsys, *command, "--tol", "0")
        assert code == 0


@pytest.mark.parametrize("exc", [InvariantError("pivot division was inexact"), RuntimeError("boom")])
def test_unexpected_exception_exits_4(capsys, monkeypatch, exc):
    import imsetkit.cli as cli

    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_markov", broken)
    code = main(["markov", "--n", "3", "--degree-cap", "2"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == f"internal error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("sub", [[], ["--sub", "a|bcdefghijkl|0"]])
def test_markov_budget_is_checked_before_the_configuration_is_built(capsys, monkeypatch, sub):
    import imsetkit.cli as cli

    def refuse(*args, **kwargs):
        raise RuntimeError("configuration built before the budget check")

    monkeypatch.setattr(cli, "configuration", refuse)
    monkeypatch.setattr(cli, "subconfiguration", refuse)
    start = time.perf_counter()
    code = main(["markov", "--n", "12", "--degree-cap", "2", *sub])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("budget exceeded: degree 2 needs about ")
    assert elapsed < 1


@pytest.mark.parametrize("argv", [["--n", "8"], ["--n", "10", "--sub", "a|bcdefghij|0"]])
def test_markov_label_tables_are_budgeted_before_they_are_built(capsys, monkeypatch, argv):
    import imsetkit.relations as relations

    def refuse(g):
        raise RuntimeError("label tables built before the budget check")

    monkeypatch.setattr(relations, "_subset_images", refuse)
    start = time.perf_counter()
    code = main(["markov", "--degree-cap", "2", *argv])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("budget exceeded: the label-permutation tables need about ")
    assert elapsed < 1


def test_markov_budget_check_does_not_walk_every_degree(capsys):
    # one column: every degree has one multiset, so the least degree over
    # the budget is in the tens of millions
    start = time.perf_counter()
    code = main(["markov", "--n", "3", "--sub", "a|b|c", "--degree-cap", str(10**9)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("budget exceeded: degree 534773725 needs about ")
    assert elapsed < 1


@pytest.mark.parametrize(
    "command, body",
    [
        ("classify-imset", {"ground": 4, "values": {"ab": 1}}),
        ("classify-imset", {"ground": ["a", 2], "values": {"ab": 1}}),
        ("classify-imset", {"labels": {"a": 1}, "values": {"ab": 1}}),
        ("classify-imset", {"ground": "abcd", "values": {"ab": [1]}}),
        ("classify-imset", {"ground": "abcd", "values": {"ab": {}}}),
        ("classify-imset", {"ground": "abcd", "values": {"ab": None}}),
        ("classify-imset", {"ground": "abcd", "values": {"ab": float("inf")}}),
        ("skeletal", {"ground": 4, "values": {"ab": 1}}),
        ("skeletal", {"ground": "abc", "values": {"ab": [1]}}),
        ("reduce", {"ground": "abcd", "lhs": [1], "rhs": {}}),
        ("closure", {"ground": "abcd", "statements": [1]}),
        ("reduce", {"ground": "abcd", "lhs": {"a|b|0": 1.5}, "rhs": {}}),
        ("ci-model --dist", {"cardinalities": 3, "probabilities": [1]}),
        ("ci-model --dist", {"cardinalities": [2, 2], "probabilities": 5}),
        ("ci-model --dist", {"cardinalities": [None], "probabilities": [1]}),
        ("ci-model --dist", {"cardinalities": [2], "probabilities": [[1], 0]}),
        ("classify-imset", {"ground": ["ab", "c"], "values": {"ab": 1}}),
        ("ci-model --dist", {"labels": 3, "cardinalities": [2, 2, 2], "probabilities": [0.125] * 8}),
        ("ci-model --dist", {"cardinalities": [2.7, 2], "probabilities": [0.25] * 4}),
        ("ci-model --dist", {"cardinalities": ["2", True], "probabilities": [0.5, 0.5]}),
        ("ci-model --dist", {"cardinalities": [float("nan"), 2], "probabilities": [0.5, 0.5]}),
        # JSON true/false are not numbers
        ("classify-imset", {"ground": "abcd", "values": {"abcd": True}}),
        ("reduce", {"ground": "abcd", "lhs": {"a|b|0": True, "a|c|b": 1}, "rhs": {"a|c|0": 1, "a|b|c": 1}}),
        ("check-supermodular", {"ground": "ab", "values": {"ab": True}}),
        ("ci-model --dist", {"cardinalities": [True, 2], "probabilities": [0.5, 0.5]}),
        ("ci-model --dist", {"cardinalities": [1], "probabilities": [True]}),
        # a zero denominator is an input error, not an internal one
        ("check-supermodular", {"ground": "ab", "values": {"ab": "1/0"}}),
        ("skeletal", {"ground": "ab", "values": {"ab": "1/0"}}),
        # NaN passes the sum-to-1 check
        ("ci-model --dist", {"cardinalities": [2, 2], "probabilities": [float("nan"), 0.5, 0.25, 0.25]}),
        # two keys for one subset
        ("classify-imset", {"ground": "abcd", "values": {"ab": 1, "ba": 1, "0": 1, "a": -1, "b": -1}}),
        ("check-supermodular", {"ground": "ab", "values": {"0": 1, "": 2}}),
        # multiplicities are positive: a negative one does not move to the other side
        ("reduce", {"ground": "abc", "lhs": {"a|b|0": 1, "a|c|b": 1, "a|c|0": -1, "a|b|c": -1}}),
        ("reduce", {"ground": "abc", "lhs": {"a|b|0": 1, "a|c|b": 1, "b|c|0": 0},
                    "rhs": {"a|c|0": 1, "a|b|c": 1}}),
        # two keys for one elementary imset do not cancel
        ("reduce", {"ground": "abc", "lhs": {"a|b|0": 1}, "rhs": {"b|a|0": 1}}),
        # "0" is the empty-set token, so it cannot be a label: read as one,
        # this u_<a|b|0> would be classified "none"
        ("classify-imset", {"ground": "0ab", "values": {"0ab": 1, "0": 1, "a0": -1, "b0": -1}}),
    ],
)
def test_malformed_input_exits_2(capsys, tmp_path, command, body):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(body))
    code, _ = run(capsys, *command.split(), str(path))
    assert code == 2


def test_output_flag_writes_the_same_json_twice(capsys, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        code, stdout = run(capsys, "markov", "--n", "3", "--degree-cap", "2", "-o", str(out))
        assert code == 0 and stdout == ""
    assert json.loads(out_a.read_text())["schema"] == "imset-kit/1"
    assert out_a.read_text() == out_b.read_text()


@pytest.mark.parametrize("target", ["missing_dir/out.json", "."])
def test_unwritable_output_exits_2(capsys, tmp_path, target):
    code = main(["config", "--n", "3", "-o", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {tmp_path / target}: ")


@pytest.mark.parametrize(
    "argv, key, expected",
    [
        (["classify-imset"], "class", "combinatorial"),
        (["classify-imset"], "witness", {"a|b|c": 1200}),
        (["face-of"], "face", ["a|b|c"]),
        (["ci-model", "--imset"], "statements", ["a|b|c"]),
    ],
)
def test_degree_1200_imset_is_decided(capsys, tmp_path, argv, key, expected):
    # 1200·u_<a|b|c>: its witness search takes one summand per node, 1200 deep
    path = tmp_path / "u.json"
    values = {"abc": 1200, "c": 1200, "ac": -1200, "bc": -1200}
    path.write_text(json.dumps({"ground": "abc", "values": values}))
    code, data = run_json(capsys, *argv, str(path))
    assert code == 0
    assert data[key] == expected


def test_text_format_renders_imsets(capsys):
    code, out = run(capsys, "decompose", "a|b|cd", "--n", "4", "--format", "text")
    assert code == 0
    assert out.strip() == "u_<a|b|cd> = u_<a|b|cd>"

    code, out = run(capsys, "face", "ab|cd|0", "--n", "4", "--format", "text")
    assert code == 0
    assert "dimension: 9" in out


# Runs `imset-kit` argument lists (JSON, argv[1]) one after another in this
# process and prints, per call, the exit code, stdout, stderr and the text
# of the -o file, if any.
_SEQUENCE_SCRIPT = """
import contextlib, io, json, os, sys
from imsetkit import cli

out = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    written = None
    if "-o" in argv:
        path = argv[argv.index("-o") + 1]
        with open(path) as fh:
            written = fh.read()
        os.remove(path)
    out.append([code, stdout.getvalue(), stderr.getvalue(), written])
print(json.dumps(out))
"""


def test_parser_reuse_gives_fresh_process_output(tmp_path):
    imset = tmp_path / "u.json"
    write_four_generator_imset(imset)
    table = tmp_path / "P.json"
    table.write_text(json.dumps({"labels": "ab", "cardinalities": [2, 2],
                                 "probabilities": [0.25, 0.25, 0.25, 0.25]}))
    out = str(tmp_path / "out.json")
    calls = [
        ["decompose", "a|bc|0", "--n", "3", "--format", "text"],
        ["decompose", "a|bc|0", "--n", "3"],
        ["face", "a|b|c", "--n", "3", "-o", out],
        ["face", "a|b|c", "--n", "3"],
        ["face", "a|b|c", "--no-such-flag"],
        ["classify-imset", str(imset)],
        ["ci-model", "--dist", str(table)],
    ]
    src = str(Path(imsetkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def results(argvs):
        done = subprocess.run(
            [sys.executable, "-c", _SEQUENCE_SCRIPT, json.dumps(argvs)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return json.loads(done.stdout)

    in_sequence = results(calls)
    assert [r[0] for r in in_sequence] == [0, 0, 0, 0, 2, 0, 0]
    assert in_sequence[2][1] == "" and in_sequence[2][3] == in_sequence[3][1]
    assert "unrecognized arguments: --no-such-flag" in in_sequence[4][2]
    for argv, got in zip(calls, in_sequence):
        assert results([argv]) == [got], argv
