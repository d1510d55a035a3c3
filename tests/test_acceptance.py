"""Acceptance gate: every stated criterion at its stated tolerance.

Each test runs one criterion from the shared verification suite and prints
a single pass/fail line; run with -s (or rely on the failure report) to see
them.  The same checks back the `imset-kit verify` command.  The suite runs
no LP: every criterion runs with lp_feasible replaced, in each module that
binds it, by a function that records the call and raises.
"""

import ast
import importlib
import inspect
import pkgutil
from math import comb

import pytest

import imsetkit
from imsetkit import verify
from imsetkit.faces import orthogonal_set
from imsetkit.groundset import ElementaryIndex, GroundSet, enumerate_elementary, enumerate_triplets, popcount
from imsetkit.imsets import column_value, configuration, elementary_columns, elementary_imset
from imsetkit.linalg import lp_feasible
from imsetkit.verify import CRITERIA, run_criterion


def _modules_binding_lp_feasible() -> list:
    modules = [importlib.import_module(f"imsetkit.{m.name}") for m in pkgutil.iter_modules(imsetkit.__path__)]
    return [m for m in modules if hasattr(m, "lp_feasible")]


@pytest.fixture
def lp_calls(monkeypatch):
    """The lp_feasible calls made while the test runs; each one raises."""
    calls = []

    def refuse(A, b):
        calls.append(b)
        raise AssertionError("the acceptance suite called lp_feasible")

    for module in _modules_binding_lp_feasible():
        monkeypatch.setattr(module, "lp_feasible", refuse)
    return calls


@pytest.mark.parametrize(
    "num,name",
    [(num, name) for num, name, _ in CRITERIA],
    ids=[f"{num:02d}-{name}" for num, name, _ in CRITERIA],
)
def test_criterion(num, name, lp_calls):
    result = run_criterion(num)
    status = "PASS" if result["ok"] else "FAIL"
    line = f"criterion {num:02d} {name}: {status} ({result['seconds']}s) {result['detail']}"
    print(line)
    assert result["ok"], line
    assert lp_calls == []


def test_every_module_that_binds_lp_feasible_is_patched():
    names = {m.__name__ for m in _modules_binding_lp_feasible()}
    assert {"imsetkit.linalg", "imsetkit.faces", "imsetkit.membership"} <= names
    assert "imsetkit.verify" not in names
    imports = [n for n in ast.walk(ast.parse(inspect.getsource(verify))) if isinstance(n, ast.ImportFrom)]
    assert "linalg" not in {n.module for n in imports}


def test_the_patch_catches_an_lp_call(lp_calls):
    from imsetkit import faces

    with pytest.raises(AssertionError, match="called lp_feasible"):
        faces.lp_feasible([[1]], [1])
    assert len(lp_calls) == 1


# ---------------------------------------------------------------------------
# criterion 4: the orthogonal-family certificate against the removal LPs
# ---------------------------------------------------------------------------


def family_sum(t) -> list:
    """The certificate criterion 4 checks for u_t: its orthogonal family, summed."""
    return [sum(values) for values in zip(*(h.values for h in orthogonal_set(t)))]


def removal_lp_exposed(g, k) -> bool:
    """The removal LP criterion 4 ran before its certificate: u_k lies
    outside the cone of the other elementary imsets (with no others, the
    cone is {0} and u_k is not zero)."""
    elems = enumerate_elementary(g)
    others = elems[:k] + elems[k + 1:]
    u = elementary_imset(elems[k]).values
    if not others:
        return any(u)
    return not lp_feasible(configuration(g, columns=others).matrix, u).feasible


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_certificate_agrees_with_the_removal_lps(n):
    g = GroundSet(n)
    for k, e in enumerate(enumerate_elementary(g)):
        exposed = verify._exposes(family_sum(e.triplet()), g, k)
        assert exposed == removal_lp_exposed(g, k) is True, e


@pytest.mark.parametrize("n", [3, 4, 5])
def test_another_triplets_family_fails_the_check(n):
    # f_s > 0 on u_t for every other elementary triplet s: the check is
    # not met by any family but t's own
    g = GroundSet(n)
    columns = elementary_columns(g)
    sums = [family_sum(e.triplet()) for e in enumerate_elementary(g)]
    for k in range(len(columns)):
        for s, f in enumerate(sums):
            if s != k:
                assert column_value(f, columns[k]) > 0
                assert not verify._exposes(f, g, k)


@pytest.mark.parametrize("n", [3, 4])
def test_the_check_needs_a_ray_and_a_supermodular_function(n):
    g = GroundSet(n)
    columns = range(g.num_elementary)
    # zero on every elementary imset: modular, exposes the whole cone
    assert not any(verify._exposes([0] * g.num_subsets, g, k) for k in columns)
    # a wider face: every extreme ray of u_<A|B|C> is a zero of its family
    for t in enumerate_triplets(g):
        if not t.is_elementary:
            f = family_sum(t)
            assert not any(verify._exposes(f, g, k) for k in columns), t
    # 2f - f* with f*(S) = C(|S|, 2), which is 1 on every elementary
    # imset: -1 at u_t and > 0 on every other, so not supermodular
    for k, e in enumerate(enumerate_elementary(g)):
        f = [2 * v - comb(popcount(m), 2) for v, m in zip(family_sum(e.triplet()), g.masks_graded)]
        values = [column_value(f, column) for column in elementary_columns(g)]
        assert values[k] == -1 and min(values[:k] + values[k + 1:]) > 0
        assert not verify._exposes(f, g, k)


def test_criterion_4_fails_on_a_wrong_certificate(monkeypatch):
    # hand each triplet the family of the next elementary triplet; n = 2
    # has one, which is its own next
    def next_family(t):
        g = t.ground
        k = ElementaryIndex.from_triplet(t).rank
        return orthogonal_set(ElementaryIndex.from_rank(g, (k + 1) % g.num_elementary).triplet())

    monkeypatch.setattr(verify, "orthogonal_set", next_family)
    result = run_criterion(4)
    assert not result["ok"]
    assert result["detail"] == "n=3: the orthogonal family of a|b|0 does not expose u_a|b|0"


def test_criterion_4_exposes_all_111_imsets():
    assert run_criterion(4)["detail"].startswith("111 elementary imsets over n=2..5")
