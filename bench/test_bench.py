"""Tests of the benchmark's own logic: run with

    python3 -m pytest bench/test_bench.py
"""

import sys

import pytest

import run
import tracing
import workloads


def test_self_time_subtracts_nested_children():
    # root [0, 10] has a child [1, 4] which has a grandchild [2, 3]
    spans = [["root", 0.0, 10.0, -1, 0], ["child", 1.0, 4.0, 0, 0], ["leaf", 2.0, 3.0, 1, 0]]
    assert tracing.self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children [1, 5] and [3, 8] overlap on [3, 5]; [9, 12] runs past the parent
    spans = [
        ["p", 0.0, 10.0, -1, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 3.0, 8.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_covered_length_of_disjoint_and_contained_intervals():
    assert tracing.covered_length([(0, 1), (2, 3)], 0, 10) == pytest.approx(2.0)
    assert tracing.covered_length([(0, 5), (1, 2)], 0, 10) == pytest.approx(5.0)
    assert tracing.covered_length([], 0, 10) == 0.0


def test_tail_percentile_leaves_ten_samples_beyond():
    pct, value, beyond = run.tail_percentile(range(1, 101))
    assert (pct, value, beyond) == (90.0, 90, 10)
    pct, value, beyond = run.tail_percentile(list(range(200, 0, -1)))
    assert (pct, value, beyond) == (95.0, 190, 10)
    # one more sample moves the percentile up, and still ten lie beyond
    pct, value, _ = run.tail_percentile(range(1, 102))
    assert value == 91 and pct == pytest.approx(100 * 91 / 101)
    assert sum(1 for x in range(1, 102) if x > value) == 10


def test_tail_percentile_with_too_few_samples_is_the_maximum():
    assert run.tail_percentile([3, 1, 2]) == (100.0, 3, 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    a = workloads.build_ops(workload, 7, 3)
    assert a == workloads.build_ops(workload, 7, 3)
    assert a != workloads.build_ops(workload, 8, 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_class_mix_does_not_depend_on_the_seed(workload):
    def mix(seed):
        ops = workloads.build_ops(workload, seed, 6)
        return sorted(op["cls"] for op in ops)

    assert mix(1) == mix(2)


def test_oracle_matches_the_library_orders():
    run.load_library()
    from imsetkit.groundset import GroundSet
    from imsetkit.relations import basic_moves

    for n in (3, 4, 5):
        assert workloads.elementary_triples(n) == list(GroundSet(n).elementary_triples)
    assert set(workloads.basic_moves(4)) == {m.coeffs for m in basic_moves(GroundSet(4))}


def test_restore_puts_back_every_patched_name():
    run.load_library()
    modules = {k: m for k, m in sys.modules.items() if k == "imsetkit" or k.startswith("imsetkit.")}
    before = {k: dict(vars(m)) for k, m in modules.items()}
    from imsetkit.groundset import GroundSet
    from imsetkit.relations import Move

    init, post = GroundSet.__dict__["__init__"], Move.__dict__["__post_init__"]
    tracer = tracing.Tracer()
    tracer.install()
    # the linalg function is replaced where it is defined and where it was imported
    lp = before["imsetkit.linalg"]["lp_feasible"]
    assert sys.modules["imsetkit.linalg"].lp_feasible is not lp
    assert sys.modules["imsetkit.ci"].lp_feasible is not lp
    assert GroundSet.__dict__["__init__"] is not init
    tracer.restore()
    for k, m in modules.items():
        assert dict(vars(m)) == before[k], k
    assert GroundSet.__dict__["__init__"] is init
    assert Move.__dict__["__post_init__"] is post


def test_traced_calls_record_spans_only_inside_an_op():
    run.load_library()
    from imsetkit import groundset, relations

    tracer = tracing.Tracer()
    tracer.install()
    try:
        g = groundset.GroundSet(4)
        tracer.op_id = 5
        relations.reduce_to_basis(relations.Move(g, (0,) * g.num_elementary))
        tracer.op_id = None
        groundset.GroundSet(3)
    finally:
        tracer.restore()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "relations.Move"
    assert "relations.reduce_to_basis" in names and "relations.basic_moves" in names
    assert "groundset.GroundSet" not in names
    assert all(s[4] == 5 for s in tracer.spans)
    parents = {s[0]: s[3] for s in tracer.spans}
    assert tracer.spans[parents["relations.basic_moves"]][0] == "relations.reduce_to_basis"
