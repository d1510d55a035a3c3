"""Seeded, single-process benchmark of imset-kit.

Run from the root of a checkout:

    python3 bench/run.py --workload cone-queries --seed 1 --seconds 25 --trace 0

`--workload all` runs the three workloads one after another.  With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced pass over the same op list.  The lines before it report the machine,
the input properties and the failure details.  See bench/README.md.
"""

from __future__ import annotations

import os

# One thread everywhere: numpy reads these when it is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".imsetbench"

MODULES = (
    "groundset",
    "imsets",
    "linalg",
    "supermodular",
    "ci",
    "faces",
    "membership",
    "relations",
    "markov",
    "verify",
    "cli",
)
# Set-up is repeated at least SETUP_MIN_REPEATS times and until
# SETUP_BUDGET_S seconds are spent, at most SETUP_MAX_REPEATS times.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 9, 5.0
SETUP_TIMEOUT_S = 120
SETUP_PROBES = 10  # host-speed probes after each set-up repeat
TAIL_BEYOND = 10
# Median of speed_probe() between ops on the reference machine (README.md).
PROBE_REFERENCE_S = 0.004
# How far each op timing moves when the probe's time moves: the slope of
# log(metric) on log(probe time) over 20 runs of kernel-moves and
# markov-fibers on the reference machine (README.md).  Light ops move with
# the probe; the slow ops that dominate the throughput and the tail move less.
HOST_ELASTICITY = {"ops_per_s": -0.8, "latency_p50_ms": 1.0, "latency_tail_ms": 0.6}
# Set-up (interpreter start, imports, one light op per class) is scaled by
# probes taken between its repeats, with the light ops' elasticity.
SETUP_ELASTICITY = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_library() -> None:
    """Import every imsetkit module from this checkout's src/ tree."""
    if not (SRC / "imsetkit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'imsetkit'} not found; run from the root of an imset-kit checkout")
    sys.path.insert(0, str(SRC))
    for name in MODULES:
        importlib.import_module(f"imsetkit.{name}")
    where = Path(sys.modules["imsetkit"].__file__).resolve()
    if SRC not in where.parents:
        sys.exit(f"error: imported imsetkit from {where}, not from {SRC}")


import workloads  # noqa: E402  (after the thread settings, beside this file)
import tracing  # noqa: E402


def tail_percentile(samples):
    """(percentile, value, samples beyond) for the highest nearest-rank
    percentile that leaves at least TAIL_BEYOND samples above it."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return 100.0, s[-1], 0
    return 100.0 * (n - TAIL_BEYOND) / n, s[n - TAIL_BEYOND - 1], TAIL_BEYOND


def speed_probe() -> float:
    """Seconds of a fixed pure-Python task, a reading of host speed: half a
    tight integer loop, half Fraction, tuple and dict work like the
    library's inner loops.  The collector is off meanwhile, so the library's
    heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        x = 0
        for i in range(20000):
            x = (x * 31 + i) & 1023
        acc, seen = Fraction(0), {}
        for i in range(1, 400):
            acc += Fraction(i % 7 + 1, i)
            seen[(i, i % 5)] = tuple(range(i % 9))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class _Discard:
    """A stream that drops what it is given (the CLI's error lines)."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def timed_pass(runner, ops, tracer=None):
    """Run every op once, closed loop.  Returns the op latencies, the
    answer summaries, and a host-speed probe time taken after each op."""
    latencies, summaries, probes = [], [], []
    with contextlib.redirect_stderr(_Discard()):
        for op in ops:
            runner.before(op)
            if tracer is not None:
                tracer.op_id = op["id"]
            error = None
            t0 = perf_counter()
            try:
                raw = runner.run(op)
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.op_id = None
            latencies.append(t1 - t0)
            summaries.append({"raised": error} if error else runner.summarize(op, raw))
            probes.append(speed_probe())
    return latencies, summaries, probes


def check_all(runner, ops, summaries):
    """(wrong answers, raised ops) as lists of (op, reason)."""
    models = {}
    for op, s in zip(ops, summaries):
        if op["cls"] == "ci-model-imset" and s.get("code") == 0 and s["out"]:
            models[op["files"]["u.json"]] = s["out"]["statements"]
    wrong, raised = [], []
    for op, s in zip(ops, summaries):
        if "raised" in s:
            raised.append((op, s["raised"]))
            continue
        try:
            why = workloads.check(op, s, runner, models)
        except Exception:
            why = "check raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
        if why:
            wrong.append((op, why))
    return wrong, raised


def measure_setup(workload, workdir):
    """Wall seconds of fresh processes that import imsetkit and run one
    warm-up op of every op class: the median of several repeats, the probe
    times taken between them, and the repeats' times."""
    ops = workloads.warmup_ops(workload)
    folder = workdir / "warmup"
    workloads.write_inputs(ops, folder)
    spec = folder / "warmup.json"
    spec.write_text(json.dumps({"workload": workload, "ops": ops}))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", str(spec)]
    times, probes = [], []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPEATS
    ):
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, timeout=SETUP_TIMEOUT_S, capture_output=True, text=True)
        times.append(perf_counter() - t0)
        if done.returncode != 0:
            sys.exit(f"error: set-up process failed ({done.returncode}):\n{done.stderr}")
        probes += [speed_probe() for _ in range(SETUP_PROBES)]
    return statistics.median(times), probes, times


def setup_child(spec_path) -> None:
    spec = json.loads(Path(spec_path).read_text())
    load_library()
    runner = workloads.Runner(spec["workload"], Path(spec_path).parent)
    with contextlib.redirect_stderr(_Discard()):
        for op in spec["ops"]:
            runner.before(op)
            with contextlib.suppress(Exception):
                runner.run(op)


def machine_info() -> dict:
    import numpy

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "imsetkit").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_imsetkit_lines": src_lines,
    }


def class_medians(ops, latencies) -> dict:
    by_cls: dict = {}
    for op, t in zip(ops, latencies):
        by_cls.setdefault(op["cls"], []).append(t)
    return {k: round(1000 * statistics.median(v), 3) for k, v in sorted(by_cls.items())}


def failure_report(ops, wrong, raised) -> dict:
    def first(items):
        out: dict = {}
        for op, why in items:
            entry = out.setdefault(op["cls"], {"count": 0, "first": why})
            entry["count"] += 1
        return out

    return {
        "failed_ratio": (len(wrong) + len(raised)) / len(ops),
        "wrong_answers": first(wrong),
        "raised": first(raised),
    }


def run_workload(args) -> dict:
    load_library()
    ops = workloads.build_ops(args.workload, args.seed, workloads.rounds_for(args.workload, args.seconds))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = None
        if not args.trace:
            setup = measure_setup(args.workload, workdir)
        workloads.write_inputs(ops, workdir / "ops")
        runner = workloads.Runner(args.workload, workdir / "ops")
        warm = workloads.warmup_ops(args.workload)
        workloads.write_inputs(warm, workdir / "warmup")
        timed_pass(runner, warm)

        if args.trace:
            # the traced pass comes first, under the same conditions as an
            # untraced run; the second, untraced pass only gives the overhead
            tracer = tracing.Tracer()
            tracer.install()
            try:
                latencies, summaries, _ = timed_pass(runner, ops, tracer)
            finally:
                tracer.restore()
            untraced, _, _ = timed_pass(runner, ops)
            tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            latencies, summaries, probes = timed_pass(runner, ops)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wrong, raised = check_all(runner, ops, summaries)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"info": machine_info()}))
    inputs = workloads.input_properties(ops)
    report = {"workload": args.workload, "seed": args.seed, **failure_report(ops, wrong, raised)}
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, tracer.counters, len(ops))
        layers["trace.overhead_ratio"] = sum(latencies) / sum(untraced)
        lp = layers["linalg.lp_feasible.calls"]
        inputs["lp_feasible_share"] = layers["linalg.lp_feasible.feasible_ratio"] if lp else None
        metrics = {k: {"value": v, "unit": tracing.layer_unit(k)} for k, v in layers.items()}
        report["computed"] = ["markov.multisets", "markov.multisets_per_s"]
        report["spans"] = len(tracer.spans)
    else:
        pct, tail, beyond = tail_percentile(latencies)
        measured = {
            "ops_per_s": len(ops) / sum(latencies),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * tail,
        }
        # op timings are scaled to the reference host's speed (README.md)
        slowdown = statistics.median(probes) / PROBE_REFERENCE_S
        setup_slowdown = statistics.median(setup[1]) / PROBE_REFERENCE_S
        values = {
            "setup_s": setup[0] / setup_slowdown**SETUP_ELASTICITY,
            "peak_rss_mb": rss_mb,
        }
        for name, elasticity in HOST_ELASTICITY.items():
            values[name] = measured[name] / slowdown**elasticity
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        report.update(
            latency_tail_percentile=round(pct, 3),
            latency_tail_beyond=beyond,
            latency_samples=len(latencies),
            timed_s=sum(latencies),
            host_slowdown=slowdown,
            measured=measured,
            setup_host_slowdown=setup_slowdown,
            setup_samples_s=setup[2],
            class_p50_ms=class_medians(ops, latencies),
        )
    print(json.dumps({"inputs": inputs}))
    print(json.dumps({"report": report}))
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(wrong) + len(raised),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Seeded benchmark of imset-kit.")
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_child:
        setup_child(args.setup_child)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        code = 0
        for w in workloads.WORKLOADS:
            print(f"== {w}", flush=True)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run(cmd, cwd=ROOT).returncode or code
        return code
    result = run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
