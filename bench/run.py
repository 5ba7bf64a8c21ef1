"""Benchmark runner for binomoment.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload (see workloads.py) in this process for
S seconds after one warm-up round, checks every output against the
oracles in checks.py, and prints one JSON object as the last line of
stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``round_s`` (the
sum over a round's operations of each operation's median time; the
per-unit rates behind it go to stderr), ``setup_s`` (median wall time of
seven fresh interpreters importing ``binomoment.cli``, spread evenly over
the run between rounds) and ``peak_rss_mb``.
With ``--trace 1`` untraced and traced rounds alternate; the metrics are
the per-layer figures of the traced rounds, per round, plus the tracing
overhead.  The program is loaded from ``src/`` of the checkout this file
sits in.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def fresh_import_seconds() -> float:
    """Wall time of one fresh interpreter running ``import binomoment.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BINOMOMENT_THREADS", None)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import binomoment.cli"], env=env,
                   cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def run_round(ops, times, problems, tracer=None):
    """One pass over ``ops``; returns (seconds in calls, failed calls).

    A call that raises or exits nonzero is counted as failed and reported
    on stderr; ``problems`` collects what the checks reject.
    """
    failed = 0
    wall = 0.0
    with tracer.patched() if tracer else contextlib.nullcontext():
        for op in ops:
            gc.collect()  # every call starts from the same collector state
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failing call is counted, not fatal
                wall += time.perf_counter() - t0
                failed += 1
                print(f"failed: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            wall += dt
            if times is not None:
                times.setdefault(op.name, []).append(dt)
            problems.extend(op.check(out))
            del out  # hold no output into the next call, whose peak memory it would add to
    return wall, failed


def end_to_end(ops, seconds, problems):
    times = {}
    setup = []
    rounds = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        failed += run_round(ops, times, problems)[1]
        rounds += 1
        # one set-up probe per seventh of the run, so that setup_s sees the
        # same drifting host as the rounds do
        if (len(setup) < SETUP_REPEATS
                and time.perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS):
            setup.append(fresh_import_seconds())
    while len(setup) < SETUP_REPEATS:
        setup.append(fresh_import_seconds())
    medians = {op.name: statistics.median(times[op.name]) for op in ops if op.name in times}
    rates = {}
    for op in ops:
        units, busy = rates.get(op.rate, (0, 0.0))
        rates[op.rate] = (units + op.units, busy + medians.get(op.name, 0.0))
    for rate, (units, busy) in sorted(rates.items()):
        print(f"{rate} = {units / busy if busy else 0.0:.6g} 1/s", file=sys.stderr)
    return rounds, failed, {"round_s": (sum(medians.values()), "s"),
                            "setup_s": (statistics.median(setup), "s")}


def per_layer(ops, seconds, problems, spans_path):
    from tracing import Tracer

    plain, traced, failed = [], [], 0
    totals = {}
    counts = {}
    last = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        wall, bad = run_round(ops, None, problems)
        plain.append(wall)
        tracer = Tracer()
        wall, bad2 = run_round(ops, None, problems, tracer)
        traced.append(wall)
        failed += bad + bad2
        for name, agg in tracer.summary().items():
            if name.startswith("_"):
                counts[name] = counts.get(name, 0) + agg
                continue
            t = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            t["calls"] += agg["calls"]
            t["self_s"] += agg["self_s"]
        for key, value in tracer.counts.items():
            counts[key] = counts.get(key, 0) + value
        last = tracer
    last.dump(spans_path)
    n = len(traced)

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / n

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0) / n

    def count(key):
        return counts.get(key, 0) / n

    density = count("_density_under_quadrature")
    evaluations = count("quadrature.evaluations")
    integrals = calls("quadrature.integrate")
    m = {
        "slater.eval_density.calls": (calls("slater.eval_density"), "count"),
        "slater.eval_density.self_s": (self_s("slater.eval_density"), "s"),
        "slater.eval_density.us_per_call": (
            1e6 * self_s("slater.eval_density") / calls("slater.eval_density")
            if calls("slater.eval_density") else 0.0, "us"),
        "slater.build_slater_expansion.self_s": (self_s("slater.build_slater_expansion"), "s"),
        "quadrature.integrate.calls": (integrals, "count"),
        "quadrature.integrate.self_s": (self_s("quadrature.integrate"), "s"),
        "quadrature.evaluations": (evaluations, "count"),
        "quadrature.levels": (count("quadrature.levels") / integrals if integrals else 0.0,
                              "count"),
        "quadrature.unconverged": (count("quadrature.unconverged"), "count"),
        "verify.certify_measure.self_s": (self_s("verify.certify_measure"), "s"),
        "verify.density_evaluations": (density, "count"),
        "verify.density_cache_hit_ratio": (1.0 - density / evaluations if evaluations else 0.0,
                                           "ratio"),
        "closedform.eval_closed.calls": (calls("closedform.eval_closed"), "count"),
        "closedform.eval_closed.self_s": (self_s("closedform.eval_closed"), "s"),
        "closedform.measure_model.self_s": (self_s("closedform.measure_model"), "s"),
        "core.classify_binomial.calls": (calls("core.classify_binomial"), "count"),
        "core.classify_binomial.self_s": (self_s("core.classify_binomial"), "s"),
        "core.gen_binomial.calls": (calls("core.gen_binomial"), "count"),
        "core.gen_binomial.self_s": (self_s("core.gen_binomial"), "s"),
    }
    for op_name in ("mul", "reciprocal", "compose", "compositional_inverse", "pow_scalar"):
        m[f"series.{op_name}.self_s"] = (self_s(f"series.{op_name}"), "s")
    m.update({
        "freeconv.s_transform.self_s": (self_s("freeconv.s_transform"), "s"),
        "freeconv.from_s_transform.self_s": (self_s("freeconv.from_s_transform"), "s"),
        "freeconv.identity_check.calls": (calls("freeconv.identity_check"), "count"),
        "freeconv.identity_check.self_s": (self_s("freeconv.identity_check"), "s"),
        "mellin.factorize.self_s": (self_s("mellin.factorize"), "s"),
        "mellin.sample.self_s": (self_s("mellin.sample"), "s"),
        "mellin.sample.draws": (count("mellin.sample.draws"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(plain),
                                 "ratio"),
    })
    return 2 * n, failed, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "binomoment" / "__init__.py").is_file():
        print(f"error: no binomoment sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("BINOMOMENT_THREADS", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    import binomoment.cli  # noqa: F401  (the import setup_s times, done here untimed)

    ctx = SimpleNamespace(root=ROOT, bench_dir=BENCH_DIR, out_dir=out_dir, seed=args.seed)
    ops = workloads.build(args.workload, ctx)
    problems = []
    run_round(ops, None, problems)  # warm-up, checked but not timed or counted
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        rounds, failed, metrics = per_layer(ops, args.seconds, problems, spans)
    else:
        rounds, failed, metrics = end_to_end(ops, args.seconds, problems)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")

    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": rounds * len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
