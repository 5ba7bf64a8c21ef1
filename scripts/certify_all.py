"""Moment certification sweep over a grid of in-region parameter pairs.

For every rational (p, r) on a configurable grid that classifies as
positive definite with p > 1, the measure is certified by quadrature:
each moment up to n_max is integrated against the density (plus any atom
at the origin) and compared with the exact binomial value.  One summary
line is printed per pair; a pair whose certification raises a domain or
region error prints that error and counts as a failure.  The worst
relative error over the whole sweep is reported at the end and the exit
code reflects whether every pair certified cleanly.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from binomoment.core import DomainError, Params, RegionError, classify_binomial
from binomoment.verify import certify_measure


def grid_pairs(p_den: int, r_den: int, p_max: Fraction):
    p = Fraction(1, 1) + Fraction(1, p_den)
    while p <= p_max:
        r = Fraction(-1, 1)
        while r <= p - 1:
            if classify_binomial(p, r).positive_definite:
                yield Params(p, r)
            r += Fraction(1, r_den)
        p += Fraction(1, p_den)


def run(args) -> int:
    pairs = list(grid_pairs(args.p_den, args.r_den, Fraction(args.p_max)))
    print(f"certifying {len(pairs)} parameter pairs, n_max={args.n_max}")
    worst = None  # (relative error, pair) of the worst pair with a report
    failures = []
    t0 = time.perf_counter()
    reports = []
    for params in pairs:
        try:
            report = certify_measure(params, args.n_max)
        except (DomainError, RegionError) as exc:
            print(f"  p={params.p} r={params.r}  error: {exc}")
            failures.append(params)
            continue
        reports.append(report)
        rel = max(
            (row["abs_error"] / max(abs(row["expected"]), 1.0))
            for row in report["moments"]
        )
        if worst is None or rel > worst[0]:
            worst = (rel, params)
        tag = "ok" if report["passed"] else "FAIL"
        print(
            f"  p={params.p} r={params.r}"
            f"  max_abs_err={report['max_abs_error']:.3e}  {tag}"
        )
        if not report["passed"]:
            failures.append(params)
    elapsed = time.perf_counter() - t0
    if worst is None:
        print("worst relative error: none (no pair certified)")
    else:
        print(f"worst relative error {worst[0]:.3e} at {worst[1]}")
    print(f"{len(pairs) - len(failures)}/{len(pairs)} certified in {elapsed:.1f}s")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(reports, fh, indent=2)
        print(f"full reports written to {args.json_out}")
    return 1 if failures else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=10, help="highest moment index")
    ap.add_argument("--p-den", type=int, default=2, help="denominator of the p grid")
    ap.add_argument("--r-den", type=int, default=2, help="denominator of the r grid")
    ap.add_argument("--p-max", default="4", help="largest p on the grid")
    ap.add_argument("--json-out", default=None, help="optional path for full reports")
    args = ap.parse_args()
    sys.exit(run(args))
