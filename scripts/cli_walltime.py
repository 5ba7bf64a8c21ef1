"""Fresh-process wall time of each binomoment command, for one or two trees.

    python scripts/cli_walltime.py [--repeats N] [--only NAME]... SRC [SRC]

Each SRC is a ``src`` directory holding the ``binomoment`` package.  Every
command of the fixed list below runs N times in a new interpreter per
tree, the trees alternating call by call and trading places every repeat,
so both see the same drifting host.  A run is timed from the start of the
child until it has exited; its output is read through pipes until they
close, so the time is not rounded up to a wait's polling step, as a plain
``subprocess.run(..., timeout=...)`` rounds it.  One JSON object goes to
stdout: per command its argv, the median and quartile seconds per tree, and
each tree's outcome, which must agree between trees: the exit code and the
start of the SHA-256 of stdout (certify's ``runtime_seconds`` line left
out), of stderr and, for a command that writes ``{out}``, of that file.
With two trees, ``change`` is the second tree's median over the first's,
minus one: -0.5 means the second tree's command took half the time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: (name, argv): the exact commands, a usage error (exit code 1) and a
#: command's help, then those that load the numeric layer, among them a
#: certify at p = 1 (exit code 1), last three certify runs at large k (the
#: first fails with exit code 1); the "-float-r" rows give r as a float,
#: "density-p2-small-x" is the elementary p = 2 row close to x = 0 and
#: "density-p2-log-branch" that row where x^(1-r) (4-x) leaves the normal
#: range; the "-near-pole" rows take an exact r that puts a gamma argument
#: of a Slater coefficient 2e-10 from a pole, and "density-float-near-pole"
#: a float r that puts one 5e-9 from a pole, inside the float pole
#: tolerance; "{out}" is a file in a scratch directory
COMMANDS = (
    ("moments", ["moments", "--p", "3", "--r", "1", "--n", "10"]),
    ("moments-raney", ["moments", "--p", "5/2", "--r", "1/2", "--n", "40", "--raney"]),
    ("series", ["series", "--p", "3", "--r", "1", "--order", "10"]),
    ("series-float-r", ["series", "--p", "4", "--r", "0.1234567", "--order", "20", "--json"]),
    ("classify", ["classify", "--p", "3/2", "--r", "1", "--family", "binomial"]),
    ("conv-verify", ["conv-verify"]),
    ("figure-raster", ["figure", "--id", "1", "--out", "{out}"]),
    ("usage-error", ["certify", "--p", "5/2", "--r", "1/2", "--nmax", "1", "--bogus"]),
    ("certify-help", ["certify", "--help"]),
    ("certify", ["certify", "--p", "17/5", "--r", "0", "--nmax", "10"]),
    ("certify-p1", ["certify", "--p", "1", "--r", "0", "--nmax", "2"]),
    ("figure-curves", ["figure", "--id", "2", "--out", "{out}"]),
    ("sample", ["sample", "--p", "3", "--r", "0", "--count", "1000", "--seed", "1"]),
    ("witness", ["witness", "--p", "3/2", "--r", "1"]),
    ("witness-float-r", ["witness", "--p", "5/2", "--r", "3.1234567"]),
    ("density", ["density", "--p", "7/2", "--r", "1", "--x", "0.7"]),
    ("density-grid", ["density", "--p", "7/2", "--r", "1", "--grid", "0.1,5,7"]),
    ("density-p2-small-x", ["density", "--p", "2", "--r", "1", "--x", "1e-20"]),
    ("density-p2-log-branch", ["density", "--p", "2", "--r", "-1", "--x", "1e-310"]),
    ("factorize", ["factorize", "--p", "7/2", "--r", "1"]),
    ("factorize-float-r", ["factorize", "--p", "7/2", "--r", "0.1234567"]),
    ("certify-k128", ["certify", "--p", "128", "--r", "0", "--nmax", "1"]),
    ("certify-k127", ["certify", "--p", "127/2", "--r", "1", "--nmax", "10"]),
    ("certify-k100", ["certify", "--p", "100/3", "--r", "0", "--nmax", "10"]),
    ("density-near-pole", ["density", "--p", "5/2", "--r", "1/1000000000", "--x", "1"]),
    ("density-float-near-pole", ["density", "--p", "5/2", "--r", "1.499999975", "--x", "1"]),
    ("certify-near-pole", ["certify", "--p", "3", "--r", "1/1000000000", "--nmax", "10"]),
)

_ENTRY = "import sys; from binomoment.cli import main; sys.exit(main())"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_once(src: Path, argv, scratch: str):
    """(seconds, outcome) of one fresh ``binomoment argv``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = Path(scratch, "out.csv")
    writes = "{out}" in argv
    argv = [a.replace("{out}", str(out)) for a in argv]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _ENTRY, *argv], env=env, cwd=scratch,
                          capture_output=True, timeout=120)
    seconds = time.perf_counter() - t0
    stdout = b"".join(line for line in proc.stdout.splitlines(keepends=True)
                      if b'"runtime_seconds"' not in line)
    outcome = f"{proc.returncode} out={_digest(stdout)} err={_digest(proc.stderr)}"
    if writes:
        # removed once read, so no run can hash a file an earlier run wrote
        outcome += f" file={_digest(out.read_bytes())}" if out.exists() else " file=none"
        out.unlink(missing_ok=True)
    return seconds, outcome


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def measure(trees, commands, repeats: int) -> dict:
    times = {name: [[] for _ in trees] for name, _ in commands}
    outcome = {name: [set() for _ in trees] for name, _ in commands}
    with tempfile.TemporaryDirectory() as scratch:
        for rep in range(repeats):
            order = list(range(len(trees)))
            if rep % 2:
                order.reverse()
            for name, argv in commands:
                for t in order:
                    seconds, result = run_once(trees[t], argv, scratch)
                    times[name][t].append(seconds)
                    outcome[name][t].add(result)
    rows = []
    for name, argv in commands:
        seen = ["; ".join(sorted(o)) for o in outcome[name]]
        medians = [statistics.median(ts) for ts in times[name]]
        row = {
            "name": name,
            "argv": " ".join(argv),
            "median_s": [round(m, 4) for m in medians],
            "quartiles_s": [[round(q, 4) for q in _quartiles(ts)] for ts in times[name]],
            "outcome": seen,
            "same_output": len(set(seen)) == 1 and ";" not in seen[0],
        }
        if len(trees) == 2:
            row["change"] = round(medians[1] / medians[0] - 1.0, 3)
        rows.append(row)
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        "repeats": repeats,
        "trees": [str(t) for t in trees],
        "commands": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("src", nargs="+", type=Path, help="one or two src directories")
    ap.add_argument("--repeats", type=int, default=9, help="fresh runs per command and tree")
    ap.add_argument("--only", action="append", metavar="NAME",
                    help=f"run only this command (repeatable); one of: "
                         f"{', '.join(name for name, _ in COMMANDS)}")
    args = ap.parse_args(argv)
    if len(args.src) > 2:
        ap.error("give one or two src directories")
    missing = [str(s) for s in args.src if not (s / "binomoment" / "__init__.py").is_file()]
    if missing:
        ap.error(f"no binomoment package under {', '.join(missing)}")
    unknown = sorted(set(args.only or ()) - set(dict(COMMANDS)))
    if unknown:
        ap.error(f"unknown command names: {', '.join(unknown)}")
    if args.repeats < 1:
        ap.error("need --repeats >= 1")
    commands = [(name, argv) for name, argv in COMMANDS if not args.only or name in args.only]
    trees = [s.resolve() for s in args.src]
    print(json.dumps(measure(trees, commands, args.repeats), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
