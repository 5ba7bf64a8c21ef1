"""The benchmark's workloads: fixed rounds of calls into binomoment.

Each workload is a list of operations.  An operation runs one public
entry point (``binomoment.cli.main`` with stdout captured, or a library
call where the command line has no matching knob) and is timed; its
check runs afterwards, untimed, against the oracles in ``checks``.
Every round runs the same operations; the seed only fixes their order
and the sampler seeds.  There are two workloads: ``certify-grid``
(quadrature over densities near the endpoints) and
``figures-identities-draws``, which joins the figure curves, the exact
identities and the sampler, none of which runs a quadrature.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import checks

#: (p, r) pairs certified with n_max = CERTIFY_NMAX: the atom row r = -1,
#: an interior r, r = -9/10, r = p-1, a pair with k >= 17, an elementary row
CERTIFY_PAIRS = (("5/3", "-1"), ("5/2", "1/2"), ("7/2", "-9/10"),
                 ("11/3", "8/3"), ("17/5", "0"), ("3", "1"))
CERTIFY_NMAX = 10
CURVE_FIGURES = (2, 3, 4, 5, 6)
RASTER_FIGURE = 1
SUITE_ORDER = 20
#: (command, p, r, length): moment rows and generating-series rows
EXACT_ROWS = (("moments", "3", "1", 300), ("moments", "7/2", "-1/2", 200),
              ("series", "4", "2", 300), ("series", "5/3", "1/3", 200))
SAMPLE_PAIRS = (("3", "0"), ("7/2", "1"), ("5/2", "-1/2"), ("17/5", "0"))
SAMPLE_COUNT = 1_000_000


@dataclass
class Op:
    name: str
    call: Callable[[], object]  # timed; raises or returns the output
    check: Callable[[object], List[str]]  # untimed; problems found
    units: int  # work units one call completes
    rate: str  # name of the rate those units count toward


class CommandFailed(RuntimeError):
    pass


def run_cli(argv) -> bytes:
    """binomoment.cli.main(argv) in-process; stdout bytes, nonzero exit raises."""
    from binomoment import cli

    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="")
    saved = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(list(argv))
        out.flush()
    finally:
        sys.stdout = saved
    if code != 0:
        raise CommandFailed(f"binomoment {' '.join(argv)} exited {code}")
    return raw.getvalue()


def _figure_config(root: Path) -> dict:
    return json.loads((root / "src" / "binomoment" / "figures.json").read_text())


def _oracle(bench_dir: Path) -> dict:
    return json.loads((bench_dir / "oracle" / "density.json").read_text())["curves"]


def certify_grid(ctx) -> List[Op]:
    ops = []
    for p_text, r_text in CERTIFY_PAIRS:
        p, r = checks.frac(p_text), checks.frac(r_text)
        argv = ("certify", "--p", p_text, "--r", r_text, "--nmax", str(CERTIFY_NMAX))
        ops.append(Op(
            f"certify {p_text},{r_text}",
            lambda argv=argv: run_cli(argv),
            lambda out, p=p, r=r: checks.check_certify(json.loads(out), p, r, CERTIFY_NMAX),
            CERTIFY_NMAX + 1, "certify_moments_per_s",
        ))
    return ops


def _figure_op(ctx, fig: int, check, units: int, rate: str) -> Op:
    path = ctx.out_dir / f"figure-{fig}.csv"
    argv = ("figure", "--id", str(fig), "--out", str(path))

    def call():
        run_cli(argv)
        return path

    return Op(f"figure {fig}", call, lambda p: check(p.read_text()), units, rate)


def figure_curves(ctx) -> List[Op]:
    config = _figure_config(ctx.root)
    oracle = _oracle(ctx.bench_dir)
    cells = checks.raster_cells(config[str(RASTER_FIGURE)])
    ops = [_figure_op(ctx, RASTER_FIGURE, lambda text: checks.check_raster(text, cells),
                      len(cells), "raster_cells_per_s")]
    for fig in CURVE_FIGURES:
        cfg = config[str(fig)]
        ops.append(_figure_op(
            ctx, fig,
            lambda text, cfg=cfg, fig=fig: checks.check_curves(text, cfg, oracle.get(str(fig), {})),
            int(cfg.get("points", 200)) * len(cfg["pairs"]), "density_points_per_s"))
    return ops


def exact_identities(ctx) -> List[Op]:
    from binomoment import freeconv

    names = [c.name for c in freeconv.identity_suite()]

    def suite():
        return [(c.name, SUITE_ORDER, c.run()) for c in freeconv.identity_suite(SUITE_ORDER)]

    ops = [
        Op("conv-verify --all", lambda: run_cli(("conv-verify", "--all")),
           lambda out: checks.check_identity_lines(out.decode(), names), len(names),
           "identity_checks_per_s"),
        Op(f"identity_suite({SUITE_ORDER})", suite, checks.check_identity_results,
           len(names), "identity_checks_per_s"),
    ]
    for command, p_text, r_text, length in EXACT_ROWS:
        p, r = checks.frac(p_text), checks.frac(r_text)
        if command == "moments":
            argv = ("moments", "--p", p_text, "--r", r_text, "--n", str(length))
            check = lambda out, p=p, r=r, n=length: checks.check_moment_row(out.decode(), p, r, n)
        else:
            argv = ("series", "--p", p_text, "--r", r_text, "--order", str(length), "--json")
            check = lambda out, p=p, r=r, n=length: checks.check_series_json(out.decode(), p, r, n)
        ops.append(Op(" ".join(argv[:5]), lambda argv=argv: run_cli(argv), check, length + 1,
                      "moment_terms_per_s"))
    return ops


def sample_draws(ctx) -> List[Op]:
    import numpy as np

    ops = []
    for i, (p_text, r_text) in enumerate(SAMPLE_PAIRS):
        p, r = checks.frac(p_text), checks.frac(r_text)
        argv = ("sample", "--p", p_text, "--r", r_text, "--count", str(SAMPLE_COUNT),
                "--seed", str(ctx.seed * 10 + i), "--binary")
        first_digest = []

        def check(out, p=p, r=r, first_digest=first_digest):
            digest = hashlib.sha256(out).hexdigest()
            if not first_digest:
                first_digest.append(digest)
                draws = np.frombuffer(out, dtype="<f8")
                return checks.check_draws(draws, p, r, SAMPLE_COUNT)
            if digest != first_digest[0]:
                return [f"sample {p},{r}: same seed gave different bytes"]
            return []

        ops.append(Op(f"sample {p_text},{r_text}", lambda argv=argv: run_cli(argv), check,
                      SAMPLE_COUNT, "draws_per_s"))
    return ops


def figures_identities_draws(ctx) -> List[Op]:
    """Every layer that certify-grid leaves alone, in one round."""
    return figure_curves(ctx) + exact_identities(ctx) + sample_draws(ctx)


WORKLOADS = {
    "certify-grid": certify_grid,
    "figures-identities-draws": figures_identities_draws,
}


def build(name: str, ctx) -> List[Op]:
    ops = WORKLOADS[name](ctx)
    random.Random(ctx.seed).shuffle(ops)
    return ops
