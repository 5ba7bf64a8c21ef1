"""Figure data as CSV: the ``figure`` command of the command line.

A figure is one entry of a JSON config, the bundled ``figures.json`` or a
``--params`` file: a raster of the positive-definiteness verdict over a
(p, r) grid, or density curves at listed (p, r) pairs.  Only ``figure``
imports this module.  The raster is exact and imports no numpy; the curves
take the numeric layer from ``cli._numeric``.
"""
from __future__ import annotations

import csv
import importlib.resources
import json
import os
import stat
from bisect import bisect_left, bisect_right
from typing import Iterator, Optional

from .cli import _fmt_float, _numeric
from .core import (
    Branch,
    DomainError,
    Params,
    binomial_band,
    comparable,
    parse_scalar,
    support_endpoint,
)

__all__ = ["write_figure"]


def _load_figure_config(path: Optional[str]) -> dict:
    if path is None:
        text = importlib.resources.files("binomoment").joinpath("figures.json").read_text()
        return json.loads(text)
    try:
        with open(path) as fh:
            config = json.load(fh)
    # ValueError covers malformed JSON and undecodable bytes
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read figure config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise DomainError(f"figure config {path} must hold a JSON object")
    return config


def _config_scalar(text, what: str):
    if not isinstance(text, str):
        raise DomainError(f"figure config: {what} must be a string such as \"7/2\", got {text!r}")
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise DomainError(f"figure config: bad {what} {text!r}: {exc}") from exc


def _raster_rows(cfg: dict) -> Iterator[list]:
    # the entry is checked here; the rows are computed as they are written
    keys = ("p_min", "p_max", "r_min", "r_max", "step")
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise DomainError(f"figure config: raster entry lacks {', '.join(missing)}")
    p_min, p_max, r_min, r_max, step = (_config_scalar(cfg[key], key) for key in keys)
    if not step > 0:
        raise DomainError("raster step must be positive")
    try:
        p_count = int((p_max - p_min) / step) + 1
        r_count = int((r_max - r_min) / step) + 1
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"figure config: raster bounds must be finite: {exc}") from exc

    def axis(start, count):
        # (text, comparable value) of each grid line, made once per line
        # rather than once per cell
        return [(f"{float(x):g}", comparable(x)) for x in (start + i * step for i in range(count))]

    def rows():
        yield ["p", "r", "verdict"]
        columns = axis(r_min, r_count)
        keys = [rc for _, rc in columns]  # ascending, as r_min + i * step is
        outside = Branch.OUTSIDE.value
        for p_text, pc in axis(p_min, p_count):
            # the region meets a grid line in one band of r: two bisections
            # find it, in place of a comparison per cell
            verdicts = [outside] * r_count
            band = binomial_band(pc)
            if band is not None:
                verdict, r_lo, r_hi = band
                lo, hi = bisect_left(keys, r_lo), bisect_right(keys, r_hi)
                verdicts[lo:hi] = [verdict.branch.value] * (hi - lo)
            for (r_text, _), value in zip(columns, verdicts):
                yield [p_text, r_text, value]

    return rows()


def _curve_rows(cfg: dict) -> Iterator[list]:
    # the entry is checked here; the rows are computed as they are written
    try:
        points = int(cfg.get("points", 200))
    except (TypeError, ValueError) as exc:
        raise DomainError(f"figure config: bad points {cfg.get('points')!r}") from exc
    if points < 2:
        raise DomainError("curve grids need at least 2 points")
    pairs = cfg.get("pairs")
    if not isinstance(pairs, list):
        raise DomainError("figure config: curves entry needs a list of pairs")
    numeric = _numeric()
    density_function = numeric.closedform.density_function
    curves = []
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise DomainError(f"figure config: pair {pair!r} is not [p, r]")
        p_text, r_text = pair
        params = Params(_config_scalar(p_text, "p"), _config_scalar(r_text, "r"))
        curves.append((p_text, r_text, params, density_function(params)))

    def rows():
        yield ["p", "r", "x", "V", "has_negative"]
        for p_text, r_text, params, evaluate in curves:
            upper = float(support_endpoint(params.p))
            xs = [upper * i / (points + 1) for i in range(1, points + 1)]
            # the grid plus the witness scan's log sweep in one call; the
            # sweep only sets the flag, at the witness threshold
            values = evaluate(xs + numeric.verify.scan_abscissae(upper)).tolist()
            flag = 1 if min(values) < -numeric.verify.WITNESS_TOL else 0
            for x, v in zip(xs, values):
                yield [p_text, r_text, _fmt_float(x), _fmt_float(v), flag]

    return rows()


def write_figure(args) -> int:
    """Write figure ``args.id`` of the config to ``args.out``; exit code 0."""
    config = _load_figure_config(args.params)
    key = str(args.id)
    if key not in config:
        raise DomainError(f"no figure with id {args.id}; known ids: {sorted(config)}")
    cfg = config[key]
    if not isinstance(cfg, dict):
        raise DomainError(f"figure config: entry {key} must be a JSON object")
    rows = _raster_rows(cfg) if cfg.get("kind") == "raster" else _curve_rows(cfg)
    try:
        fh = open(args.out, "w", newline="")
    except OSError as exc:
        raise DomainError(f"cannot write {args.out}: {exc}") from exc
    try:
        with fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    except BaseException:
        # a curve that fails leaves no truncated file; a link, device or
        # pipe that --out names is left as it is
        if stat.S_ISREG(os.lstat(args.out).st_mode):
            os.remove(args.out)
        raise
    return 0
