"""Independent oracles and output checks for the benchmark.

Nothing here imports ``binomoment``.  Every expected value is computed
from the paper's formulas with the standard library (exact ``Fraction``
products, ``math.comb``) or read from the mpmath Meijer G table that
``make_oracle.py`` builds.  Each check returns a list of problems; an
empty list means the output passed.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Dict, List, Sequence

#: certify acceptance: |quadrature + atom - m_n| <= CERTIFY_TOL * max(1, |m_n|)
CERTIFY_TOL = 1e-7
#: density values against the 30-digit Meijer G table, relative to max(1, |V|)
DENSITY_TOL = 1e-11
#: empirical sample moments must lie within this many standard errors
SAMPLE_Z = 6.0


def frac(text) -> Fraction:
    return Fraction(str(text))


def binom(p: Fraction, r: Fraction, n: int) -> Fraction:
    """C(n*p + r, n): math.comb for integer p and r, else an exact product."""
    top = n * p + r
    if p.denominator == 1 and r.denominator == 1 and top >= n:
        return Fraction(math.comb(int(top), n))
    acc = Fraction(1)
    for j in range(1, n + 1):
        acc = acc * (top - n + j) / j
    return acc


def region_label(p: Fraction, r: Fraction) -> str:
    """The paper's positive-definiteness rule for C(n*p + r, n)."""
    if p >= 1 and -1 <= r <= p - 1:
        return "MainBranch"
    if p <= 0 and p - 1 <= r <= 0:
        return "ReflectedBranch"
    return "Outside"


def in_region(p: Fraction, r: Fraction) -> bool:
    return region_label(p, r) != "Outside"


def support_upper(p: Fraction) -> float:
    """c = p**p * (p-1)**(1-p), through logarithms."""
    pf = float(p)
    return math.exp(pf * math.log(pf) + (1.0 - pf) * math.log(pf - 1.0))


# -- certify ----------------------------------------------------------------


def check_certify(report: dict, p: Fraction, r: Fraction, n_max: int) -> List[str]:
    """Every moment row against C(n*p + r, n); runtime_seconds is ignored."""
    bad = []
    rows = report.get("moments", [])
    if [row.get("n") for row in rows] != list(range(n_max + 1)):
        return [f"certify {p},{r}: moment rows are not n = 0..{n_max}"]
    atom_mass = float(1 / p) if r == -1 else 0.0
    for row in rows:
        n = row["n"]
        exact = binom(p, r, n)
        atom = row["atom"] if n == 0 else 0.0
        if n == 0 and not math.isclose(atom, atom_mass, rel_tol=1e-15, abs_tol=0.0):
            bad.append(f"certify {p},{r}: atom {atom!r}, expected {atom_mass!r}")
        elif n > 0 and row["atom"] != 0.0:
            bad.append(f"certify {p},{r}: atom at n={n}")
        err = abs(Fraction(row["quadrature"]) + Fraction(atom) - exact)
        if not err <= CERTIFY_TOL * max(1, abs(exact)):
            bad.append(f"certify {p},{r}: n={n} misses by {float(err):.3e}")
    if report.get("passed") is not True:
        bad.append(f"certify {p},{r}: report says passed={report.get('passed')!r}")
    return bad


# -- figures ----------------------------------------------------------------


def raster_cells(cfg: dict) -> List[tuple]:
    """(p, r) grid of a raster figure, exact, in the program's row order."""
    p_min, p_max = frac(cfg["p_min"]), frac(cfg["p_max"])
    r_min, r_max = frac(cfg["r_min"]), frac(cfg["r_max"])
    step = frac(cfg["step"])
    p_count = math.floor((p_max - p_min) / step) + 1
    r_count = math.floor((r_max - r_min) / step) + 1
    return [(p_min + i * step, r_min + j * step)
            for i in range(p_count) for j in range(r_count)]


def check_raster(text: str, cells: Sequence[tuple]) -> List[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["p", "r", "verdict"]:
        return ["raster: bad header"]
    body = rows[1:]
    if len(body) != len(cells):
        return [f"raster: {len(body)} rows, expected {len(cells)}"]
    bad = []
    for (p, r), row in zip(cells, body):
        if Fraction(row[0]) != p or Fraction(row[1]) != r:
            bad.append(f"raster: row {row} is not cell ({p}, {r})")
        elif row[2] != region_label(p, r):
            bad.append(f"raster: ({p}, {r}) says {row[2]}, rule says {region_label(p, r)}")
        if len(bad) >= 5:
            break
    return bad


def check_curves(text: str, cfg: dict, oracle: Dict[str, list]) -> List[str]:
    """Curve rows of one figure: abscissae, oracle values, signs, flags.

    ``oracle`` maps "p,r" to [index, V] pairs from the Meijer G table.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["p", "r", "x", "V", "has_negative"]:
        return ["curves: bad header"]
    points = int(cfg.get("points", 200))
    pairs = cfg["pairs"]
    body = rows[1:]
    if len(body) != points * len(pairs):
        return [f"curves: {len(body)} rows, expected {points * len(pairs)}"]
    bad = []
    for k, (p_text, r_text) in enumerate(pairs):
        p, r = frac(p_text), frac(r_text)
        block = body[k * points:(k + 1) * points]
        key = f"{p_text},{r_text}"
        c = support_upper(p)
        inside = in_region(p, r)
        values = []
        for i, row in enumerate(block, start=1):
            if row[0] != p_text or row[1] != r_text:
                bad.append(f"curves {key}: row {i} labelled {row[0]},{row[1]}")
                break
            x = float(row[2])
            if not math.isclose(x, c * i / (points + 1), rel_tol=1e-13):
                bad.append(f"curves {key}: x[{i}] = {x!r}")
                break
            values.append(float(row[3]))
            if row[4] != ("0" if inside else "1"):
                bad.append(f"curves {key}: has_negative={row[4]}, pair is "
                           f"{'inside' if inside else 'outside'} the region")
                break
        else:
            if inside and min(values) < 0.0:
                bad.append(f"curves {key}: in-region density takes {min(values)!r}")
            table = oracle.get(key)
            if not table:
                bad.append(f"curves {key}: no oracle entries")
                continue
            for i, want in table:
                got = values[i - 1]
                if not abs(got - want) <= DENSITY_TOL * max(1.0, abs(want)):
                    bad.append(f"curves {key}: V[{i}] = {got!r}, oracle {want!r}")
                    break
    return bad


# -- exact identities and rows ------------------------------------------------


def check_identity_lines(text: str, names: Sequence[str]) -> List[str]:
    lines = text.split("\n")
    want = [f"{name} PASS" for name in names] + [""]
    if lines != want:
        return [f"conv-verify printed {lines!r}"]
    return []


def check_identity_results(results: Sequence[tuple]) -> List[str]:
    return [f"identity {name} at order {order} failed"
            for name, order, passed in results if passed is not True]


def check_moment_row(text: str, p: Fraction, r: Fraction, n: int) -> List[str]:
    got = [Fraction(t) for t in text.split()]
    want = [binom(p, r, m) for m in range(n + 1)]
    if got != want:
        return [f"moments {p},{r}: row differs from C(np+r, n) "
                f"at n={_first_difference(got, want)}"]
    return []


def check_series_json(text: str, p: Fraction, r: Fraction, order: int) -> List[str]:
    d = json.loads(text)
    if d.get("order") != order:
        return [f"series {p},{r}: order {d.get('order')!r}"]
    got = [Fraction(int(c["num"]), int(c["den"])) for c in d["coeffs"]]
    want = [binom(p, r, m) for m in range(order + 1)]
    if got != want:
        return [f"series {p},{r}: coefficients differ from C(np+r, n) "
                f"at n={_first_difference(got, want)}"]
    return []


def _first_difference(a, b) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


# -- samples ------------------------------------------------------------------


def check_draws(draws, p: Fraction, r: Fraction, count: int) -> List[str]:
    """Draws lie in [0, c]; moments 1..3 within SAMPLE_Z standard errors.

    ``draws`` is a float64 numpy array.  The standard error of the n-th
    empirical moment is sqrt((m_2n - m_n**2) / count) with exact m.
    """
    import numpy as np

    if draws.shape != (count,):
        return [f"sample {p},{r}: {draws.shape[0]} draws, expected {count}"]
    bad = []
    c = support_upper(p)
    lo, hi = float(draws.min()), float(draws.max())
    if not (np.isfinite(draws).all() and lo >= 0.0 and hi <= c * (1.0 + 1e-13)):
        bad.append(f"sample {p},{r}: draws span [{lo!r}, {hi!r}], support [0, {c!r}]")
        return bad
    for n in (1, 2, 3):
        m_n = float(binom(p, r, n))
        var = float(binom(p, r, 2 * n)) - m_n * m_n
        emp = float(np.mean(draws ** n))
        z = abs(emp - m_n) / math.sqrt(var / count)
        if not z <= SAMPLE_Z:
            bad.append(f"sample {p},{r}: moment {n} is {emp!r}, exact {m_n!r} (z={z:.1f})")
    return bad
