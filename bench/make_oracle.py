"""Build the density oracle table oracle/density.json with mpmath.

    python3 bench/make_oracle.py

For every curve pair of src/binomoment/figures.json it evaluates the
paper's Meijer G form of V_{p,r} with mpmath at 30 digits, at a fixed
subsample (ORACLE_INDICES) of the figure's abscissae x_i = c*i/(points+1).
With p = k/l, c = p**p (p-1)**(1-p) and
K = (2 pi)**(-1/2) k**(r+1/2) / (sqrt(l) (k-l)**(r+1/2)):

    V(x) = (l K / x) G^{k,0}_{k,k}(x**l / c**l | a; b),
    a = {(1+j)/l}_{j<l} u {(r+1+j)/(k-l)}_{j<k-l},  b = {(r+1+j)/k}_{j<k}.

On the row r = -1 the measure is delta_0/p + ((p-1)/p) nu(p, 0), so its
density entries are (p-1)/p times the r = 0 values.  Needs mpmath, which
the timed benchmark does not import; takes about a minute.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import mpmath

BENCH_DIR = Path(__file__).resolve().parent
FIGURES = BENCH_DIR.parent / "src" / "binomoment" / "figures.json"
OUT = BENCH_DIR / "oracle" / "density.json"
DPS = 30
ORACLE_INDICES = (1, 2, 3) + tuple(range(10, 200, 10)) + (198, 199, 200)


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def meijer_density(p: Fraction, r: Fraction, x) -> mpmath.mpf:
    k, l = p.numerator, p.denominator
    pm, rm = _mp(p), _mp(r)
    c = pm**pm * (pm - 1) ** (1 - pm)
    big_k = (mpmath.mpf(k) ** (rm + 0.5)
             / (mpmath.sqrt(2 * mpmath.pi) * mpmath.sqrt(l) * mpmath.mpf(k - l) ** (rm + 0.5)))
    a = [mpmath.mpf(1 + j) / l for j in range(l)] + [(rm + 1 + j) / (k - l) for j in range(k - l)]
    b = [(rm + 1 + j) / k for j in range(k)]
    w = (x / c) ** l
    return l * big_k / x * mpmath.meijerg([[], a], [b, []], w)


def curve_values(p: Fraction, r: Fraction, points: int) -> list:
    pm = _mp(p)
    c = pm**pm * (pm - 1) ** (1 - pm)
    if r == -1:
        base, weight = Fraction(0), (p - 1) / p
    else:
        base, weight = r, Fraction(1)
    rows = []
    for i in ORACLE_INDICES:
        if i > points:
            continue
        x = c * i / (points + 1)
        rows.append([i, float(_mp(weight) * meijer_density(p, base, x))])
    return rows


def main() -> None:
    mpmath.mp.dps = DPS
    config = json.loads(FIGURES.read_text())
    curves = {}
    for fig, cfg in sorted(config.items()):
        if cfg.get("kind") == "raster":
            continue
        points = int(cfg.get("points", 200))
        curves[fig] = {
            f"{p_text},{r_text}": curve_values(Fraction(p_text), Fraction(r_text), points)
            for p_text, r_text in cfg["pairs"]
        }
        print(f"figure {fig}: {len(cfg['pairs'])} pairs", flush=True)
    # one line per pair: [[index, V], ...]
    figs = []
    for fig, pairs in curves.items():
        body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(rows)}" for key, rows in pairs.items())
        figs.append(f" {json.dumps(fig)}: {{\n{body}\n }}")
    source = f"mpmath.meijerg at mp.dps = {DPS}, built by make_oracle.py"
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(f'{{"source": {json.dumps(source)},\n"curves": {{\n'
                   + ",\n".join(figs) + "\n}}\n")


if __name__ == "__main__":
    main()
