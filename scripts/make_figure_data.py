"""Regenerate every bundled figure dataset as CSV.

Writes region_raster.csv plus one density-curve file per bundled curve
figure into the chosen output directory.  The files are plain CSV so any
plotting frontend can consume them; nothing here depends on matplotlib.
"""

import argparse
import pathlib
import sys

from binomoment.cli import main as cli_main

FIGURE_FILES = {
    1: "region_raster.csv",
    2: "curves_r0.csv",
    3: "curves_p32.csv",
    4: "curves_p53.csv",
    5: "curves_p72.csv",
    6: "curves_rm32.csv",
}


def run(out_dir: pathlib.Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for fig_id, name in FIGURE_FILES.items():
        target = out_dir / name
        code = cli_main(["figure", "--id", str(fig_id), "--out", str(target)])
        if code != 0:
            print(f"figure {fig_id} failed with exit code {code}", file=sys.stderr)
            return code
        with target.open() as fh:
            n_rows = sum(1 for _ in fh) - 1
        print(f"figure {fig_id}: wrote {n_rows} rows to {target}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--out-dir",
        type=pathlib.Path,
        default=pathlib.Path("figure_data"),
        help="directory for the CSV files (default: ./figure_data)",
    )
    args = ap.parse_args()
    sys.exit(run(args.out_dir))
