"""Command-line front end.

Subcommands expose the library: moment tables, generating-series dumps,
density tables, positive-definiteness classification, Mellin
factorization and sampling, the convolution identity suite, moment
certification, negativity witnesses, and figure-data emission.

Importing this module loads the exact layer (``core``, ``series``,
``freeconv``) and ``argparse``, and neither numpy, ``json`` nor
``dataclasses``, so ``moments``, ``series``, ``classify``, ``conv-verify``
and the raster figure start without numpy.  A command loads what only it
needs when it runs: the numeric layer for the commands that evaluate,
sample or integrate the density, ``json`` for ``series --json`` and
``certify``, and the ``figure`` module for ``figure``.

One parser of all ten commands, built from the table ``_COMMANDS`` on the
first call of ``main``, serves every later call in the process.

Exit codes: 0 success, 1 domain or region errors (including usage), 2
verification failure, 3 inconclusive witness search.  Exact values print
as integers or fractions, floats with 17 significant digits, so output
is byte-identical across platforms for a fixed argument vector.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
from types import SimpleNamespace
from typing import Optional, Sequence, Tuple

from .core import (
    DomainError,
    InconclusiveWitnessError,
    Params,
    RegionError,
    classify_binomial,
    classify_raney,
    gen_binomial,
    is_exact,
    parse_scalar,
    raney_number,
    support_endpoint,
)
from .freeconv import identity_suite
from .series import binomial_series

__all__ = ["main"]


def _to_float(value, what: str) -> float:
    # an exact scalar parses at any size; float() overflows past 1.8e308
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} is outside the float range") from None


def _fmt(x) -> str:
    if is_exact(x):
        return str(x)
    return f"{float(x):.17g}"


def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _numeric() -> SimpleNamespace:
    """The numeric layer: ``closedform``, ``mellin`` and ``verify``, and numpy
    with them, imported on a numeric command's first call.

    The three load as one unit, so every numeric command imports the same
    modules, whichever of them it calls.
    """
    from . import closedform, mellin, verify

    return SimpleNamespace(closedform=closedform, mellin=mellin, verify=verify)


# -- subcommand handlers -------------------------------------------------------


def _cmd_moments(args) -> int:
    if args.n < 0:
        raise DomainError("need --n >= 0")
    number = raney_number if args.raney else gen_binomial
    values = [number(args.p, args.r, n) for n in range(args.n + 1)]
    print(" ".join(_fmt(v) for v in values))
    return 0


def _cmd_series(args) -> int:
    if args.order < 0:
        raise DomainError("need --order >= 0")
    ts = binomial_series(args.p, args.r, args.order)
    if args.json:
        import json

        print(json.dumps(ts.to_json_dict()))
    else:
        print(" ".join(_fmt(c) for c in ts.coeffs))
    return 0


def _cmd_density(args) -> int:
    params = Params(args.p, args.r)
    evaluate = _numeric().closedform.density_function(params)
    upper = float(support_endpoint(params.p))
    if args.x is not None:
        print(_fmt_float(evaluate([_to_float(args.x, "--x")])[0]))
        return 0
    a, b, count = args.grid
    if not 0.0 < a <= b < upper:
        raise DomainError(f"grid must lie inside (0, {upper})")
    xs = [a + (b - a) * i / (count - 1) if count > 1 else a for i in range(count)]
    for x, v in zip(xs, evaluate(xs)):
        print(f"{_fmt_float(x)} {_fmt_float(v)}")
    return 0


def _cmd_classify(args) -> int:
    classify = classify_binomial if args.family == "binomial" else classify_raney
    verdict = classify(args.p, args.r)
    status = "positive definite" if verdict.positive_definite else "NOT positive definite"
    print(f"{status} ({verdict.branch.value})")
    return 0


def _cmd_factorize(args) -> int:
    fact = _numeric().mellin.factorize(Params(args.p, args.r))
    for factor in fact.factors:
        print(f"factor {_fmt_float(factor.u)} {_fmt_float(factor.v)} {factor.l}")
    print(f"dilation {_fmt_float(float(fact.dilation))}")
    return 0


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise DomainError("need --count >= 1")
    mellin = _numeric().mellin
    fact = mellin.factorize(Params(args.p, args.r))
    draws = mellin.sample(fact, args.count, args.seed)
    if args.binary:
        sys.stdout.buffer.write(memoryview(draws.astype("<f8", copy=False)))
        sys.stdout.buffer.flush()
    else:
        sys.stdout.write("\n".join(_fmt_float(v) for v in draws) + "\n")
    return 0


def _cmd_conv_verify(args) -> int:
    checks = identity_suite()
    if args.id is not None:
        chosen = [c for c in checks if c.name == args.id]
        if not chosen:
            known = ", ".join(c.name for c in checks)
            raise DomainError(f"unknown identity id {args.id!r}; known ids: {known}")
        checks = chosen
    all_pass = True
    for check in checks:
        passed = check.run()
        all_pass &= passed
        print(f"{check.name} {'PASS' if passed else 'FAIL'}")
    return 0 if all_pass else 2


def _cmd_certify(args) -> int:
    import json

    report = _numeric().verify.certify_measure(Params(args.p, args.r), args.nmax)
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 2


def _cmd_witness(args) -> int:
    w = _numeric().verify.find_negativity_witness(Params(args.p, args.r))
    loc = str(w.location) if isinstance(w.location, int) else _fmt_float(w.location)
    print(f"{w.kind} location={loc} value={_fmt_float(w.value)}")
    return 0


def _cmd_figure(args) -> int:
    from .figure import write_figure

    return write_figure(args)


# -- parser --------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route usage problems to
    # exit code 1 instead, keeping 2 for verification failures
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        # let values like -1/2 pass as arguments, not unknown options
        self._negative_number_matcher = re.compile(
            r"^-(\d+(/\d+)?|\d*\.\d+([eE][+-]?\d+)?|\d+[eE][+-]?\d+)$"
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


_SCALAR_HELP = (
    "integers, fractions like 7/2, and decimals; decimals with at most "
    "6 fractional digits parse as exact rationals, longer ones as floats"
)


def _grid_spec(text: str) -> Tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("grid must be a,b,count")
    a, b = (_to_float(parse_scalar(part), "grid bound") for part in parts[:2])
    count = int(parts[2])
    if count < 1:
        raise ValueError("grid count must be >= 1")
    return a, b, count


def _add_pr(sub, r_required: bool = True):
    sub.add_argument("--p", type=parse_scalar, required=True,
                     help=f"first parameter; accepts {_SCALAR_HELP}")
    sub.add_argument("--r", type=parse_scalar, required=r_required,
                     help="second parameter; same syntax as --p")


def _moments_args(sp):
    _add_pr(sp)
    sp.add_argument("--n", type=int, required=True, help="largest moment index")
    sp.add_argument("--raney", action="store_true",
                    help="Raney sequence instead of the binomial one")


def _series_args(sp):
    _add_pr(sp)
    sp.add_argument("--order", type=int, required=True, help="truncation order")
    sp.add_argument("--json", action="store_true", help="emit the JSON schema")


def _density_args(sp):
    _add_pr(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--x", type=parse_scalar, help="single abscissa")
    group.add_argument("--grid", type=_grid_spec, metavar="A,B,COUNT",
                       help="evenly spaced abscissae from A to B")


def _classify_args(sp):
    _add_pr(sp)
    sp.add_argument("--family", choices=("binomial", "raney"), required=True)


def _sample_args(sp):
    _add_pr(sp)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--binary", action="store_true",
                    help="raw little-endian float64 to stdout")


def _conv_verify_args(sp):
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true",
                       help="run every identity (the default)")
    group.add_argument("--id", help="run a single identity by name")


def _certify_args(sp):
    _add_pr(sp)
    sp.add_argument("--nmax", type=int, required=True)


def _figure_args(sp):
    sp.add_argument("--id", type=int, required=True, help="figure number")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--params", help="JSON config overriding the bundled one")


#: name -> (help, handler, add-arguments) of each command, in help order
_COMMANDS = {
    "moments": ("print the moment sequence up to n", _cmd_moments, _moments_args),
    "series": ("dump generating-series coefficients", _cmd_series, _series_args),
    "density": ("evaluate the density function", _cmd_density, _density_args),
    "classify": ("positive-definiteness verdict", _cmd_classify, _classify_args),
    "factorize": ("Mellin beta factorization", _cmd_factorize, _add_pr),
    "sample": ("draw samples of the measure", _cmd_sample, _sample_args),
    "conv-verify": ("run the convolution identity suite", _cmd_conv_verify, _conv_verify_args),
    "certify": ("certify moments against the density", _cmd_certify, _certify_args),
    "witness": ("search for a negativity certificate", _cmd_witness, _add_pr),
    "figure": ("emit figure data as CSV", _cmd_figure, _figure_args),
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of every command, with the command's handler as ``handler``."""
    parser = _Parser(
        prog="binomoment",
        description="Measures with generalized binomial and Raney moments.",
        epilog=f"Scalar flags accept {_SCALAR_HELP}.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, handler, add_arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        add_arguments(command)
        command.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except (_UsageError, DomainError, RegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InconclusiveWitnessError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
