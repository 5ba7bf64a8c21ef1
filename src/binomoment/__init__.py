"""Measures with generalized binomial and Raney moment sequences.

Library layout.  The exact layer is exact on rational inputs and imports no
numpy:

- ``core``       scalars, parameters, binomial/Raney numbers, region classifiers,
                 the real gamma function and its pole test
- ``series``     exact truncated power series and the generating functions
- ``freeconv``   moment-series transforms and convolution identities

The numeric layer evaluates, integrates and samples the densities, in
floats and numpy arrays:

- ``slater``     the binomial density expansion; one array kernel sums its series
                 at many points at once, Norlund's series near the endpoint
- ``closedform`` elementary densities (p = 2, and a table of six algebraic rows),
                 the choice between them and the expansion, and measure models
- ``mellin``     gamma-quotient symbol, beta-factor Mellin factorizations, sampling
- ``quadrature`` tanh-sinh quadrature over arrays of nodes
- ``verify``     moment certification, negativity witnesses

- ``cli``        command-line interface; it imports the exact layer, and the
                 numeric layer only when a command that needs it runs
- ``figure``     the ``figure`` command's CSV writer, imported only by it

Every record of both layers (parameters, region verdicts, series, density
expansions, measure models, factorizations, integrals, witnesses) is a
``core.Record``, declared by its field names.  ``freeconv.IdentityCheck``
alone is a frozen dataclass, built on first use, so that
``dataclasses.replace`` can swap the checker of an identity.
"""
from .core import (
    Branch,
    DomainError,
    GammaPoleError,
    Params,
    RegionError,
    RegionVerdict,
    Scalar,
    as_scalar,
    classify_binomial,
    classify_raney,
    gamma_real,
    gen_binomial,
    is_exact,
    parse_scalar,
    raney_number,
    support_endpoint,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "DomainError",
    "GammaPoleError",
    "Params",
    "RegionError",
    "RegionVerdict",
    "Scalar",
    "as_scalar",
    "classify_binomial",
    "classify_raney",
    "gamma_real",
    "gen_binomial",
    "is_exact",
    "parse_scalar",
    "raney_number",
    "support_endpoint",
]
