"""Measures with generalized binomial and Raney moment sequences.

Library layout:

- ``core``       scalars, parameters, binomial/Raney numbers, region classifiers
- ``series``     exact truncated power series and the generating functions
- ``slater``     binomial and Raney density expansions and pointwise evaluation
- ``closedform`` elementary closed-form densities and assembled measure models
- ``mellin``     beta-factor Mellin factorizations and sampling
- ``freeconv``   moment-series transforms and convolution identities
- ``verify``     quadrature, moment certification, negativity witnesses
- ``cli``        command-line interface
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
    hankel2_binomial,
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
    "hankel2_binomial",
    "is_exact",
    "parse_scalar",
    "raney_number",
    "support_endpoint",
    "__version__",
]
