"""The record contract, shared by every ``core.Record`` subclass."""

import importlib
import pkgutil
from fractions import Fraction as F

import pytest

import binomoment
from binomoment import slater
from binomoment.closedform import measure_model
from binomoment.core import Params, Record, classify_binomial
from binomoment.mellin import factorize
from binomoment.quadrature import integrate
from binomoment.series import binomial_series
from binomoment.slater import build_slater_expansion
from binomoment.verify import find_negativity_witness


def _samples() -> dict:
    # one record of each class, as the library builds it
    fact = factorize(Params(F(5, 2), F(1, 2)))
    expansion = build_slater_expansion(Params(F(7, 2), F(1)))
    return {
        "Params": Params(F(5, 2), F(3)),
        "RegionVerdict": classify_binomial(F(5, 2), 1),
        "TruncatedSeries": binomial_series(2, 1, 3),
        "MeasureModel": measure_model(Params(F(3), F(-1))),
        "BetaFactor": fact.factors[0],
        "MellinFactorization": fact,
        "IntegralResult": integrate(lambda x, d: x, 2.0, 1e-14),
        "SlaterTerm": expansion.terms[0],
        "SlaterExpansion": expansion,
        "Witness": find_negativity_witness(Params(F(5, 2), F(3))),
    }


SAMPLES = _samples()


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def test_samples_cover_every_record_class():
    declared = set()
    for info in pkgutil.iter_modules(binomoment.__path__):
        module = importlib.import_module(f"binomoment.{info.name}")
        declared.update(name for name, obj in vars(module).items()
                        if isinstance(obj, type) and issubclass(obj, Record)
                        and obj is not Record and obj.__module__ == module.__name__)
    assert declared == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_contract(name):
    record = SAMPLES[name]
    cls, fields, values = type(record), record._fields, _fields(record)
    assert cls.__qualname__ == name and fields
    # equal only to a record of the same class with the same fields
    twin = type(name, (Record,), {"_fields": fields})(*values)
    assert record == cls(*values) and record != twin
    assert record.__eq__(values) is NotImplemented
    assert hash(record) == hash(values)
    assert repr(record) == f"{name}({', '.join(f'{n}={v!r}' for n, v in zip(fields, values))})"
    for field in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    # positional and keyword construction agree; a field missing, extra or
    # given twice is refused
    assert cls(*values) == cls(**dict(zip(fields, values)))
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})


def test_endpoint_coeffs_are_built_once(monkeypatch):
    calls = []
    norlund = slater._norlund_coeffs
    monkeypatch.setattr(slater, "_norlund_coeffs", lambda a, b: calls.append(1) or norlund(a, b))
    expansion = build_slater_expansion(Params(F(5, 2), F(1, 2)))
    first = expansion.endpoint_coeffs
    assert expansion.endpoint_coeffs is first and len(calls) == 1
    # the cache is no field: equality and hash see the fields alone
    assert expansion == build_slater_expansion(Params(F(5, 2), F(1, 2)))
    assert hash(expansion) == hash(_fields(expansion))
