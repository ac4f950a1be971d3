"""Every record type is a named tuple that keeps the contract of the frozen
dataclass it replaced: the same repr, pickling (a forked worker sends its
rows back pickled), copying, hashing and, for validated records, the same
error on every way an instance is built."""

import copy
import pickle
from fractions import Fraction

import pytest

from quadcf import (
    AlgInt,
    CFExpansion,
    Cylinder,
    DeviationRow,
    Factorization,
    GaussMeasure,
    HeckeChain,
    IndefForm,
    Mat2,
    OrderRecord,
    OrderSpec,
    Pattern,
    ScanConfig,
    Surd,
    TotalLength,
    field_data,
)
from quadcf.cli import _ScanCommand

X = Surd(1, 2, 5)
F5 = field_data(5)
F5_REPR = ("FieldData(m=5, D=5, xD=Surd((1+sqrt(5))/2), t=1, nrm=-1, "
           "epsD=AlgInt(a=0, b=1), regD=0.4812118250596029, unit_norm=-1)")

# each record with the repr its frozen dataclass printed, byte for byte
RECORDS = [
    (AlgInt(1, 2), "AlgInt(a=1, b=2)"),
    (F5, F5_REPR),
    (Mat2(1, 1, 1, 0), "Mat2(a=1, b=1, c=1, d=0)"),
    (GaussMeasure(Fraction(4, 3)), "GaussMeasure(ratio=Fraction(4, 3))"),
    (TotalLength(5, 1, 0.5, 0.5, 0.25),
     "TotalLength(disc=5, h=1, reg=0.5, total_length=0.5, exponent=0.25)"),
    (DeviationRow(7, True, 4, "1-2", 1, 4, 0.25, 0.0, 8, 0.5),
     "DeviationRow(N=7, is_prime=True, period_length=4, pattern='1-2', freq_num=1, "
     "freq_den=4, c_w=0.25, deviation=0.0, disc=8, reg_disc_exponent=0.5)"),
    (ScanConfig(), "ScanConfig(p=0, r=1, d=2, q=1, patterns=((1,),), sequence='integers', "
                   "bound=100, coprime_filter=0, workers=1)"),
    (_ScanCommand({}, len, int, abs, len),
     "_ScanCommand(settings={}, scan=<built-in function len>, row_type=<class 'int'>, "
     "stats=<built-in function abs>, summary_lines=<built-in function len>)"),
    (Factorization(50, ((2, 1), (5, 2))), "Factorization(n=50, factors=((2, 1), (5, 2)))"),
    (X, "Surd((1+sqrt(5))/2)"),
    (CFExpansion((1,), (2,)), "CFExpansion(preperiod=(1,), period=(2,))"),
    (Cylinder(Fraction(1, 2), Fraction(1)), "Cylinder(low=Fraction(1, 2), high=Fraction(1, 1))"),
    (OrderSpec(F5, 3), f"OrderSpec(field={F5_REPR}, f=3)"),
    (OrderRecord(5, 5, 1.0, "ramified", None),
     "OrderRecord(N=5, ord=5, exponent=1.0, split_type='ramified', is_max=None)"),
    (Pattern((1, 2)), "Pattern(digits=(1, 2))"),
    (HeckeChain((X, Surd(2, 4, 20)), ((2, "down"),)),
     "HeckeChain(nodes=(Surd((1+sqrt(5))/2), Surd((2+sqrt(20))/4)), steps=((2, 'down'),))"),
]

# each validated record, a field change that breaks it, and the message
INVALID = [
    (X, dict(Q=3), "Q=3 does not divide D-P^2=4"),
    (CFExpansion((1,), (2,)), dict(period=()), "period must be nonempty"),
    (Cylinder(Fraction(1, 2), Fraction(1)), dict(low=Fraction(1)), "endpoints out of order"),
    (OrderSpec(F5, 3), dict(f=0), "conductor must be >= 1"),
    (OrderRecord(5, 5, 1.0, "ramified", None), dict(ord=0), "order must be positive"),
    (Pattern((1, 2)), dict(digits=(0,)), "pattern digits must be >= 1"),
    (HeckeChain((X,), ()), dict(steps=((2, "down"),)), "need exactly one step"),
    (IndefForm(1, 4, -2), dict(c=3), "nonsquare discriminant"),  # disc 4
]


def _name(value):
    return type(value).__name__


@pytest.mark.parametrize("record, want", RECORDS, ids=[_name(r) for r, _ in RECORDS])
def test_record_is_a_named_tuple_with_the_dataclass_contract(record, want):
    cls = type(record)
    assert isinstance(record, tuple) and cls._fields
    assert record == tuple(record) == cls(*record) == cls._make(record)
    assert record._asdict() == {name: getattr(record, name) for name in cls._fields}
    assert repr(record) == want
    hashable = not any(isinstance(v, dict) for v in record)  # _ScanCommand holds a dict
    for other in (pickle.loads(pickle.dumps(record)), pickle.loads(pickle.dumps(record, 0)),
                  copy.copy(record), copy.deepcopy(record), copy.deepcopy([record])[0]):
        assert other == record and type(other) is cls and repr(other) == want
        if hashable:
            assert hash(other) == hash(record)


@pytest.mark.parametrize("record, change, message", INVALID, ids=[_name(r) for r, _, _ in INVALID])
def test_validated_record_checks_every_way_in(record, change, message):
    cls = type(record)
    values = {**record._asdict(), **change}
    for build in (lambda: cls(**values), lambda: cls._make(values.values()),
                  lambda: record._replace(**change)):
        with pytest.raises(ValueError) as info:
            build()
        assert message in str(info.value)
