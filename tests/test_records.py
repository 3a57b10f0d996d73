import pytest

from polyclone import compat, indicator, relations, structures, trace, witness
from polyclone.compat import Verdict
from polyclone.indicator import SolveReport
from polyclone.structures import SpecA, SpecB
from polyclone.trace import (
    Application,
    BaseCertificate,
    CheckReport,
    ColumnBlock,
    StepCertificate,
    TraceCertificate,
)


def record_fields():
    """Fresh fields of one instance of each record type."""
    block = ColumnBlock((0, 1), 2)
    app = Application("S0", (block,))
    step = StepCertificate(0, 0, (app,), 1, 2, 3, 1, ((0, 1), (2,)), None)
    return {
        ColumnBlock: ((0, 1), 2),
        Application: ("S0", (block,)),
        BaseCertificate: ((app,),),
        StepCertificate: (0, 0, (app,), 1, 2, 3, 1, ((0, 1), (2,)), None),
        TraceCertificate: ("A", 1, 2, 4, ((1, 2, 0),), BaseCertificate((app,)), (step,), (0,)),
        CheckReport: (False, ("a fault",)),
        Verdict: (True, "sampled", 10, None, 3),
        SolveReport: ("unsat", None, 0, 5),
        SpecA: (1, 2),
        SpecB: (1,),
    }


def test_every_record_is_immutable_and_compares_by_value():
    records = {
        value
        for mod in (compat, indicator, relations, structures, trace, witness)
        for value in vars(mod).values()
        if isinstance(value, type) and issubclass(value, tuple) and value.__module__ == mod.__name__
    }
    assert records == set(record_fields())
    for cls, fields in record_fields().items():
        record, twin = cls(*fields), cls(*record_fields()[cls])
        assert record == twin and hash(record) == hash(twin)
        assert record == fields and record._replace() == record
        assert repr(record) == f"{cls.__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(cls._fields, fields)) + ")"
        for name, value in zip(cls._fields, fields):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.extra = 1
    assert not CheckReport(False, ("a fault",)) and CheckReport(True, ())
