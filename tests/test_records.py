"""Results and reports are immutable records (`errors.Record`): built by
position, by keyword or with defaults, equal and hashed by class and field
values, printed as Name(field=value, ...), closed to assignment and
deletion, and copied with changes by `replace`."""

from fractions import Fraction as F

import pytest

from padic_mcf import (
    PLUS_INFINITY,
    MCF,
    BalancedDigits,
    ConditionReport,
    ExpansionResult,
    JPState,
    ReexpandReport,
    StepResult,
    StrongConvergenceSeq,
    jp_expand,
)
from padic_mcf.worked_examples import ExampleCase

# jp_expand((7/3, 11/20), 5), spelled out: no record here relies on a default
QUOTIENTS = MCF(2, [(-1, F(9, 5), 1), (F(-4, 5), -1, 1), (F(-3, 5), 0, 1)])
RESULT = ExpansionResult(QUOTIENTS, "finite", 3, None, None, None, None, None, None)
STATE = JPState(5, (F(-4, 5), F(-8, 3)), 1)

# (class, field names, values in field order, a change, repr of the values),
# the repr strings as the dataclasses these records replace printed them
CASES = [
    (
        BalancedDigits, ("start", "digits"), (0, (-1, -1, 2)), {"start": 1},
        "BalancedDigits(start=0, digits=(-1, -1, 2))",
    ),
    (
        ConditionReport, ("unit_numerators", "ok", "first_violation", "per_index"),
        (False, True, None, ((1, True, True), (2, True, True))), {"ok": False},
        "ConditionReport(unit_numerators=False, ok=True, first_violation=None, "
        "per_index=((1, True, True), (2, True, True)))",
    ),
    (
        StrongConvergenceSeq, ("m", "prime", "values", "valuations"),
        (2, 5, ((F(0), F(1)), (F(-10, 3), F(5, 4))), ((PLUS_INFINITY, 0), (1, 1))),
        {"prime": 7},
        "StrongConvergenceSeq(m=2, prime=5, values=((Fraction(0, 1), Fraction(1, 1)), "
        "(Fraction(-10, 3), Fraction(5, 4))), valuations=((inf, 0), (1, 1)))",
    ),
    (
        JPState, ("prime", "alphas", "n"), (5, (F(7, 3), F(11, 20)), 0), {"n": 1},
        "JPState(prime=5, alphas=(Fraction(7, 3), Fraction(11, 20)), n=0)",
    ),
    (
        StepResult, ("quotients", "next_state"), ((F(-1), F(9, 5)), STATE),
        {"next_state": None},
        "StepResult(quotients=(Fraction(-1, 1), Fraction(9, 5)), next_state="
        "JPState(prime=5, alphas=(Fraction(-4, 5), Fraction(-8, 3)), n=1))",
    ),
    (
        ExpansionResult,
        ("mcf", "status", "steps", "preperiod", "period", "witness", "witness_state",
         "period_candidate", "trace_valuations"),
        (QUOTIENTS, "finite", 3, None, None, None, None, None, (-1, 0, PLUS_INFINITY)),
        {"status": "truncated", "period_candidate": (0, 1)},
        "ExpansionResult(mcf=MCF[m=2; (-1, -4/5, -3/5), (9/5, -1, 0), (1, 1, 1)], "
        "status='finite', steps=3, preperiod=None, period=None, witness=None, "
        "witness_state=None, period_candidate=None, trace_valuations=(-1, 0, inf))",
    ),
    (
        ReexpandReport, ("matches", "failed_hypotheses", "value", "reexpansion"),
        (False, ("unit_numerators",), (F(7, 3),), RESULT), {"matches": True},
        "ReexpandReport(matches=False, failed_hypotheses=('unit_numerators',), "
        "value=(Fraction(7, 3),), reexpansion=ExpansionResult(mcf=MCF[m=2; "
        "(-1, -4/5, -3/5), (9/5, -1, 0), (1, 1, 1)], status='finite', steps=3, "
        "preperiod=None, period=None, witness=None, witness_state=None, "
        "period_candidate=None, trace_valuations=None))",
    ),
    (
        ExampleCase, ("id", "description", "kind", "params"),
        ("c0", "a case", "rational", {"p": 5}), {"kind": "periodic"},
        "ExampleCase(id='c0', description='a case', kind='rational', params={'p': 5})",
    ),
]
IDS = [case[0].__name__ for case in CASES]
# an MCF, and so a record holding one, is unhashable, as a dict is
UNHASHABLE = {ExpansionResult, ReexpandReport, ExampleCase}


@pytest.mark.parametrize("cls, names, values, change, text", CASES, ids=IDS)
class TestRecord:
    def test_built_by_position_and_by_keyword(self, cls, names, values, change, text):
        record = cls(*values)
        assert tuple(getattr(record, n) for n in names) == values
        assert cls(**dict(zip(names, values))) == record
        assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record

    def test_wrong_arguments_are_refused(self, cls, names, values, change, text):
        for args, kwargs in [
            (values + (None,), {}),
            (values[:-1], {names[-1]: values[-1], "extra": 1}),
            (values, {names[0]: values[0]}),
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
        if cls is not ExpansionResult:  # the one record with defaults
            with pytest.raises(TypeError):
                cls(*values[:-1])

    def test_equality_and_hash(self, cls, names, values, change, text):
        record, other = cls(*values), cls(*values).replace(**change)
        assert record == cls(*values) and not record != cls(*values)
        assert record != other and not record == other
        assert record != values and record != type("Twin", (cls,), {})(*values)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(cls(*values))
            assert hash(record) != hash(other)
            assert len({record, cls(*values), other}) == 2

    def test_repr(self, cls, names, values, change, text):
        assert repr(cls(*values)) == text

    def test_assignment_and_deletion_are_refused(self, cls, names, values, change, text):
        record = cls(*values)
        for name in (names[0], names[-1], "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(*values) and not hasattr(record, "new_attribute")

    def test_replace(self, cls, names, values, change, text):
        record = cls(*values)
        copy = record.replace(**change)
        assert type(copy) is cls and copy is not record
        for name, value in zip(names, values):
            assert getattr(copy, name) == change.get(name, value)
        assert record == cls(*values)
        assert record.replace() == record
        with pytest.raises(TypeError):
            record.replace(extra=1)


def test_defaults_are_applied():
    short = ExpansionResult(QUOTIENTS, "finite", 3)
    assert short == RESULT
    assert short.preperiod is short.trace_valuations is None
    assert ExpansionResult(QUOTIENTS, "periodic", 2, period=1).period == 1
    assert jp_expand((F(7, 3), F(11, 20)), 5) == RESULT


def test_records_keep_their_properties_and_methods():
    assert JPState(5, (F(1), F(2)), 0).m == 2
    assert BalancedDigits(-1, (2, 1)).value(5) == F(7, 5)
    assert RESULT.is_finite and RESULT.to_json_dict()["steps"] == 3
    assert not ReexpandReport(False, (), (), RESULT)
    seq = StrongConvergenceSeq(*CASES[2][2])
    assert (seq.at(-2), seq.valuation_at(-1), seq.last_index) == ((F(0), F(1)), (1, 1), -1)
