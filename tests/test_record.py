"""Differential tests pinning ``_record.record`` to ``dataclasses``.

Every record class of gapseq gets a ``dataclass(frozen=True)`` twin with
the same annotations, defaults, methods and ``__post_init__``; the twins
live in a module of their own under the same names, so reprs match and
pickle finds them. Both sides are built from one drawn description and
must agree on construction, errors, equality, hashing, repr,
``__match_args__``, freezing, copying, pickling and ``as_dict`` against
``dataclasses.asdict``.
"""

import copy
import dataclasses
import math
import pickle
import sys
import types
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapseq._record import FrozenRecordError, as_dict, record
from gapseq.gaps import Gap
from gapseq.genfun import Poly, RatFunc
from gapseq.oeis import BFile, CheckReport, Mismatch, cross_check, parse_bfile
from gapseq.sequences import (
    Binomial,
    Explicit,
    Fold,
    Geometric,
    Horadam,
    Linear,
    Polynomial,
    Primes,
)
from gapseq.tables import FigurateRow, RefTable, fc_tables

RECORDS = (Linear, Geometric, Polynomial, Binomial, Horadam, Primes, Fold, Explicit,
           Gap, Poly, RatFunc, BFile, Mismatch, CheckReport, RefTable, FigurateRow)

# What record adds to a class, left out of the twin's body.
_MADE = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
         "__match_args__", "__dict__", "__weakref__"}

twins = types.ModuleType(f"{__name__}_twins")
sys.modules[twins.__name__] = twins


def _twin(cls: type) -> type:
    body = {k: v for k, v in vars(cls).items() if k not in _MADE}
    body["__module__"] = twins.__name__
    twin = dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))
    setattr(twins, cls.__name__, twin)
    return twin


TWIN = {cls: _twin(cls) for cls in RECORDS}


class Nested(NamedTuple):
    """A record of class cls built from args, on either side."""

    cls: type
    args: tuple


def _build(value, twin: bool):
    if isinstance(value, Nested):
        return (TWIN[value.cls] if twin else value.cls)(*_build(value.args, twin))
    if type(value) is tuple:
        return tuple(_build(v, twin) for v in value)
    return value


def _both(desc: Nested):
    """(record, twin), or the (type, message) both raised."""
    outcomes = []
    for twin in (False, True):
        try:
            outcomes.append(_build(desc, twin))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    rec, tw = outcomes
    if isinstance(rec, tuple) or isinstance(tw, tuple):
        assert rec == tw
        return None
    return rec, tw


def _nested(cls, *args):
    return st.tuples(*args).map(lambda values: Nested(cls, values))


ints = st.integers(-10**6, 10**6) | st.integers().map(lambda n: n * 10**30)
small = st.integers(-3, 12)
text = st.text(max_size=6)
fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
coeffs = st.lists(fractions, max_size=5).map(tuple)
strings = st.lists(text, max_size=3).map(tuple)


def _ratfunc(num, den):
    """A RatFunc description whose post-init keeps its polynomials as given,
    so the twin's fields stay twin Polys."""
    f = RatFunc(Poly(num), Poly(den))
    return Nested(RatFunc, (Nested(Poly, (f.num.coeffs,)), Nested(Poly, (f.den.coeffs,))))


SPEC_DESCRIPTIONS = {
    Linear: _nested(Linear, small, ints),
    Geometric: _nested(Geometric, small) | _nested(Geometric, small, ints),
    Polynomial: _nested(Polynomial, coeffs),
    Binomial: _nested(Binomial, small, small),
    Horadam: _nested(Horadam, ints, ints, small, small)
    | _nested(Horadam, ints, ints, small, small, small),
    Primes: _nested(Primes),
    Fold: _nested(Fold),
    Explicit: _nested(Explicit, st.lists(ints, max_size=4).map(tuple)),
}
SPECS = st.one_of(*SPEC_DESCRIPTIONS.values())
MISMATCHES = _nested(Mismatch, ints, ints, ints)
DESCRIPTIONS = {
    **SPEC_DESCRIPTIONS,
    Gap: _nested(Gap, ints, st.integers(0, 50)),
    Poly: _nested(Poly) | _nested(Poly, coeffs),
    RatFunc: st.builds(_ratfunc, coeffs.filter(lambda c: any(c)),
                       st.tuples(fractions.filter(bool), coeffs).map(lambda t: (t[0], *t[1]))),
    BFile: _nested(BFile, text, ints, st.lists(ints, max_size=3).map(tuple)),
    Mismatch: MISMATCHES,
    CheckReport: _nested(CheckReport, text, st.booleans(), ints, st.integers(0, 99))
    | _nested(CheckReport, text, st.booleans(), ints, st.integers(0, 99), st.none() | MISMATCHES),
    RefTable: _nested(RefTable, text, strings, st.lists(strings, max_size=3).map(tuple), strings),
    FigurateRow: _nested(FigurateRow, text, SPECS, text)
    | _nested(FigurateRow, text, SPECS, text, st.sampled_from([None, abs, math.factorial])),
}
ANY = st.one_of(*DESCRIPTIONS.values())

each_record = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
examples = settings(max_examples=30, deadline=None)


@each_record
@examples
@given(data=st.data())
def test_values_repr_hash_and_as_dict(cls, data):
    built = _both(data.draw(DESCRIPTIONS[cls]))
    if built is None:
        return
    rec, tw = built
    assert type(rec) is cls
    assert repr(rec) == repr(tw)
    assert hash(rec) == hash(tw)
    assert as_dict(rec) == dataclasses.asdict(tw)
    assert cls.__match_args__ == type(tw).__match_args__
    assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(tw))


@each_record
@examples
@given(data=st.data())
def test_keyword_and_default_arguments(cls, data):
    desc = data.draw(DESCRIPTIONS[cls])
    built = _both(desc)
    if built is None:
        return
    names = cls.__match_args__
    split = data.draw(st.integers(0, len(desc.args)))
    defaulted = [n for n in names if n in vars(cls)]
    required = len(names) - len(defaulted)
    reprs = []
    for twin, obj in zip((False, True), built):
        side = TWIN[cls] if twin else cls
        args = _build(desc.args, twin)
        by_keyword = side(*args[:split], **dict(zip(names[split:], args[split:])))
        assert by_keyword == obj
        reprs.append(repr(by_keyword))
        if len(args) > required:
            # Only the required fields given: the rest take the class attributes.
            short = side(*args[:required])
            assert all(getattr(short, n) == getattr(side, n) for n in defaulted)
    assert reprs[0] == reprs[1]


@each_record
@examples
@given(data=st.data())
def test_bad_arity_is_a_type_error(cls, data):
    desc = data.draw(DESCRIPTIONS[cls])
    if _both(desc) is None:
        return
    args = _build(desc.args, False)
    names = cls.__match_args__
    required = len([n for n in names if n not in vars(cls)])
    too_many = (*args, *[0] * (len(names) + 1 - len(args)))
    calls = [(too_many, {}), (args, {"no_such_field": 0})]
    if required:
        calls.append((args[:required - 1], {}))
    if args:
        calls.append((args, {names[0]: args[0]}))
    for call_args, kwargs in calls:
        for side in (cls, TWIN[cls]):
            with pytest.raises(TypeError):
                side(*call_args, **kwargs)


@each_record
@examples
@given(data=st.data())
def test_equality(cls, data):
    desc, other = data.draw(DESCRIPTIONS[cls]), data.draw(ANY)
    first, second = _both(desc), _both(other)
    if first is None or second is None:
        return
    (rec, tw), (rec2, tw2) = first, second
    again = _build(desc, False)
    assert rec == again and not rec != again and hash(rec) == hash(again)
    assert (rec == rec2) == (tw == tw2)
    assert (rec != rec2) == (tw != tw2)
    if rec == rec2:
        assert hash(rec) == hash(rec2)
    assert rec.__eq__(tw) is NotImplemented and tw.__eq__(rec) is NotImplemented
    # The field tuple itself is another class.
    assert rec != tw and rec.__eq__(tuple(getattr(rec, n) for n in cls.__match_args__)) is NotImplemented


@each_record
@examples
@given(data=st.data())
def test_assignment_and_deletion_raise(cls, data):
    built = _both(data.draw(DESCRIPTIONS[cls]))
    if built is None:
        return
    rec, tw = built
    before = repr(rec)
    for name in (*cls.__match_args__, "not_a_field"):
        with pytest.raises(FrozenRecordError) as got:
            setattr(rec, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError) as want:
            setattr(tw, name, 0)
        assert str(got.value) == str(want.value)
        with pytest.raises(FrozenRecordError) as got:
            delattr(rec, name)
        with pytest.raises(dataclasses.FrozenInstanceError) as want:
            delattr(tw, name)
        assert str(got.value) == str(want.value)
    assert issubclass(FrozenRecordError, AttributeError)
    assert repr(rec) == before


@each_record
@examples
@given(data=st.data())
def test_copy_and_pickle_round_trip(cls, data):
    built = _both(data.draw(DESCRIPTIONS[cls]))
    if built is None:
        return
    for obj in built:
        for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(copied) is type(obj) and copied == obj and hash(copied) == hash(obj)
    rec, tw = built
    assert repr(pickle.loads(pickle.dumps(rec))) == repr(pickle.loads(pickle.dumps(tw)))


def test_other_classes_never_compare_equal():
    assert Primes() != Fold() and Primes() != ()
    assert Linear(1, 2) != Binomial(1, 2) and Gap(1, 2) != (1, 2)
    assert Primes() == Primes() and hash(Primes()) == hash(())
    match Linear(3, 1):
        case Linear(k, r):
            assert (k, r) == (3, 1)


def test_as_dict_of_nested_reports_and_tables():
    bfile = parse_bfile("1 2\n2 3\n3 9\n", "A000001")
    report = cross_check([2, 3, 5], bfile, 0)
    assert report.first_mismatch == Mismatch(3, 9, 5)
    twin = TWIN[CheckReport](*[getattr(report, n) for n in CheckReport.__match_args__[:-1]],
                             TWIN[Mismatch](3, 9, 5))
    assert as_dict(report) == dataclasses.asdict(twin)
    assert as_dict(report)["first_mismatch"] == {"index": 3, "expected": 9, "got": 5}
    for table in fc_tables():
        twin = TWIN[RefTable](*[getattr(table, n) for n in RefTable.__match_args__])
        assert as_dict(table) == dataclasses.asdict(twin)


def test_post_init_is_looked_up_on_each_call(monkeypatch):
    """A tracer replaces a record's __post_init__ on the class after it is
    decorated; construction must call the replacement."""
    calls = []
    original = RatFunc.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(RatFunc, "__post_init__", counting)
    f = RatFunc(Poly((2, 2)), Poly((2,)))
    assert calls == [f] and f.num == Poly((1, 1)) and f.den == Poly((1,))
    RatFunc(Poly((1,)))
    assert len(calls) == 2


@pytest.mark.parametrize("arity", [0, 3, 4])
def test_post_init_runs_at_every_arity(arity):
    """No gapseq record of these arities has a __post_init__ of its own."""
    names = "abcd"[:arity]
    seen = []
    body = {"__annotations__": dict.fromkeys(names, int),
            "__post_init__": lambda self: seen.append([getattr(self, n) for n in names])}
    cls = record(type(f"Arity{arity}", (), body))
    cls(*range(arity))
    assert seen == [list(range(arity))]


def test_record_refuses_a_default_before_a_required_field_and_own_methods():
    """dataclass refuses the first two as well; it would keep the third's
    own __repr__, which record refuses to replace."""
    with pytest.raises(TypeError):
        @record
        class DefaultFirst:
            a: int = 0
            b: int

    with pytest.raises(TypeError):
        @record
        class OwnSetattr:
            a: int

            def __setattr__(self, name, value):
                pass

    with pytest.raises(TypeError):
        @record
        class OwnRepr:
            a: int

            def __repr__(self):
                return "mine"

    with pytest.raises(TypeError, match="a record has at most 5 fields, none named 'self'"):
        record(type("SixFields", (), {"__annotations__": dict.fromkeys("abcdef", int)}))
