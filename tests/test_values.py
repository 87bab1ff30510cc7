"""The library's record and value types: built positionally in their field
order, they compare, hash, print, refuse changes and copy alike.

Nine are NamedTuples; `DiscreteMeasure`, `PathMeasure`, `SupportSet` and
`StepDecomposition` build themselves on `measure._Value` and are no tuples.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from leftcurtain import (
    CrossingWitness,
    DegeneracyWitness,
    DiscreteMeasure,
    Improvement,
    Interval,
    IrreducibleDomain,
    PathMeasure,
    PolarVerdict,
    PotentialFunction,
    ShadowResult,
    StepDecomposition,
    SupportSet,
)
from leftcurtain.coupling import PrefixImageRecord

MU = DiscreteMeasure([(0, 1)])
NU = DiscreteMeasure([(-1, F(1, 2)), (1, F(1, 2))])
P = PathMeasure(1, [((0, -1), F(1, 2)), ((0, 1), F(1, 2))])
DOMAIN = IrreducibleDomain(1, Interval.open(-1, 1), MU, NU)

# Each type with two sets of field values, in field order, that differ.
CASES = [
    (Interval, {"lo": F(0), "hi": F(1), "lo_closed": True, "hi_closed": False},
     {"lo": None, "hi": F(1), "lo_closed": False, "hi_closed": True}),
    (DiscreteMeasure, {"atoms": MU.atoms}, {"atoms": NU.atoms}),
    (PotentialFunction, {"breakpoints": ((F(0), F(1)),), "left_slope": F(-1), "right_slope": F(1)},
     {"breakpoints": ((F(0), F(2)),), "left_slope": F(-1), "right_slope": F(1)}),
    (ShadowResult, {"shadow": MU, "residual": NU}, {"shadow": NU, "residual": MU}),
    (PathMeasure, {"n": 1, "paths": P.paths}, {"n": 1, "paths": (((F(0), F(0)), F(1)),)}),
    (PrefixImageRecord, {"prefix": F(0), "t": 1, "image": MU, "expected": NU},
     {"prefix": F(0), "t": 2, "image": MU, "expected": NU}),
    (SupportSet, {"n": 1, "points": P.support}, {"n": 1, "points": P.support[:1]}),
    (IrreducibleDomain, {"index": 1, "I": DOMAIN.I, "mu_k": MU, "nu_k": NU},
     {"index": 2, "I": DOMAIN.I, "mu_k": MU, "nu_k": NU}),
    (StepDecomposition, {"diagonal": MU, "components": (DOMAIN,)}, {"diagonal": MU, "components": ()}),
    (PolarVerdict, {"path": (F(0), F(1)), "polar": False, "reason": "chargeable", "component": (1,)},
     {"path": (F(0), F(1)), "polar": True, "reason": "outside the effective domain", "component": None}),
    (CrossingWitness,
     {"t": 1, "history": (F(0),), "y_minus": F(-1), "y_plus": F(1), "other_history": (F(1),), "y_prime": F(0)},
     {"t": 1, "history": (F(0),), "y_minus": F(-1), "y_plus": F(2), "other_history": (F(1),), "y_prime": F(0)}),
    (DegeneracyWitness, {"t": 1, "history": (F(0),), "y": F(1)}, {"t": 1, "history": (F(0),), "y": F(-1)}),
    (Improvement, {"competitor": P, "value": F(2), "baseline": F(1)},
     {"competitor": P, "value": F(3), "baseline": F(1)}),
]
NOT_TUPLES = {DiscreteMeasure, PathMeasure, SupportSet, StepDecomposition}


@pytest.mark.parametrize("cls, fields, other", CASES, ids=[cls.__name__ for cls, _, _ in CASES])
def test_value_contract(cls, fields, other):
    value, twin, different = cls(*fields.values()), cls(*fields.values()), cls(*other.values())
    assert all(getattr(value, name) == v for name, v in fields.items())
    assert value == twin and not value != twin and hash(value) == hash(twin)
    assert value != different and not value == different
    shown = ", ".join(f"{name}={v!r}" for name, v in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"
    for name, v in fields.items():
        with pytest.raises(AttributeError):
            setattr(value, name, v)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for made in copies:
        assert type(made) is cls and made == value and hash(made) == hash(value)
    assert isinstance(value, tuple) is (cls not in NOT_TUPLES)


def test_values_of_different_classes_are_unequal():
    line = PathMeasure(0, [((0,), 1)])
    assert MU.__eq__(line) is NotImplemented and line.__eq__(MU) is NotImplemented
    assert MU != line and not MU == line


@pytest.mark.parametrize("cls", sorted(NOT_TUPLES, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_hash_is_kept_outside_the_fields(cls):
    """`measure._Value` keeps its hash, and the integer view of the classes
    that define one (`_lattice_of`), in slots that are no fields: equal
    values hash equal whichever was hashed first, copies of a hashed and an
    unhashed value compare and hash equal, a copy makes its own view, equal
    to the original's, and the fields alone are read, shown, copied and
    pickled."""
    fields, other = next((fields, other) for c, fields, other in CASES if c is cls)
    first, second = cls(*fields.values()), cls(*fields.values())
    assert hash(second) == hash(first) == hash(second) and first == second
    assert hash(cls(*other.values())) != hash(first)
    viewed = hasattr(cls, "_lattice_of")
    view = first._lattice() if viewed else None
    assert not viewed or first._lattice() is view
    unhashed = cls(*fields.values())
    for value in (first, unhashed):
        assert value._values() == value.__getstate__() == tuple(fields.values())
        assert "_hash" not in repr(value) and "_ints" not in repr(value) and repr(value) == repr(second)
        made = [copy.copy(value), copy.deepcopy(value)]
        made += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in made:
            assert twin == value and twin._values() == tuple(fields.values())
            assert hash(twin) == hash(first)
            assert not hasattr(twin, "_ints")
            assert not viewed or (twin._lattice() == view and twin._lattice() is not view)
        for name in (*fields, "_hash", "_ints"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
    assert hash(unhashed) == hash(first)
    assert not hasattr(unhashed, "_ints") and (not viewed or unhashed._lattice() == view)


def test_a_support_set_shares_the_view_of_its_path_measure():
    assert SupportSet.of(P)._lattice() is P._lattice()
    assert SupportSet(P.n, P.support)._lattice() == P._lattice() == ((1, 1), ((0, -1), (0, 1)))
