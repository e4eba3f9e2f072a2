"""Value semantics of the record classes: equality, hashing, immutability,
normalisation, validation and repr."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import cuspeps
from cuspeps._frozen import Frozen
from cuspeps.cusp import CuspidalRep
from cuspeps.cyclo import root_of_unity
from cuspeps.epsilon import (
    LevelZeroRep,
    LFactorSpec,
    RootOfUnity,
    SMonomial,
    TameTwist,
    TransferData,
    twist_ratio_check,
)
from cuspeps.ffield import ZERO, AdditiveChar, MultChar, build_field
from cuspeps.glq import NON_PRIMARY, ClassKey, Mat, gl_group
from cuspeps.verify import Check

F5 = build_field(5)
G32 = gl_group(3, 2)
SIGMA1, SIGMA2 = CuspidalRep(G32, 1), CuspidalRep(G32, 2)
PSI = AdditiveChar(G32.field, 0)
THIRD = RootOfUnity(3, 1)

# name -> (make, fields, changed): make(*fields) twice gives equal records, and
# make(*changed) differs from them in one field.
RECORDS = {
    "ClassKey": (ClassKey, (1, 0, (2, 1)), (1, 0, (1, 1, 1))),
    "Mat": (Mat, (F5, ((0, ZERO), (ZERO, 0))), (F5, ((0, ZERO), (ZERO, 1)))),
    "AdditiveChar": (AdditiveChar, (F5, 0), (F5, 1)),
    "MultChar": (MultChar, (F5, 1), (F5, 2)),
    "RootOfUnity": (RootOfUnity, (3, 1), (3, 2)),
    "LevelZeroRep": (LevelZeroRep, (SIGMA1, THIRD), (SIGMA2, THIRD)),
    "SMonomial": (
        SMonomial,
        (root_of_unity(3, 1), 9, -2, Fraction(1, 2)),
        (root_of_unity(3, 1), 9, -2, Fraction(1)),
    ),
    "LFactorSpec": (LFactorSpec, (True,), (False,)),
    "TransferData": (TransferData, (1, 2, 2, 1, THIRD), (1, 2, 2, 0, THIRD)),
    "TameTwist": (TameTwist, (0, THIRD, THIRD), (0, THIRD, RootOfUnity(1, 0))),
    "Check": (Check, ("glq", "name", True), ("glq", "name", False)),
}
# Hashing follows the fields: a CycloNumber field makes a record unhashable.
UNHASHABLE = {"SMonomial"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash(name):
    make, fields, changed = RECORDS[name]
    a, b, c = make(*fields), make(*fields), make(*changed)
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != object()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    make, fields, _ = RECORDS[name]
    record = make(*fields)
    field = record._fields[0] if isinstance(record, tuple) else record.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, fields[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_normalisation():
    assert RootOfUnity(12, -3) == RootOfUnity(4, 3)
    assert (RootOfUnity(12, -3).order, RootOfUnity(12, -3).exp) == (4, 3)
    assert (RootOfUnity(5, 10).order, RootOfUnity(5, 10).exp) == (1, 0)
    with pytest.raises(ValueError, match="order must be >= 1"):
        RootOfUnity(0, 1)
    assert MultChar(F5, -1).c == 3
    assert MultChar(F5, 9) == MultChar(F5, 1)


@pytest.mark.parametrize("sizes, message", [
    ((1, 3, 2), "e must divide N"),
    ((1, 1, 0), "e must divide N"),
    ((2, 3, 3), "r must divide N/e"),
    ((0, 1, 1), "r and N must be >= 1"),
    ((1, 0, 1), "r and N must be >= 1"),
])
def test_transfer_data_rejects(sizes, message):
    with pytest.raises(ValueError) as info:
        TransferData(*sizes, 0)
    assert str(info.value) == message


def test_reprs():
    assert repr(ClassKey(1, 0, (2, 1))) == "ClassKey(d=1, eig=0, blocks=(2, 1))"
    assert str(NON_PRIMARY) == "ClassKey(d=None, eig=None, blocks=None)"
    assert repr(MultChar(F5, -1)) == "MultChar(field=FieldSpec(GF(5^1)), c=3)"
    assert repr(AdditiveChar(F5)) == "AdditiveChar(field=FieldSpec(GF(5^1)), a=0)"
    assert repr(RootOfUnity(12, -3)) == "RootOfUnity(order=4, exp=3)"
    assert repr(TameTwist(1)) == (
        "TameTwist(unit_exponent=1, t_mult=RootOfUnity(order=1, exp=0), "
        "norm_nu=RootOfUnity(order=1, exp=0))"
    )
    assert repr(LFactorSpec(True)) == "LFactorSpec(trivial=True, u=None, m=None, qbase=None)"
    assert repr(Check("a", "b", True)) == "Check(suite='a', name='b', ok=True, detail='')"
    assert repr(LevelZeroRep(SIGMA1, THIRD)) == (
        f"LevelZeroRep(sigma={SIGMA1!r}, t=RootOfUnity(order=3, exp=1))"
    )
    assert repr(SMonomial(root_of_unity(3, 1), 9, -2, Fraction(1, 2))) == (
        f"SMonomial(coeff={root_of_unity(3, 1)!r}, qbase=9, half_exp=-2, "
        "s_coeff=Fraction(1, 2))"
    )
    assert repr(TransferData(1, 2, 2, 1, THIRD)) == (
        "TransferData(r=1, N=2, e=2, vnu=1, w1=RootOfUnity(order=3, exp=1), "
        "w2=RootOfUnity(order=1, exp=0), zeta=RootOfUnity(order=1, exp=0))"
    )


def test_every_record_is_checked():
    """Every Frozen subclass of every cuspeps module has a RECORDS entry."""
    for info in pkgutil.iter_modules(cuspeps.__path__):
        importlib.import_module(f"cuspeps.{info.name}")
    records, todo = set(), [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            records.add(cls.__name__)
            todo.append(cls)
    assert records and records <= set(RECORDS)


def test_records_of_different_classes_are_unequal():
    assert AdditiveChar(F5, 1) != MultChar(F5, 1)
    assert not AdditiveChar(F5, 1) == MultChar(F5, 1)
    assert RootOfUnity(3, 1) != (3, 1) and not RootOfUnity(3, 1) == (3, 1)
    assert Check("glq", "name", True) != ("glq", "name", True, "")


def test_nontrivial_l_factor_is_unhashable():
    a = LFactorSpec(False, root_of_unity(3, 1), 2, 3)
    assert a == LFactorSpec(False, root_of_unity(3, 1), 2, 3)
    assert a != LFactorSpec(False, root_of_unity(3, 2), 2, 3)
    with pytest.raises(TypeError):
        hash(a)


def test_class_key_is_a_tuple():
    key = ClassKey(2, 3, (1,))
    assert key == (2, 3, (1,)) and hash(key) == hash((2, 3, (1,)))
    assert key.primary and not NON_PRIMARY.primary
    assert key.serialize() == {"primary": True, "d": 2, "eig": 3, "blocks": [1]}
    assert NON_PRIMARY.serialize() == {"primary": False}


def test_smonomial_scale():
    m = SMonomial(root_of_unity(3, 1), 9, -2, Fraction(1, 2))
    assert m.scale(root_of_unity(4, 1)).to_dict() == {
        "coeff": {"m": 12, "coeffs": ["0", "-1", "0", "0"]},
        "qbase": 9,
        "half_exp": -2,
        "s_coeff": "1/2",
    }
    assert m.scale(Fraction(-2, 3)).to_dict() == {
        "coeff": {"m": 3, "coeffs": ["0", "-2/3"]},
        "qbase": 9,
        "half_exp": -2,
        "s_coeff": "1/2",
    }


@pytest.mark.parametrize("twist", [
    TameTwist(0),
    TameTwist(1, RootOfUnity(2, 1), RootOfUnity(4, 1)),
    TameTwist(1, RootOfUnity(5, 2), RootOfUnity(3, 1)),
])
def test_twist_ratio_check(twist):
    tau1 = LevelZeroRep(SIGMA1, THIRD)
    tau2 = LevelZeroRep(SIGMA2)
    data = TransferData(
        r=1, N=2, e=2, vnu=1, w1=RootOfUnity(4, 1), w2=RootOfUnity(3, 2), zeta=RootOfUnity(2, 1)
    )
    assert twist_ratio_check(twist, tau1, tau2, data, PSI) is True
