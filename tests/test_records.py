"""The record classes are values: immutable tuples of their fields.

Two records built from equal fields are equal and hash alike, a field
cannot be set and no attribute can be added, and the repr names every
field in order. An atom hashes as the tuple of its fields, as it did as
a frozen dataclass, so atom words keep their hashes.
"""

from functools import cache

import pytest

from orthlat.commutators import CommutatorCertificate, certificate_p4
from orthlat.discform import DiscAutomorphism, DiscElement, discriminant_form
from orthlat.eichler import CensusEntry, CensusReport, OrbitInvariant
from orthlat.isometry import Membership, ReflectionAtom, TransvectionAtom
from orthlat.jacobi import IdentityCheck, jacobi_lattice
from orthlat.lattice import KneserReport, build
from orthlat.linalg import Vec


@cache
def _certificate():
    # words compare by identity, so both records share the certificate's fields
    return certificate_p4(jacobi_lattice(build("<-2>"))[1])


def _disc_class():
    # a fresh lattice each call: equal classes of equal lattices
    return DiscElement(discriminant_form(build("2U+<-6>")), (1,))


def _invariant():
    return OrbitInvariant(-6, _disc_class(), 6)


def _entry():
    return CensusEntry(_invariant(), 4, Vec([1, -1, 0, 0, 0]))


# (class, field names in order, a function building one set of fields)
RECORDS = [
    (CommutatorCertificate, ("target", "pairs", "tail"), lambda: tuple(_certificate())),
    (DiscElement, ("form", "coords"), lambda: tuple(_disc_class())),
    (DiscAutomorphism, ("form", "images"),
     lambda: (discriminant_form(build("2U+<-6>")), (_disc_class(),))),
    (OrbitInvariant, ("norm", "disc_class", "divisor"), lambda: tuple(_invariant())),
    (CensusEntry, ("invariant", "count", "witness"), lambda: tuple(_entry())),
    (CensusReport, ("box", "entries"), lambda: (2, (_entry(), _entry()))),
    (ReflectionAtom, ("mirror",), lambda: (Vec([1, -1, 0]),)),
    (TransvectionAtom, ("e", "a"), lambda: (Vec([1, 0, 0, 0]), Vec([0, 0, 1, -1]))),
    (Membership, ("in_o", "in_so", "in_o_plus", "in_stable", "in_stable_plus",
                  "in_stable_so_plus", "in_spinorial_kernel"),
     lambda: (True, True, False, True, False, False, False)),
    (IdentityCheck, ("name", "holds", "note"), lambda: ("S^2 == embed(-1)", True, "")),
    (KneserReport, ("witt_ok", "rank2_ok", "rank3_ok", "minus2_vector", "search_box"),
     lambda: (True, True, False, Vec([1, -1]), 2)),
]


@pytest.mark.parametrize("cls, names, fields", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_an_immutable_value(cls, names, fields):
    a, b = cls(*fields()), cls(*fields())
    assert cls._fields == names
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, names[0], b[0])
    with pytest.raises(AttributeError):
        a.extra = None
    values = [getattr(a, name) for name in names]
    assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    if cls in (ReflectionAtom, TransvectionAtom):
        assert hash(a) == hash(tuple(values))

