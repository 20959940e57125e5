"""Commutator certificates for the scaling map P(s) and the plane
transvections.

A certificate is a target isometry together with a word whose atoms are
grouped into literal commutators x y x^-1 y^-1 (plus, for the P(4)
word itself, a plain four-transvection tail).  Evaluation is exact;
certificates over the rationals carry denominators 2 and 3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from orthlat.eichler import HyperbolicSplitting
from orthlat.errors import (
    NotOrthogonalError,
    SingularScaleError,
    WrongNormError,
    ZeroScaleError,
)
from orthlat.isometry import (
    GroupWord,
    Isometry,
    ReflectionAtom,
    TransvectionAtom,
    rank_update,
    transvection,
)
from orthlat.linalg import Vec, as_scalar


def p_map(split: HyperbolicSplitting, s) -> Isometry:
    """The scaling isometry e -> e/s, f -> s f, identity on the
    complement of U."""
    s = Fraction(as_scalar(s))
    if s == 0:
        raise ZeroScaleError("scale must be nonzero")
    lat = split.lattice
    e, f = split.e, split.f
    return Isometry(lat, rank_update(lat, [(1 / s - 1, e, f), (s - 1, f, e)]))


def p_reflection_word(split: HyperbolicSplitting, s) -> GroupWord:
    """P(s) as a two-reflection word.  Under the column-vector
    convention the mirror e - s f applies second: the word is
    (e - s f, e - f), the reverse of the order the defining product is
    usually written in."""
    s = Fraction(as_scalar(s))
    if s == 0:
        raise ZeroScaleError("scale must be nonzero")
    return GroupWord(split.lattice, (
        ReflectionAtom(split.e - s * split.f),
        ReflectionAtom(split.e - split.f),
    ))


def verify_master_identity(split: HyperbolicSplitting, w, s) -> bool:
    """Exact check of the product rule

        t(f, s w) t(e, w) ==
            t(e, w/c) t(f, s c w) P(c^2),   c = 1 - s (w, w)/2,

    for w in the rational span of the complement of U."""
    lat = split.lattice
    w = Vec(w)
    s = Fraction(as_scalar(s))
    c = 1 - s * Fraction(lat.norm(w)) / 2
    if c == 0:
        raise SingularScaleError("1 - s(w,w)/2 vanishes")
    lhs = GroupWord(lat, (TransvectionAtom(split.f, s * w), TransvectionAtom(split.e, w)))
    rhs = GroupWord(lat, (TransvectionAtom(split.e, (1 / c) * w),
                          TransvectionAtom(split.f, (s * c) * w)))
    return lhs.evaluate() == rhs.evaluate() * p_map(split, c * c)


class CommutatorCertificate(NamedTuple):
    """Target together with commutator pairs and an optional plain tail;
    the full word is the product of the groups x y x^-1 y^-1 followed
    by the tail."""

    target: Isometry
    pairs: tuple[tuple[GroupWord, GroupWord], ...]
    tail: GroupWord

    def word(self) -> GroupWord:
        out = GroupWord(self.target.lattice)
        for x, y in self.pairs:
            out = out.then(x).then(y).then(x.inverse()).then(y.inverse())
        return out.then(self.tail)

    def verify(self) -> bool:
        return self.word().evaluate() == self.target

    def groups_are_commutators(self) -> bool:
        """Syntactic shape check: every group reads x y x^-1 y^-1."""
        atoms = list(self.word().atoms)
        for x, y in self.pairs:
            k = len(x.atoms) + len(y.atoms)
            group, atoms = atoms[:2 * k], atoms[2 * k:]
            expect = (x.atoms + y.atoms
                      + x.inverse().atoms + y.inverse().atoms)
            if tuple(group) != expect:
                return False
        return tuple(atoms) == self.tail.atoms

    def to_json(self) -> dict:
        return {
            "scope": "rational",
            "commutators": [
                {"x": x.to_json(), "y": y.to_json()} for x, y in self.pairs
            ],
            "tail": self.tail.to_json(),
            "word": self.word().to_json(),
            "verified": self.verify(),
        }


def _certified(target: Isometry, pairs, tail: GroupWord, failure: str) -> CommutatorCertificate:
    """The certificate of target by pairs and tail, once its word is
    checked to evaluate to target; WrongNormError(failure) otherwise."""
    cert = CommutatorCertificate(target=target, pairs=pairs, tail=tail)
    if not cert.verify():
        raise WrongNormError(failure)
    return cert


def default_norm_six_vector(split: HyperbolicSplitting) -> Vec:
    """e1 + 3 f1 in the second plane, the stock vector of square 6."""
    return split.e1 + 3 * split.f1


def _p4_word(split: HyperbolicSplitting, v6: Vec) -> GroupWord:
    """t(f, 2 v6) t(e, v6/2) t(f, v6) t(e, v6), which evaluates to P(4)
    for v6 of square 6 orthogonal to U."""
    return GroupWord(split.lattice, (
        TransvectionAtom(split.f, 2 * v6),
        TransvectionAtom(split.e, Fraction(1, 2) * v6),
        TransvectionAtom(split.f, v6),
        TransvectionAtom(split.e, v6),
    ))


def certificate_p4(split: HyperbolicSplitting, v6=None) -> CommutatorCertificate:
    """The four-transvection word evaluating to P(4), built on a vector
    of square 6 orthogonal to U.

    The word (_p4_word) is not itself of commutator shape; it is
    carried as a plain tail."""
    if v6 is None:
        v6 = default_norm_six_vector(split)
    v6 = Vec(v6)
    lat = split.lattice
    if lat.norm(v6) != 6:
        raise WrongNormError("the certificate needs a vector of square 6")
    if lat.inner(v6, split.e) != 0 or lat.inner(v6, split.f) != 0:
        raise WrongNormError("the vector must be orthogonal to U")
    return _certified(p_map(split, 4), (), _p4_word(split, v6),
                      "four-transvection word failed to evaluate to P(4)")


def certificate_transvection(split: HyperbolicSplitting, u) -> CommutatorCertificate:
    """t(e, u) as the literal commutator [P(4)^-1, t(e, u/3)], with
    P(4) expanded through its four-transvection word."""
    u = Vec(u)
    lat = split.lattice
    if lat.inner(u, split.e) != 0:
        raise WrongNormError("u must be orthogonal to e")
    x = _p4_word(split, default_norm_six_vector(split)).inverse()
    y = GroupWord(lat, (TransvectionAtom(split.e, u / 3),))
    return _certified(transvection(lat, split.e, u), ((x, y),), GroupWord(lat),
                      "transvection certificate failed to verify")


def _require_l0(split: HyperbolicSplitting, v: Vec, name: str):
    lat = split.lattice
    for w in (split.e, split.f, split.e1, split.f1):
        if lat.inner(v, w) != 0:
            raise NotOrthogonalError(
                f"{name} must be orthogonal to both hyperbolic planes")


def heisenberg_commutator(split: HyperbolicSplitting, s, u) -> CommutatorCertificate:
    """[t(e, -s f1), t(e1, u)] == t(e, s u - s (u,u)/2 e1) for u in the
    rational span of the small complement."""
    lat = split.lattice
    u = Vec(u)
    _require_l0(split, u, "u")
    s = Fraction(as_scalar(s))
    x = GroupWord(lat, (TransvectionAtom(split.e, -s * split.f1),))
    y = GroupWord(lat, (TransvectionAtom(split.e1, u),))
    target = transvection(
        lat, split.e, s * u - (s * Fraction(lat.norm(u)) / 2) * split.e1)
    return _certified(target, ((x, y),), GroupWord(lat),
                      "commutator identity failed to verify")


def triple_product(split: HyperbolicSplitting, s, u, v) -> CommutatorCertificate:
    """t(e, s (u, v) e1) as a product of three literal commutators in
    t(e, -s f1) and the t(e1, *) family.

    The third factor is the inverse commutator [t(e1, u+v), t(e,-s f1)];
    with the third factor written as [t(e,-s f1), t(e1, -u-v)] instead,
    the product picks up an extra t(e, * e1) term unless u + v is
    isotropic."""
    lat = split.lattice
    u, v = Vec(u), Vec(v)
    _require_l0(split, u, "u")
    _require_l0(split, v, "v")
    s = Fraction(as_scalar(s))
    x = GroupWord(lat, (TransvectionAtom(split.e, -s * split.f1),))
    yu = GroupWord(lat, (TransvectionAtom(split.e1, u),))
    yv = GroupWord(lat, (TransvectionAtom(split.e1, v),))
    yuv = GroupWord(lat, (TransvectionAtom(split.e1, u + v),))
    target = transvection(lat, split.e, (s * Fraction(lat.inner(u, v))) * split.e1)
    return _certified(target, ((x, yu), (x, yv), (yuv, x)), GroupWord(lat),
                      "triple commutator identity failed to verify")
