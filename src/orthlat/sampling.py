"""Seeded random generators shared by the identity suite and the tests.

Every function takes an explicit ``random.Random`` so that runs are
reproducible from a single seed.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from orthlat.eichler import HyperbolicSplitting
from orthlat.isometry import (
    GroupWord,
    Isometry,
    ReflectionAtom,
    TransvectionAtom,
)
from orthlat.lattice import Lattice
from orthlat.linalg import Vec

_DENOMS = (1, 1, 1, 2, 3)
_BOUND = 3               # entries of random rational vectors
_INTEGRAL_BOUND = 2      # entries of random integral transvection vectors


def rational(rng: Random, bound: int = 4) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.choice(_DENOMS))


def nonzero_rational(rng: Random, bound: int = 4) -> Fraction:
    while True:
        x = rational(rng, bound)
        if x:
            return x


def rational_vector(lat: Lattice, rng: Random) -> Vec:
    return Vec(rational(rng, _BOUND) for _ in range(lat.rank))


def l1_vector(split: HyperbolicSplitting, rng: Random) -> Vec:
    """Random rational vector supported away from the first plane."""
    out = [Fraction(0)] * split.lattice.rank
    for i in split.l1_indices:
        out[i] = rational(rng, _BOUND)
    return Vec(out)


def l0_vector(split: HyperbolicSplitting, rng: Random) -> Vec:
    out = [Fraction(0)] * split.lattice.rank
    for i in split.l0_indices:
        out[i] = rational(rng, _BOUND)
    return Vec(out)


def integral_l1_vector(split: HyperbolicSplitting, rng: Random) -> Vec:
    out = [0] * split.lattice.rank
    for i in split.l1_indices:
        out[i] = rng.randint(-_INTEGRAL_BOUND, _INTEGRAL_BOUND)
    return Vec(out)


def integral_transvection_atom(split: HyperbolicSplitting, rng: Random) -> TransvectionAtom:
    base = split.e if rng.random() < 0.5 else split.f
    return TransvectionAtom(base, integral_l1_vector(split, rng))


def transvection_word(split: HyperbolicSplitting, rng: Random, length: int) -> GroupWord:
    """Word of integral transvections based at e or f."""
    return GroupWord(split.lattice, tuple(
        integral_transvection_atom(split, rng) for _ in range(length)))


def mixed_word(split: HyperbolicSplitting, rng: Random, length: int,
               roots=None) -> GroupWord:
    """Word mixing integral transvections with root reflections; without
    ``roots`` the norm -2 vectors of a small box, enumerated once per
    lattice."""
    lat = split.lattice
    if roots is None:
        if "roots" not in lat._cache:
            lat._cache["roots"] = lat.enumerate_vectors(-2, 1) or lat.enumerate_vectors(-2, 2)
        roots = lat._cache["roots"]
    atoms = []
    for _ in range(length):
        if roots and rng.random() < 0.4:
            atoms.append(ReflectionAtom(rng.choice(roots)))
        else:
            atoms.append(integral_transvection_atom(split, rng))
    return GroupWord(lat, tuple(atoms))


def integral_isometry(split: HyperbolicSplitting, rng: Random,
                      length: int = 4) -> Isometry:
    return mixed_word(split, rng, length).evaluate()


def isotropic_vector(split: HyperbolicSplitting, rng: Random) -> Vec:
    """Random rational isotropic vector: a rescaled image of e or f
    under a random integral isometry, applied as a word."""
    word = mixed_word(split, rng, rng.randint(0, 4))
    base = split.e if rng.random() < 0.5 else split.f
    return nonzero_rational(rng, 3) * word.apply(base)


def orthogonal_to(lat: Lattice, rng: Random, e: Vec, anisotropic: bool = False) -> Vec:
    """Random rational vector orthogonal to e (nondegeneracy supplies a
    pairing vector to project along): the first basis vector h with
    (h, e) != 0, read off G e, which also gives every (w, e) = (G e).w."""
    ge = lat.gram_apply(e)
    i = next(i for i, x in enumerate(ge) if x)
    h, he = lat.basis_vector(i), Fraction(ge[i])
    while True:
        w = rational_vector(lat, rng)
        a = w - (Fraction(ge.dot(w)) / he) * h
        if not anisotropic or lat.norm(a) != 0:
            return a
