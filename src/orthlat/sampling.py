"""Seeded random generators shared by the identity suite and the tests.

Every function takes an explicit ``random.Random`` so that runs are
reproducible from a single seed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from random import Random

from orthlat.eichler import HyperbolicSplitting
from orthlat.errors import InternalSolveFailureError
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


def _draw(rng: Random, rank: int, indices) -> Vec:
    """Vector of length rank with a rational(rng, _BOUND) draw at each of
    indices, in order, and 0 elsewhere: the numerators drawn by randint
    and the denominators by choice, as rational draws them, over the lcm
    of the denominators."""
    randint, choice = rng.randint, rng.choice
    nums, dens = [0] * rank, [1] * rank
    for i in indices:
        nums[i] = randint(-_BOUND, _BOUND)
        dens[i] = choice(_DENOMS)
    den = lcm(*dens)
    return Vec._raw([n * (den // q) for n, q in zip(nums, dens)], den)


def rational_vector(lat: Lattice, rng: Random) -> Vec:
    return _draw(rng, lat.rank, range(lat.rank))


def l1_vector(split: HyperbolicSplitting, rng: Random) -> Vec:
    """Random rational vector supported away from the first plane."""
    return _draw(rng, split.lattice.rank, split.l1_indices)


def l0_vector(split: HyperbolicSplitting, rng: Random) -> Vec:
    return _draw(rng, split.lattice.rank, split.l0_indices)


def integral_l1_vector(split: HyperbolicSplitting, rng: Random) -> Vec:
    out = [0] * split.lattice.rank
    for i in split.l1_indices:
        out[i] = rng.randint(-_INTEGRAL_BOUND, _INTEGRAL_BOUND)
    return Vec._raw(out)


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
    ``roots`` the norm -2 vectors of box 1, which holds the root e - f,
    enumerated once per lattice."""
    lat = split.lattice
    if roots is None:
        if "roots" not in lat._cache:
            lat._cache["roots"] = lat.enumerate_vectors(-2, 1)
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
    pairing vector to project along): a = w - ((G e).w / g) b for a drawn
    w, where g is the first nonzero entry of G e and b its basis vector.
    With G e negated when g < 0, which leaves a as it is, a has the
    numerators of w times g, less (G e).w at b, over g times the
    denominator of w; so every test is an integer sum.

    Raises InternalSolveFailureError unless (G e).a is 0."""
    ge = lat.gram_apply(e)._ents
    i = next(i for i, x in enumerate(ge) if x)
    if ge[i] < 0:
        ge = [-x for x in ge]
    g = ge[i]
    while True:
        w = rational_vector(lat, rng)
        a = [x * g for x in w._ents]
        a[i] -= sum(map(mul, ge, w._ents))
        if sum(map(mul, ge, a)):
            raise InternalSolveFailureError("projected vector is not orthogonal to e")
        a = Vec._raw(a, w._den * g)
        if not anisotropic or sum(map(mul, a._ents, lat.gram_apply(a)._ents)):
            return a
