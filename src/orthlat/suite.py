"""Batch identity suite: every displayed relation the library is built
on, run over seeded random instances, with a machine-readable report.

A relation among atoms is two words, one evaluation on each side; a
conjugation g t g^-1 == t' is checked as g t == t' g.  The report is
deterministic for a fixed seed (single-threaded, fixed check order,
sorted JSON keys downstream).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from random import Random

from orthlat import commutators, jacobi, sampling
from orthlat.eichler import standard_splitting
from orthlat.errors import WrongNormError
from orthlat.isometry import GroupWord, ReflectionAtom as sigma, TransvectionAtom as t
from orthlat.lattice import build

IDENTITY_LATTICES = ("2U+A2", "2U+<-2>", "2U+<-4>", "2U+<-6>", "2U+<-8>", "2U+<-10>")


def _check(name, trials, ok, note=""):
    return {"name": name, "trials": trials, "pass": bool(ok), "note": note}


def _holds(name, trials, relation, note=""):
    """The check that relation() holds on each of trials draws.  The
    first failure ends the run, so no later draw is taken from the
    stream.  A certificate builder checks its word against its target
    and raises WrongNormError when they differ: that is a failure too."""
    try:
        ok = all(relation() for _ in range(trials))
    except WrongNormError:
        ok = False
    return _check(name, trials, ok, note)


def _same(lat, lhs, rhs) -> bool:
    """Whether the atom tuples lhs and rhs have the same product."""
    return GroupWord(lat, lhs).evaluate() == GroupWord(lat, rhs).evaluate()


def _eafor(split, rng):
    e = sampling.isotropic_vector(split, rng)
    a = sampling.orthogonal_to(split.lattice, rng, e)
    return e, a


def _additivity(split, rng) -> bool:
    lat = split.lattice
    e, a = _eafor(split, rng)
    b = sampling.orthogonal_to(lat, rng, e)
    return (_same(lat, (t(e, a), t(e, b)), (t(e, a + b),))
            and _same(lat, (t(e, a), t(e, -a)), ()))


def _conjugation(split, rng) -> bool:
    lat = split.lattice
    e, a = _eafor(split, rng)
    w = sampling.mixed_word(split, rng, rng.randint(1, 4))
    return _same(lat, w.atoms + (t(e, a),), (t(w.apply(e), w.apply(a)),) + w.atoms)


def _rescaling(split, rng) -> bool:
    lat = split.lattice
    e, a = _eafor(split, rng)
    x = sampling.nonzero_rational(rng)
    return (_same(lat, (t(x * e, a),), (t(e, x * a),))
            and _same(lat, (t(e, x * e),), ()))


def _two_reflection_form(split, rng) -> bool:
    lat = split.lattice
    e = sampling.isotropic_vector(split, rng)
    a = sampling.orthogonal_to(lat, rng, e, anisotropic=True)
    second = a + (Fraction(lat.norm(a)) / 2) * e
    return _same(lat, (sigma(a), sigma(second)), (t(e, a),))


def _reflection_pair(split, rng) -> bool:
    """The pair at a draw a in L1, drawn again while (a, a) is 0: an
    isotropic a is no mirror."""
    lat = split.lattice
    e, f = split.e, split.f
    while True:
        a = sampling.l1_vector(split, rng)
        n = lat.norm(a)
        if n != 0:
            break
    beta = Fraction(2, n)
    return _same(lat, (t(f, a), t(e, beta * a), t(f, a)),
                 (sigma(a), sigma(e + (Fraction(n) / 2) * f)))


# (name, relation(split, rng) -> bool, note), in the order the suite runs them
TRANSVECTION_RELATIONS = (
    ("transvection additivity and inverse", _additivity, ""),
    ("transvection conjugation", _conjugation,
     "second argument transported alongside the base vector"),
    ("transvection rescaling", _rescaling, ""),
    ("two-reflection factorization", _two_reflection_form,
     "mirror a applied last under the column convention"),
    ("three-transvection reflection pair", _reflection_pair,
     "second mirror e + ((a,a)/2) f"),
)


def run_identity_block(spec: str, rng, trials: int) -> list[dict]:
    split = standard_splitting(build(spec))
    return [{**_holds(name, trials, partial(relation, split, rng), note), "lattice": spec}
            for name, relation, note in TRANSVECTION_RELATIONS]


def run_jacobi_block(rng) -> list[dict]:
    _, split = jacobi.jacobi_lattice(build("A2"))
    vectors = [[rng.randint(-3, 3), rng.randint(-3, 3)] for _ in range(10)]
    checks = jacobi.verify_plane_identities(split, vectors) + [
        c for level in (1, 2, 5) for c in jacobi.paramodular_flip_check(level)]
    return [_check(f"jacobi: {c.name}", 1, c.holds, c.note) for c in checks]


def _transvection_certificate(split, rng) -> bool:
    c = commutators.certificate_transvection(split, sampling.l1_vector(split, rng))
    return c.groups_are_commutators() and c.target.det() == 1


def _plane_commutators(split, rng) -> bool:
    u = sampling.l0_vector(split, rng)
    v = sampling.l0_vector(split, rng)
    s = sampling.rational(rng, 3)
    # each builder has checked its word against its target (see _holds)
    commutators.heisenberg_commutator(split, s, u)
    ct = commutators.triple_product(split, s, u, v)
    return ct.groups_are_commutators()


def _master_scaling(split, rng) -> bool:
    """The master identity at a draw (w, s), drawn again while the scale
    1 - s (w, w)/2 is 0."""
    while True:
        w = sampling.l1_vector(split, rng)
        s = sampling.rational(rng, 3)
        if 1 - s * Fraction(split.lattice.norm(w)) / 2 != 0:
            return commutators.verify_master_identity(split, w, s)


def run_commutator_block(rng) -> list[dict]:
    split = standard_splitting(build("2U+A2"))
    out = [_holds("master scaling rule", 50, partial(_master_scaling, split, rng))]

    out.append(_holds("four-transvection word for P(4)", 1, lambda: (
        commutators.certificate_p4(split).target == commutators.p_map(split, 4))))

    pword = commutators.p_reflection_word(split, 4)
    out.append(_check("P(s) as two reflections", 1,
                      pword.evaluate() == commutators.p_map(split, 4),
                      note="mirror e - s f applied second"))

    out.append(_holds("transvection commutator certificates", 20,
                      partial(_transvection_certificate, split, rng)))
    out.append(_holds("plane commutator identities", 20,
                      partial(_plane_commutators, split, rng),
                      note="third factor of the triple product inverted"))
    return out


def run_suite(seed: int = 0) -> dict:
    rng = Random(seed)
    checks = []
    checks.extend(run_identity_block("2U+A2", rng, 50))
    for spec in IDENTITY_LATTICES[1:]:
        checks.extend(run_identity_block(spec, rng, 10))
    checks.extend(run_jacobi_block(rng))
    checks.extend(run_commutator_block(rng))
    return {
        "seed": seed,
        "checks": checks,
        "allPass": all(c["pass"] for c in checks),
    }
