"""Isometries of a lattice and of its rational span.

Matrices act on column vectors and a product g*h applies h first.  The
module provides reflections and Eichler transvections, a deterministic
Cartan-Dieudonne decomposition into reflections over Q, spinor norms
valued in square classes, and the membership flags for the subgroup
lattice around the stable orthogonal group.

Group elements that need to certify *how* they were made are carried
as words: sequences of reflection/transvection atoms with an exact
evaluation map.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import NamedTuple

from orthlat import discform
from orthlat.errors import (
    InternalSolveFailureError,
    IsotropicMirrorError,
    NotIntegralError,
    NotIsometryError,
    NotIsotropicError,
    NotOrthogonalError,
    TooLargeError,
)
from orthlat.lattice import Lattice
from orthlat.linalg import Mat, Vec, as_scalar, congruence_diagonalize, parse_scalar


class Isometry:
    """An exact matrix preserving the bilinear form of its lattice.  The
    constructor always runs Lattice.check_isometry; ``_trusted``, the one
    unchecked path, is private to this module (atoms, their products and
    the matrix ``membership`` has checked)."""

    __slots__ = ("lattice", "mat")

    def __init__(self, lattice: Lattice, mat: Mat):
        lattice.check_isometry(mat)
        self.lattice = lattice
        self.mat = mat

    @classmethod
    def _trusted(cls, lattice: Lattice, mat: Mat) -> "Isometry":
        self = object.__new__(cls)
        self.lattice, self.mat = lattice, mat
        return self

    @classmethod
    def identity(cls, lattice: Lattice) -> "Isometry":
        return cls._trusted(lattice, Mat.identity(lattice.rank))

    def det(self) -> int:
        return int(self.mat.det())

    def is_integral(self) -> bool:
        return self.mat.is_integral()

    def apply(self, v) -> Vec:
        return self.mat.apply(v)

    def __mul__(self, other: "Isometry") -> "Isometry":
        """Composition: self after other."""
        if self.lattice != other.lattice:
            raise ValueError("isometries live on different lattices")
        return Isometry._trusted(self.lattice, self.mat @ other.mat)

    def __eq__(self, other):
        return isinstance(other, Isometry) and self.mat == other.mat \
            and self.lattice == other.lattice

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"Isometry({self.mat!r})"


def terms_matrix(lattice: Lattice, terms) -> Mat:
    """Matrix I + sum c x (G z)^T of v -> v + sum c (z, v) x for terms
    given as (c, x, G z), as integer numerators over one denominator."""
    n = lattice.rank
    parts = [(c.numerator, x._ents, gz._ents, c.denominator * x._den * gz._den)
             for c, x, gz in terms]
    den = lcm(*(d for *_, d in parts))
    ents = [den if i == j else 0 for i in range(n) for j in range(n)]
    for cn, xs, gz, d in parts:
        k = cn * (den // d)
        for i, xi in enumerate(xs):
            if xi:
                kx, base = k * xi, i * n
                for j, g in enumerate(gz):
                    ents[base + j] += kx * g
    return Mat._raw(n, n, ents, den)


def rank_update(lattice: Lattice, terms) -> Mat:
    """Matrix of v -> v + sum c (z, v) x over the terms (c, x, z)."""
    return terms_matrix(lattice, [(c, Vec(x), lattice.gram_apply(z)) for c, x, z in terms])


def _left_update(terms, m: Mat) -> Mat:
    """(I + sum c x (G z)^T) M for terms given as (c, x, G z): each row
    (G z)^T M is summed over the nonzero entries of G z and added to the
    rows where x is nonzero, all over one denominator, and the result is
    normalized once."""
    cols = m.m
    rows = [m._ents[i * cols:(i + 1) * cols] for i in range(m.n)]
    parts = [(c.numerator, x._ents, gz._ents, c.denominator * x._den * gz._den)
             for c, x, gz in terms]
    d = lcm(*(dt for *_, dt in parts))
    updates = []
    for cn, xs, gz, dt in parts:
        if cn:
            r = None
            for i, g in enumerate(gz):
                if g:
                    r = ([g * b for b in rows[i]] if r is None
                         else [a + g * b for a, b in zip(r, rows[i])])
            if r is not None:
                updates.append((cn * (d // dt), xs, r))
    out = [[d * a for a in row] for row in rows] if d != 1 else rows
    for k, xs, r in updates:
        for i, xi in enumerate(xs):
            if xi:
                kx = k * xi
                out[i] = [a + kx * b for a, b in zip(out[i], r)]
    return Mat._raw(m.n, cols, [a for row in out for a in row], m._den * d)


def _reflection_terms(lattice: Lattice, a) -> list:
    """The validated term (c, a, G a) of s_a, with (a, a) read off G a."""
    a = Vec(a)
    ga = lattice.gram_apply(a)
    aa = ga.dot(a)
    if aa == 0:
        raise IsotropicMirrorError("mirror vector is isotropic")
    return [(as_scalar(Fraction(-2) / aa), a, ga)]


def _transvection_terms(lattice: Lattice, e, a) -> list:
    """The validated terms (1, e, G z) and (1, a, G e) of t(e, a), where
    z = -a - ((a, a)/2) e.  G z is one integer pass over the numerators
    of G a and G e, over one denominator."""
    e, a = Vec(e), Vec(a)
    ge = lattice.gram_apply(e)
    if ge.dot(e) != 0:
        raise NotIsotropicError("base vector must be isotropic")
    if ge.dot(a) != 0:
        raise NotOrthogonalError("(e, a) must vanish")
    ga = lattice.gram_apply(a)
    # (a, a)/2 = p/q in lowest terms
    p, q = sum(map(mul, ga._ents, a._ents)), 2 * ga._den * a._den
    g = gcd(p, q)
    p, q = p // g, q // g
    # G z = -G a - (p/q) G e over the denominator ga._den * q * ge._den
    ka, ke = q * ge._den, p * ga._den
    gz = Vec._raw([-x * ka - y * ke for x, y in zip(ga._ents, ge._ents)],
                  ga._den * q * ge._den)
    return [(1, e, gz), (1, a, ge)]


def reflection(lattice: Lattice, a) -> Isometry:
    """Reflection in the mirror a: v -> v - 2(a,v)/(a,a) a."""
    return Isometry._trusted(lattice, terms_matrix(lattice, _reflection_terms(lattice, a)))


def transvection(lattice: Lattice, e, a) -> Isometry:
    """Unipotent map v -> v - (a,v)e + (e,v)a - (a,a)/2 (e,v)e for
    isotropic e and a orthogonal to e.  Rational e, a are allowed."""
    return Isometry._trusted(lattice, terms_matrix(lattice, _transvection_terms(lattice, e, a)))


# ---------------------------------------------------------------------
# words of generators

# Most atoms whose terms one lattice keeps: a transport pass validates
# about 300 atoms per lattice and a suite run up to 1,110 on one, and a
# full cache is emptied by its next insert.
ATOM_TERMS_CACHE_LIMIT = 4096


class _AtomAction:
    """Atoms act on vectors in words, and build their matrix, from one
    set of validated rank-update terms (c, x, G z) per lattice."""

    __slots__ = ()

    def to_isometry(self, lattice: Lattice) -> Isometry:
        return Isometry._trusted(lattice, terms_matrix(lattice, self._cached_terms(lattice)))

    def _cached_terms(self, lattice: Lattice) -> list:
        """terms(lattice), validated once per lattice and kept in its
        cache under the atom (atoms are immutable tuples), which is
        cleared when it holds ATOM_TERMS_CACHE_LIMIT atoms.  An atom that
        fails validation raises on every call and is never stored."""
        cache = lattice._cache.setdefault("atom_terms", {})
        terms = cache.get(self)
        if terms is None:
            terms = self.terms(lattice)
            if len(cache) >= ATOM_TERMS_CACHE_LIMIT:
                cache.clear()
            cache[self] = terms
        return terms


class ReflectionAtom(namedtuple("ReflectionAtom", "mirror"), _AtomAction):
    __slots__ = ()

    def terms(self, lattice: Lattice) -> list:
        return _reflection_terms(lattice, self.mirror)

    def inverse(self) -> "ReflectionAtom":
        return self

    def is_integral(self) -> bool:
        return self.mirror.is_integral()

    def to_json(self) -> dict:
        return {"type": "reflection", "mirror": [str(x) for x in self.mirror]}


class TransvectionAtom(namedtuple("TransvectionAtom", "e a"), _AtomAction):
    __slots__ = ()

    def terms(self, lattice: Lattice) -> list:
        return _transvection_terms(lattice, self.e, self.a)

    def inverse(self) -> "TransvectionAtom":
        return TransvectionAtom(self.e, -self.a)

    def is_integral(self) -> bool:
        return self.e.is_integral() and self.a.is_integral()

    def to_json(self) -> dict:
        return {
            "type": "transvection",
            "e": [str(x) for x in self.e],
            "a": [str(x) for x in self.a],
        }


Atom = ReflectionAtom | TransvectionAtom


def atom_from_json(data: dict) -> Atom:
    kind = data["type"]
    if kind == "reflection":
        return ReflectionAtom(Vec(parse_scalar(x) for x in data["mirror"]))
    if kind == "transvection":
        return TransvectionAtom(
            Vec(parse_scalar(x) for x in data["e"]),
            Vec(parse_scalar(x) for x in data["a"]),
        )
    raise ValueError(f"unknown atom type {kind!r}")


class GroupWord:
    """A word g1 g2 ... gk of atoms acting as v -> g1(g2(...gk(v))),
    i.e. the rightmost atom applies first."""

    __slots__ = ("lattice", "atoms")

    def __init__(self, lattice: Lattice, atoms=()):
        self.lattice = lattice
        self.atoms = tuple(atoms)

    def __len__(self):
        return len(self.atoms)

    def evaluate(self) -> Isometry:
        """The product g1 g2 ... gk: the matrix of gk from its terms, then
        each atom to its left as a rank update of the running matrix."""
        lat = self.lattice
        if not self.atoms:
            return Isometry.identity(lat)
        *rest, last = self.atoms
        m = terms_matrix(lat, last._cached_terms(lat))
        for atom in reversed(rest):
            m = _left_update(atom._cached_terms(lat), m)
        return Isometry._trusted(lat, m)

    def inverse(self) -> "GroupWord":
        return GroupWord(self.lattice, tuple(a.inverse() for a in reversed(self.atoms)))

    def then(self, other: "GroupWord") -> "GroupWord":
        """Word equal to self applied after other."""
        return GroupWord(self.lattice, self.atoms + other.atoms)

    def apply(self, v) -> Vec:
        """g1(g2(...gk(v))) in one integer pass, with no matrix built.

        v is held as a list of integer numerators over one denominator.
        Each atom, rightmost first, updates it in place by its cached
        terms (c, x, G z): every (z, v) is one integer dot product of the
        numerators of G z and of v as the atom found it, and c (z, v) x
        is added over the common denominator, with no gcd taken while
        every denominator is 1.  The result is normalized once.  For a v
        of the wrong length, an invalid rightmost atom raises its own
        error before "shape mismatch", as on the matrix path."""
        v = Vec(v)
        lat = self.lattice
        if len(v._ents) != lat.rank:
            if self.atoms:
                self.atoms[-1]._cached_terms(lat)
            raise ValueError("shape mismatch")
        out, den = list(v._ents), v._den
        for atom in reversed(self.atoms):
            terms = atom._cached_terms(lat)
            vd = den
            pairings = [sum(map(mul, gz._ents, out)) for _, _, gz in terms]
            for (c, x, gz), s in zip(terms, pairings):
                if s:
                    # c (z, v) x is kn / kd times the numerators of x
                    kn, kd = c.numerator * s, c.denominator * gz._den * vd * x._den
                    if kd != 1:
                        g = gcd(kn, kd)
                        kn, kd = kn // g, kd // g
                    if kd != den:
                        d = lcm(den, kd)
                        if d != den:
                            out = [a * (d // den) for a in out]
                            den = d
                        kn *= d // kd
                    for i, xi in enumerate(x._ents):
                        if xi:
                            out[i] += kn * xi
        return Vec._raw(out, den)

    def is_integral(self) -> bool:
        return all(a.is_integral() for a in self.atoms)

    def to_json(self) -> list:
        return [a.to_json() for a in self.atoms]

    @classmethod
    def from_json(cls, lattice: Lattice, data: list) -> "GroupWord":
        return cls(lattice, [atom_from_json(d) for d in data])

    def __repr__(self):
        return f"GroupWord({len(self.atoms)} atoms)"


# ---------------------------------------------------------------------
# Cartan-Dieudonne decomposition and spinor norms

def _orthogonal_basis(lattice: Lattice, order=None) -> list[Vec]:
    """An orthogonal rational basis, from symmetric elimination of the
    Gram matrix; ``order`` permutes the starting basis first."""
    n = lattice.rank
    order = list(range(n) if order is None else order)
    gram = lattice.gram._ents
    cols, _ = congruence_diagonalize(
        Mat._raw(n, n, [gram[i * n + j] for i in order for j in order], 1))
    # entry k of a column is coordinate order[k]: coordinate i is entry where[i]
    where = sorted(range(n), key=order.__getitem__)
    return [Vec._raw([c._ents[k] for k in where], c._den) for c in cols]


def cartan_dieudonne(g: Isometry, order=None) -> list[Vec]:
    """Mirror vectors v1, ..., vm with g == s_{v1} * ... * s_{vm}.

    Walks a fixed orthogonal basis; each step fixes one more basis
    vector, reflecting by w - g(w) when that is anisotropic and falling
    back to the two-mirror step (by w + g(w), then w) otherwise.  Each
    mirror is folded into the running matrix by one left rank update.
    At most 2*rank mirrors, all anisotropic, fully deterministic.
    """
    lattice = g.lattice
    mirrors: list[Vec] = []
    h = g.mat
    for w in _orthogonal_basis(lattice, order):
        hw = h.apply(w)
        if hw == w:
            continue
        d = w - hw
        try:
            step = [(d, _reflection_terms(lattice, d))]
        except IsotropicMirrorError:
            step = [(m, _reflection_terms(lattice, m)) for m in (w + hw, w)]
        for m, terms in step:
            h = _left_update(terms, h)
            mirrors.append(m)
    if h != Mat.identity(lattice.rank):
        raise NotIsometryError("decomposition failed to terminate at the identity")
    # s_{m_k} ... s_{m_1} g = 1, so g = s_{m_1} ... s_{m_k}
    return mirrors


# Most trial divisors one factorisation may try: about 0.3 s of CPU, and
# far more than any rational isometry in the tests or the suite needs.
TRIAL_DIVISOR_BUDGET = 10 ** 6


def _factor(n: int) -> list[tuple[int, int]]:
    """Prime factorisation [(p, e), ...] of n >= 1 by trial division;
    TooLargeError once it needs more than TRIAL_DIVISOR_BUDGET divisors."""
    out, f, tried = [], 2, 0
    while f * f <= n:
        tried += 1
        if tried > TRIAL_DIVISOR_BUDGET:
            raise TooLargeError(
                f"factoring needs more than {TRIAL_DIVISOR_BUDGET} trial divisors")
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def squarefree_class(x) -> int:
    """Canonical representative of x in Q*/(Q*)^2: a signed squarefree
    integer, computed by clearing the denominator and stripping square
    factors by trial division."""
    x = Fraction(as_scalar(x))
    if x == 0:
        raise ValueError("0 has no square class")
    n = x.numerator * x.denominator
    return (-1 if n < 0 else 1) * prod(p for p, e in _factor(abs(n)) if e % 2)


def class_mul(a: int, b: int) -> int:
    return squarefree_class(a * b)


def _integral_square_class(x: Fraction, lattice: Lattice) -> int:
    """Square class of the spinor norm x of an integral isometry.

    Over Z_p for p not dividing 2 det(L) the lattice is unimodular, and
    its isometries have spinor norms of even valuation (Kneser 1956).
    So the part of x on primes outside 2 det(L), split off by gcds, is
    checked to be a perfect square, and only the rest is factored."""
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    n, d, smooth = abs(n), 2 * abs(lattice.det()), 1
    while (g := gcd(n, d)) > 1:
        n //= g
        smooth *= g
    r = isqrt(n)
    if r * r != n:
        raise InternalSolveFailureError(
            "spinor norm has odd valuation at a prime not dividing 2 det(L)")
    return sign * prod(p for p, e in _factor(smooth) if e % 2)


def spinor_norm_q(g: Isometry, order=None) -> int:
    """Spinor norm over Q as a signed squarefree integer: the product of
    -(v,v)/2 over any reflection decomposition.  For integral g only the
    part on the primes of 2 det(L) is factored; a rational g is factored
    whole.  Trial division stops at TRIAL_DIVISOR_BUDGET."""
    acc = Fraction(1)
    for m in cartan_dieudonne(g, order):
        acc *= -Fraction(g.lattice.norm(m)) / 2
    if g.is_integral():
        return _integral_square_class(acc, g.lattice)
    return squarefree_class(acc)


# ---------------------------------------------------------------------
# membership flags

class Membership(NamedTuple):
    in_o: bool
    in_so: bool
    in_o_plus: bool
    in_stable: bool
    in_stable_plus: bool
    in_stable_so_plus: bool
    in_spinorial_kernel: bool

    def to_json(self) -> dict:
        return {
            "inO": self.in_o,
            "inSO": self.in_so,
            "inOplus": self.in_o_plus,
            "inStable": self.in_stable,
            "inStablePlus": self.in_stable_plus,
            "inStableSOplus": self.in_stable_so_plus,
            "inSpinorialKernel": self.in_spinorial_kernel,
        }


_ALL_FALSE = Membership(False, False, False, False, False, False, False)


def membership(lattice: Lattice, mat: Mat) -> Membership:
    """Subgroup flags for an arbitrary matrix; all False when it is not
    an integral isometry of the lattice."""
    try:
        stable = discform.is_stable(lattice, mat)
    except (NotIntegralError, NotIsometryError):
        return _ALL_FALSE
    g = Isometry._trusted(lattice, mat)
    so = g.det() == 1
    sn_q = spinor_norm_q(g)
    o_plus = sn_q > 0
    return Membership(
        in_o=True,
        in_so=so,
        in_o_plus=o_plus,
        in_stable=stable,
        in_stable_plus=stable and o_plus,
        in_stable_so_plus=stable and o_plus and so,
        in_spinorial_kernel=so and sn_q == 1,
    )
