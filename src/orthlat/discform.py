"""The finite quadratic form on the discriminant group D(L) = L*/L.

The group is read off the Smith normal form of the Gram matrix: with
U G V = S, (U G)^{-1} = V S^{-1}, so the classes of g_i = V[:, i] / s_i
at the nontrivial invariant factors s_i generate D(L).  The form is
held as one integer table T[i][j] = N (g_i, g_j), N = lcm(orders) the
exponent of D: for x = sum c_i g_i, q(x) = c^T T c / N in Q/2Z
(returned normalized to [0, 2)) and b(x, y) = c^T T c' / N in Q/Z
(returned in [0, 1)).

Also here: the reduction O(L) -> O(D(L)), the stability test that cuts
out the stable orthogonal group, and brute-force enumeration of the
full automorphism group of (D, q).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from orthlat.errors import (
    InternalSolveFailureError,
    NotIsometryError,
    NotPrimitiveError,
    TooLargeError,
)
from orthlat.lattice import Lattice
from orthlat.linalg import Mat, Vec

# Most multiply-adds the pairings b(x, y) of one O(D) search may cost,
# k per pairing for k generators: 2.3 times the 1,307,664 * 4 that
# 2U+2A2(-3) (|O(D)| = 15552) needs.
ORTH_D_PAIRING_BUDGET = 12 * 10 ** 6


class DiscriminantForm:
    """D(L) with its Q/2Z-valued quadratic form."""

    __slots__ = ("lattice", "orders", "exponent", "generators", "_table",
                 "_class_rows", "_elements")

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        u, s, v = lattice.snf()
        idx = [i for i in range(lattice.rank) if int(s[i, i]) != 1]
        self.orders = tuple(int(s[i, i]) for i in idx)
        self.exponent = n = lcm(*self.orders)
        urows, vrows = u.int_rows(), v.int_rows()
        self._class_rows = [urows[i] for i in idx]
        cols = [[row[i] for row in vrows] for i in idx]
        self.generators = tuple(Vec(c) / d for c, d in zip(cols, self.orders))
        gv = [lattice.gram_apply(c)._ents for c in cols]
        pairs = [[divmod(n * sum(map(mul, c, g)), si * sj) for g, sj in zip(gv, self.orders)]
                 for c, si in zip(cols, self.orders)]
        if any(r for row in pairs for _, r in row):
            raise InternalSolveFailureError("N (g_i, g_j) is not an integer")
        self._table = [[t for t, _ in row] for row in pairs]
        self._elements = {}

    def __len__(self) -> int:
        return prod(self.orders)

    def __repr__(self):
        return f"DiscriminantForm(orders={list(self.orders)})"

    def element(self, coords) -> "DiscElement":
        coords = tuple(int(c) % d for c, d in zip(coords, self.orders, strict=True))
        return DiscElement(self, coords)

    @property
    def zero(self) -> "DiscElement":
        return self.element([0] * len(self.orders))

    def elements(self) -> list["DiscElement"]:
        """All elements, in lexicographic coordinate order."""
        return [DiscElement(self, c) for c in product(*(range(d) for d in self.orders))]

    def _element(self, coords: tuple[int, ...]) -> "DiscElement":
        """The element with reduced coordinates ``coords``, built once."""
        elem = self._elements.get(coords)
        if elem is None:
            elem = self._elements[coords] = DiscElement(self, coords)
        return elem

    def _coords(self, g) -> tuple[int, ...]:
        """Class coordinates of y in L* from the integer vector g = G y."""
        return tuple(sum(map(mul, row, g)) % o
                     for row, o in zip(self._class_rows, self.orders))

    def _row(self, coords) -> list[int]:
        """T c: N times the pairings of sum c_i g_i with the generators."""
        return [sum(map(mul, row, coords)) for row in self._table]

    def class_of_dual(self, x) -> "DiscElement":
        """Class of a vector of the dual lattice given in L-coordinates."""
        gx = self.lattice.gram_apply(x)
        if not gx.is_integral():
            raise ValueError("vector is not in the dual lattice")
        return DiscElement(self, self._coords(gx))

    def primitive_invariant(self, v) -> tuple[int, int, "DiscElement"]:
        """(v.v, div(v), class of v/div(v)) of a primitive lattice vector,
        in one integer pass: one Gram product g = G v, then
        divisor_and_class(g).  A vector that is zero, not integral or
        not primitive raises NotPrimitiveError, before a wrong length
        raises ValueError."""
        v = Vec(v)
        ents = v._ents
        if v._den != 1 or gcd(*ents) != 1:
            raise NotPrimitiveError("class_of needs a primitive vector")
        g = self.lattice.gram_apply(v)._ents
        d, coords = self.divisor_and_class(g)
        return sum(map(mul, ents, g)), d, self._element(coords)

    def divisor_and_class(self, g) -> tuple[int, tuple[int, ...]]:
        """(d, coordinates of the class of v/d) from the integers
        g = G v of a nonzero lattice vector v, with d = gcd(g) = div(v):
        the class has coordinates (U g/d)[idx] mod orders."""
        d = gcd(*g)
        if d != 1:
            g = [x // d for x in g]
        return d, self._coords(g)

    def q(self, elem: "DiscElement") -> Fraction:
        n = self.exponent
        return Fraction(sum(map(mul, self._row(elem.coords), elem.coords)) % (2 * n), n)

    def b(self, x: "DiscElement", y: "DiscElement") -> Fraction:
        n = self.exponent
        return Fraction(sum(map(mul, self._row(x.coords), y.coords)) % n, n)


class DiscElement(NamedTuple):
    form: DiscriminantForm
    coords: tuple[int, ...]

    def __add__(self, other):
        return self.form.element(a + b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return self.form.element(-a for a in self.coords)

    def __mul__(self, k: int):
        return self.form.element(a * k for a in self.coords)

    __rmul__ = __mul__

    def order(self) -> int:
        o = 1
        for c, d in zip(self.coords, self.form.orders):
            o = lcm(o, d // gcd(c, d))
        return o

    def __eq__(self, other):
        return isinstance(other, DiscElement) and self.coords == other.coords \
            and self.form.lattice == other.form.lattice

    def __hash__(self):
        return hash(self.coords)


def discriminant_form(lattice: Lattice) -> DiscriminantForm:
    if "disc" not in lattice._cache:
        lattice._cache["disc"] = DiscriminantForm(lattice)
    return lattice._cache["disc"]


def class_of(lattice: Lattice, v) -> DiscElement:
    """Class of v/div(v) in D(L); its order equals div(v)."""
    return discriminant_form(lattice).primitive_invariant(v)[2]


# ---------------------------------------------------------------------
# automorphisms of (D, q) and the reduction from O(L)

class DiscAutomorphism(NamedTuple):
    form: DiscriminantForm
    images: tuple[DiscElement, ...]   # images of the generators

    def apply(self, elem: DiscElement) -> DiscElement:
        out = self.form.zero
        for c, img in zip(elem.coords, self.images):
            if c:
                out = out + c * img
        return out

    def compose(self, other: "DiscAutomorphism") -> "DiscAutomorphism":
        return DiscAutomorphism(self.form, tuple(self.apply(i) for i in other.images))

    def is_identity(self) -> bool:
        return self.key() == identity_automorphism(self.form).key()

    def key(self) -> tuple:
        return tuple(img.coords for img in self.images)

    def __eq__(self, other):
        return isinstance(other, DiscAutomorphism) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def identity_automorphism(form: DiscriminantForm) -> DiscAutomorphism:
    gens = [form.element([1 if j == i else 0 for j in range(len(form.orders))])
            for i in range(len(form.orders))]
    return DiscAutomorphism(form, tuple(gens))


def induced_map(lattice: Lattice, mat: Mat) -> DiscAutomorphism:
    """Action of an integral isometry on D(L)."""
    lattice.check_isometry(mat, integral=True)
    form = discriminant_form(lattice)
    images = tuple(form.class_of_dual(mat.apply(g)) for g in form.generators)
    n, t = form.exponent, form._table
    for i, img in enumerate(images):
        row = form._row(img.coords)
        if (sum(map(mul, row, img.coords)) - t[i][i]) % (2 * n):
            raise NotIsometryError("induced map does not preserve q")
        for j in range(i):
            if (sum(map(mul, row, images[j].coords)) - t[i][j]) % n:
                raise NotIsometryError("induced map does not preserve b")
    return DiscAutomorphism(form, images)


def is_stable(lattice: Lattice, mat: Mat) -> bool:
    """Whether the integral isometry g acts trivially on D(L): (g - 1) L* in L,
    tested on the generators of D.  Raises as check_isometry."""
    lattice.check_isometry(mat, integral=True)
    return all((mat.apply(g) - g).is_integral()
               for g in discriminant_form(lattice).generators)


def enumerate_orth_d(form: DiscriminantForm, cap: int = 10000) -> list[DiscAutomorphism]:
    """Brute-force list of all automorphisms of D preserving q.

    Searches tuples of generator images, pruning on element order and
    q-value, then on the pairwise bilinear products, compared as
    integers N b(x, y) mod N against each candidate's b-row T c, which
    is computed once.  Deterministic (lexicographic) order.  Raises
    TooLargeError when |D| exceeds cap, and when its pairings cost more
    than ORTH_D_PAIRING_BUDGET multiply-adds (k for each of the k-term
    dot products), before it builds any automorphism.

    Every tuple that survives is an automorphism, so no generation test
    is needed.  D is the direct sum of the cyclic groups <g_i> of order
    d_i, and each image x_i has order d_i, so g_i -> x_i extends to a
    homomorphism phi of D.  phi preserves q on the generators and b on
    distinct pairs of them; as b(x, x) = q(x) mod 1, it preserves b on
    all pairs, hence everywhere by bilinearity, and then q everywhere
    by q(x + y) = q(x) + q(y) + 2 b(x, y) mod 2.  If phi(y) = 0 then
    b(y, x) = b(0, phi(x)) = 0 for every x, so y = 0 because b is
    nondegenerate: phi is injective and, D being finite, bijective.
    """
    if len(form) > cap:
        raise TooLargeError(f"|D| = {len(form)} exceeds cap {cap}")
    budget = ORTH_D_PAIRING_BUDGET
    k, n, t = len(form.orders), form.exponent, form._table
    elements = [(x.coords, x.order(), form._row(x.coords)) for x in form.elements()]
    candidates = [[(c, row) for c, o, row in elements
                   if o == d and (sum(map(mul, row, c)) - t[i][i]) % (2 * n) == 0]
                  for i, d in enumerate(form.orders)]
    found = []
    chosen: list[tuple[int, ...]] = []

    def dfs(i, work):
        if i == k:
            found.append(tuple(chosen))
            return work
        target = [t[i][j] % n for j in range(i)]
        for x, row in candidates[i]:
            for y, b in zip(chosen, target):
                work += k
                if sum(map(mul, row, y)) % n != b:
                    break
            else:
                chosen.append(x)
                work = dfs(i + 1, work)
                chosen.pop()
            if work > budget:
                raise TooLargeError(
                    f"O(D) search needs more than {budget} multiply-adds")
        return work

    dfs(0, 0)
    return [DiscAutomorphism(form, tuple(DiscElement(form, c) for c in imgs))
            for imgs in found]
