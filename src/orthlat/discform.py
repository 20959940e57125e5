"""The finite quadratic form on the discriminant group D(L) = L*/L.

The group is read off the Smith normal form of the Gram matrix: with
U G V = S, the classes of the columns of (U G)^{-1} at the nontrivial
invariant factors generate D(L).  The quadratic form takes values in
Q/2Z (stored normalized to [0, 2)) and the bilinear form in Q/Z
(stored in [0, 1)).

Also here: the reduction O(L) -> O(D(L)), the stability test that cuts
out the stable orthogonal group, and brute-force enumeration of the
full automorphism group of (D, q).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from orthlat.errors import (
    NotIsometryError,
    NotPrimitiveError,
    TooLargeError,
)
from orthlat.lattice import Lattice
from orthlat.linalg import Mat, Vec


def _mod(x, modulus) -> Fraction:
    x = Fraction(x)
    return x - (x / modulus).__floor__() * modulus


class DiscriminantForm:
    """D(L) with its Q/2Z-valued quadratic form."""

    __slots__ = ("lattice", "orders", "generators", "_idx", "_umat", "_gen_gram",
                 "_gram_rows", "_class_rows")

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        u, s, _ = lattice.snf()
        n = lattice.rank
        idx = [i for i in range(n) if int(s[i, i]) != 1]
        self._idx = tuple(idx)
        self.orders = tuple(int(s[i, i]) for i in idx)
        self._umat = u
        self._gram_rows = lattice.gram.int_rows()
        urows = u.int_rows()
        self._class_rows = [urows[i] for i in idx]
        w = (u @ lattice.gram).inv()
        self.generators = tuple(w.col(i) for i in idx)
        self._gen_gram = [
            [Fraction(lattice.inner(a, b)) for b in self.generators]
            for a in self.generators
        ]

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

    def class_of_dual(self, x) -> "DiscElement":
        """Class of a vector of the dual lattice given in L-coordinates."""
        gx = self.lattice.gram.apply(x)
        if not gx.is_integral():
            raise ValueError("vector is not in the dual lattice")
        c = self._umat.apply(gx)
        return self.element([int(c[i]) for i in self._idx])

    def primitive_invariant(self, v) -> tuple[int, int, "DiscElement"]:
        """(v.v, div(v), class of v/div(v)) of a primitive lattice vector,
        in one integer pass: with g = G v and d = gcd(g), the class has
        coordinates (U g/d)[idx] mod orders.  A vector that is zero,
        not integral or not primitive raises NotPrimitiveError, before
        a wrong length raises ValueError."""
        v = Vec(v)
        if not self.lattice.is_primitive(v):
            raise NotPrimitiveError("class_of needs a primitive vector")
        if len(v) != self.lattice.rank:
            raise ValueError("shape mismatch")
        g = [sum(map(mul, row, v)) for row in self._gram_rows]
        d = gcd(*g)
        w = [x // d for x in g]
        coords = tuple(sum(map(mul, row, w)) % o
                       for row, o in zip(self._class_rows, self.orders))
        return sum(map(mul, v, g)), d, DiscElement(self, coords)

    def q(self, elem: "DiscElement") -> Fraction:
        acc = Fraction(0)
        cs = elem.coords
        for i, ci in enumerate(cs):
            if ci:
                acc += ci * ci * self._gen_gram[i][i]
                for j in range(i):
                    acc += 2 * ci * cs[j] * self._gen_gram[i][j]
        return _mod(acc, 2)

    def b(self, x: "DiscElement", y: "DiscElement") -> Fraction:
        acc = Fraction(0)
        for i, ci in enumerate(x.coords):
            if ci:
                for j, dj in enumerate(y.coords):
                    if dj:
                        acc += ci * dj * self._gen_gram[i][j]
        return _mod(acc, 1)


@dataclass(frozen=True)
class DiscElement:
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

    def q(self) -> Fraction:
        return self.form.q(self)

    def is_zero(self) -> bool:
        return not any(self.coords)

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

@dataclass(frozen=True)
class DiscAutomorphism:
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
    aut = DiscAutomorphism(form, images)
    gens = identity_automorphism(form).images
    for i, (gen, img) in enumerate(zip(gens, images)):
        if form.q(img) != form.q(gen):
            raise NotIsometryError("induced map does not preserve q")
        for j in range(i):
            if form.b(img, images[j]) != form.b(gen, gens[j]):
                raise NotIsometryError("induced map does not preserve b")
    return aut


def is_stable(lattice: Lattice, mat: Mat) -> bool:
    """Whether the isometry acts trivially on D(L)."""
    aut = induced_map(lattice, mat)
    return aut.key() == identity_automorphism(discriminant_form(lattice)).key()


def enumerate_orth_d(form: DiscriminantForm, cap: int = 10000) -> list[DiscAutomorphism]:
    """Brute-force list of all automorphisms of D preserving q.

    Searches tuples of generator images, pruning on element order and
    q-value, then on the pairwise bilinear products.  Deterministic
    (lexicographic) order.

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
    k = len(form.orders)
    if k == 0:
        return [identity_automorphism(form)]
    gens = identity_automorphism(form).images
    elements = form.elements()
    candidates = []
    for i, g in enumerate(gens):
        qi = form.q(g)
        di = g.order()
        candidates.append([x for x in elements if x.order() == di and form.q(x) == qi])

    target_b = [[form.b(gens[i], gens[j]) for j in range(k)] for i in range(k)]
    out = []
    chosen: list[DiscElement] = []

    def dfs(i):
        if i == k:
            out.append(DiscAutomorphism(form, tuple(chosen)))
            return
        for x in candidates[i]:
            ok = True
            for j in range(i):
                if form.b(x, chosen[j]) != target_b[i][j]:
                    ok = False
                    break
            if ok:
                chosen.append(x)
                dfs(i + 1)
                chosen.pop()

    dfs(0)
    return out
