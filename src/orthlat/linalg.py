"""Exact linear algebra over the integers and rationals.

Scalars are Python ints and ``fractions.Fraction``.  Vectors and
matrices share one representation: integer numerators over a single
positive denominator, normalized so that the gcd of all numerators with
the denominator is 1.  Reading an entry gives its canonical scalar, an
int when integral and a reduced Fraction otherwise.  Equality is exact
and nothing here ever touches floating point.

Besides the ``Vec``/``Mat`` containers this module provides the two
integral workhorses used everywhere else: Smith normal form with
unimodular transforms, and exact congruence diagonalization of
symmetric matrices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from orthlat import kernels
from orthlat.errors import DegenerateFormError

Scalar = int | Fraction


def as_scalar(x) -> Scalar:
    """Coerce to an exact scalar, collapsing Fractions with denominator 1."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def parse_scalar(s) -> Scalar:
    """Exact canonical scalar from its JSON text form, "p/q" or a
    decimal integer: "4/2" gives the int 2.

    Raises ValueError on malformed text or a zero denominator."""
    s = str(s)
    if "/" in s:
        p, q = s.split("/", 1)
        p, q = int(p), int(q)
        if q == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return as_scalar(Fraction(p, q))
    return int(s)


def _normalize(ents, den):
    """Numerators and positive denominator divided by their common gcd
    (none to take over the denominator 1)."""
    ents = tuple(ents)
    if den == 1:
        return ents, 1
    g = gcd(den, *ents)
    return (ents, den) if g == 1 else (tuple(e // g for e in ents), den // g)


def _scalar(e: int, d: int) -> Scalar:
    """The canonical scalar e/d for d > 0: an int when d divides e."""
    return e // d if e % d == 0 else Fraction(e, d)


class Vec:
    """Immutable exact vector with componentwise arithmetic."""

    __slots__ = ("_ents", "_den")

    def __new__(cls, entries):
        if type(entries) is Vec:
            return entries
        xs = [as_scalar(x) for x in entries]
        den = lcm(*(x.denominator for x in xs))
        return cls._raw([x.numerator * (den // x.denominator) for x in xs], den)

    @classmethod
    def _raw(cls, ents, den=1) -> "Vec":
        """Vector of integer numerators over a positive denominator."""
        self = object.__new__(cls)
        self._ents, self._den = _normalize(ents, den)
        return self

    @classmethod
    def zero(cls, n: int) -> "Vec":
        return cls._raw([0] * n)

    @classmethod
    def unit(cls, n: int, i: int) -> "Vec":
        return cls._raw([1 if j == i else 0 for j in range(n)])

    def __len__(self):
        return len(self._ents)

    def __iter__(self):
        d = self._den
        if d == 1:
            return iter(self._ents)
        return (_scalar(e, d) for e in self._ents)

    def __getitem__(self, i: int) -> Scalar:
        return _scalar(self._ents[i], self._den)

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self._den == other._den and self._ents == other._ents

    def __hash__(self):
        return hash((self._den, self._ents))

    def __add__(self, other):
        other = Vec(other)
        d = lcm(self._den, other._den)
        a, b = d // self._den, d // other._den
        ents = [x * a + y * b for x, y in zip(self._ents, other._ents, strict=True)]
        return Vec._raw(ents, d)

    def __sub__(self, other):
        return self + -Vec(other)

    def __neg__(self):
        return Vec._raw([-e for e in self._ents], self._den)

    def __mul__(self, c):
        c = as_scalar(c)
        return Vec._raw([e * c.numerator for e in self._ents], self._den * c.denominator)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (1 / Fraction(as_scalar(c)))

    def dot(self, other) -> Scalar:
        """Exact sum of the componentwise products."""
        other = Vec(other)
        if len(other._ents) != len(self._ents):
            raise ValueError("length mismatch")
        return _scalar(sum(map(mul, self._ents, other._ents)), self._den * other._den)

    def is_zero(self) -> bool:
        return not any(self._ents)

    def is_integral(self) -> bool:
        return self._den == 1

    def __repr__(self):
        return f"Vec({list(self)!r})"


class Mat:
    """Dense exact matrix: integer entries over one positive denominator."""

    __slots__ = ("n", "m", "_ents", "_den")

    def __init__(self, rows):
        rows = [Vec(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if n else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        den = lcm(*(r._den for r in rows))
        self.n, self.m = n, m
        self._ents, self._den = _normalize(
            [e * (den // r._den) for r in rows for e in r._ents], den)

    @classmethod
    def _raw(cls, n, m, ents, den):
        self = object.__new__(cls)
        self.n, self.m = n, m
        self._ents, self._den = _normalize(ents, den)
        return self

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._raw(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)], 1)

    @property
    def shape(self):
        return (self.n, self.m)

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return _scalar(self._ents[i * self.m + j], self._den)

    def row(self, i: int) -> Vec:
        m = self.m
        return Vec._raw(self._ents[i * m:(i + 1) * m], self._den)

    def is_integral(self) -> bool:
        return self._den == 1

    def int_rows(self) -> list[list[int]]:
        if self._den != 1:
            raise ValueError("matrix is not integral")
        m = self.m
        return [list(self._ents[i * m:(i + 1) * m]) for i in range(self.n)]

    def is_symmetric(self) -> bool:
        if self.n != self.m:
            return False
        e, m = self._ents, self.m
        return all(e[i * m + j] == e[j * m + i] for i in range(self.n) for j in range(i))

    def transpose(self) -> "Mat":
        n, m, e = self.n, self.m, self._ents
        ents = [e[i * m + j] for j in range(m) for i in range(n)]
        return Mat._raw(m, n, ents, self._den)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.n, self.m, self._den, self._ents) == (other.n, other.m, other._den, other._ents)

    def __hash__(self):
        return hash((self.n, self.m, self._den, self._ents))

    def __matmul__(self, other):
        if isinstance(other, Mat):
            if self.m != other.n:
                raise ValueError("shape mismatch")
            ents = kernels.imat_mul(list(self._ents), list(other._ents),
                                    self.n, self.m, other.m)
            return Mat._raw(self.n, other.m, ents, self._den * other._den)
        return NotImplemented

    def apply(self, v) -> Vec:
        """Matrix times column vector: integer sums of numerators over
        the product of the two denominators."""
        v = Vec(v)
        if len(v) != self.m:
            raise ValueError("shape mismatch")
        m, e, w = self.m, self._ents, v._ents
        return Vec._raw((sum(map(mul, e[i * m:(i + 1) * m], w)) for i in range(self.n)),
                        self._den * v._den)

    def det(self) -> Scalar:
        """Exact determinant (Bareiss on the integer numerators)."""
        if self.n != self.m:
            raise ValueError("determinant of a non-square matrix")
        n = self.n
        if n == 0:
            return 1
        a = [list(self._ents[i * n:(i + 1) * n]) for i in range(n)]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return _scalar(sign * a[n - 1][n - 1], self._den ** n)

    def inv(self) -> "Mat":
        """Exact inverse d V S^-1 U, read off the Smith form U N V = S of
        the integer numerators N = d M."""
        if self.n != self.m:
            raise ValueError("inverse of a non-square matrix")
        n = self.n
        u, s, v = smith_normal_form(Mat._raw(n, n, self._ents, 1))
        diag = s._ents[::n + 1]
        if 0 in diag:
            raise ValueError("singular matrix")
        # d S^-1 U over the last invariant factor, which all the others divide
        top, d = (diag[-1] if n else 1), self._den
        scaled = [x * d * (top // diag[i // n]) for i, x in enumerate(u._ents)]
        return v @ Mat._raw(n, n, scaled, top)

    def __repr__(self):
        return f"Mat({[list(self.row(i)) for i in range(self.n)]!r})"


def smith_normal_form(m: Mat) -> tuple[Mat, Mat, Mat]:
    """Smith normal form with transforms: U @ M @ V == S.

    U and V are unimodular, S is diagonal with non-negative entries in a
    divisibility chain d1 | d2 | ...  Pivoting is deterministic: the
    smallest nonzero entry by absolute value, ties broken by lowest
    (row, col).
    """
    if not m.is_integral():
        raise ValueError("Smith normal form needs an integer matrix")
    a = m.int_rows()
    n, cols = m.n, m.m
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_sub(i, k, q):
        # row_i -= q * row_k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j, k, q):
        for r in a:
            r[j] -= q * r[k]
        for r in v:
            r[j] -= q * r[k]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    t = 0
    while t < min(n, cols):
        # deterministic pivot: min |value|, then lowest (row, col)
        piv = None
        for i in range(t, n):
            for j in range(t, cols):
                x = a[i][j]
                if x and (piv is None or abs(x) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(piv[0], t)
        if piv[1] != t:
            swap_cols(piv[1], t)
        dirty = False
        for i in range(t + 1, n):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                row_sub(i, t, q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                col_sub(j, t, q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        d = a[t][t]
        culprit = None
        for i in range(t + 1, n):
            for j in range(t + 1, cols):
                if a[i][j] % d:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            # pull the offending row up so the pivot shrinks to the gcd
            row_sub(t, culprit, -1)
            continue
        t += 1

    for i in range(min(n, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return (Mat._raw(n, n, [x for r in u for x in r], 1),
            Mat._raw(n, cols, [x for r in a for x in r], 1),
            Mat._raw(cols, cols, [x for r in v for x in r], 1))


def congruence_diagonalize(g: Mat) -> tuple[list[Vec], list[Fraction]]:
    """Columns p_k and norms d_k with P^T G P == diag(d_k) for the matrix
    P of columns p_k, over the rationals.

    Symmetric Gaussian elimination on the columns, each pairing read off
    G p_k; when every remaining norm is zero, a hyperbolic column
    addition creates a pivot first.
    Raises DegenerateFormError when det G == 0.
    """
    if not g.is_symmetric():
        raise ValueError("congruence diagonalization needs a symmetric matrix")
    n = g.n
    cols = [Vec.unit(n, i) for i in range(n)]
    diag = []
    for k in range(n):
        gp = g.apply(cols[k])
        if not cols[k].dot(gp):
            piv = next((i for i in range(k + 1, n) if cols[i].dot(g.apply(cols[i]))), None)
            if piv is None:
                # p_i += p_j for the first nonzero pairing, i >= k and j > i
                piv, j = next(((i, j) for i in range(k, n) for gi in (g.apply(cols[i]),)
                               for j in range(i + 1, n) if cols[j].dot(gi)), (None, None))
                if piv is None:
                    raise DegenerateFormError("form is degenerate")
                cols[piv] += cols[j]
            cols[k], cols[piv] = cols[piv], cols[k]
            gp = g.apply(cols[k])
        diag.append(Fraction(cols[k].dot(gp)))
        for j in range(k + 1, n):
            c = cols[j].dot(gp)
            if c:
                cols[j] = cols[j] - cols[k] * (c / diag[k])
    return cols, diag


def signature_of(g: Mat) -> tuple[int, int]:
    """Sign counts (positives, negatives) of the diagonalized form."""
    _, diag = congruence_diagonalize(g)
    pos = sum(1 for d in diag if d > 0)
    return pos, g.n - pos
