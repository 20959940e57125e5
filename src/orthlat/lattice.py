"""Even integral lattices: builders, arithmetic invariants and
bounded vector enumeration.

A lattice is a nonempty symmetric integer Gram matrix, even on the
diagonal and nonsingular, plus optional basis labels, and nothing else.
Builders assemble direct sums of the standard pieces (hyperbolic plane
U, rank-one even forms, A2, E8, and rescalings); the hyperbolic planes
that give root witnesses and splittings are read off the Gram matrix.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from orthlat import kernels
from orthlat.errors import (
    DegenerateFormError,
    NotIntegralError,
    NotIsometryError,
    OddDiagonalError,
    SpecParseError,
    TooLargeError,
)
from orthlat.linalg import Mat, Vec, as_scalar, parse_scalar, signature_of, smith_normal_form

# Gram of the E8 root basis (Bourbaki node numbering: chain
# 1-3-4-5-6-7-8 with node 2 hanging off node 4).
_E8_BONDS = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
_E8_GRAM = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
for _i, _j in _E8_BONDS:
    _E8_GRAM[_i - 1][_j - 1] = _E8_GRAM[_j - 1][_i - 1] = -1

def plane_defect(rows, i: int, j: int) -> str | None:
    """None when basis vectors i and j span a unimodular hyperbolic plane
    that is an orthogonal summand: G_ii == G_jj == 0, G_ij == 1 and rows
    i and j zero everywhere else.  Otherwise the failure, as a message
    template for the index pair.  ``rows`` is the Gram matrix as lists."""
    if rows[i][i] or rows[j][j] or rows[i][j] != 1:
        return "indices {} do not span a unimodular plane"
    if any((rows[i][k] or rows[j][k]) for k in range(len(rows)) if k != i and k != j):
        return "plane {} is not an orthogonal summand"
    return None


class Lattice:
    """Even lattice with immutable Gram matrix and cached invariants."""

    __slots__ = ("gram", "rank", "labels", "_rows", "_cache")

    def __init__(self, gram: Mat, labels=None):
        if gram.n != gram.m:
            raise ValueError("Gram matrix must be square")
        if gram.n == 0:
            raise ValueError("Gram matrix must not be empty")
        if not gram.is_integral():
            raise ValueError("Gram matrix must be integral")
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        for i in range(gram.n):
            if int(gram[i, i]) % 2:
                raise OddDiagonalError(f"odd diagonal entry at index {i}")
        det = int(gram.det())
        if det == 0:
            raise DegenerateFormError("Gram matrix is singular")
        self.gram = gram
        self.rank = gram.n
        # the nonzero entries (j, G_ij) of each row, for gram_apply
        self._rows = tuple(tuple((j, x) for j, x in enumerate(row) if x)
                           for row in gram.int_rows())
        if labels is None:
            labels = tuple(f"b{i}" for i in range(gram.n))
        self.labels = tuple(labels)
        self._cache = {"det": det}

    # -- identity -----------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"Lattice(rank={self.rank}, det={self.det()})"

    # -- basic bilinear data ------------------------------------------
    def gram_apply(self, v) -> Vec:
        """G v, summed over the nonzero entries of each row of G: the one
        Gram product on vectors.  A wrong length raises ValueError."""
        v = Vec(v)
        w = v._ents
        if len(w) != self.rank:
            raise ValueError("shape mismatch")
        out = []
        for row in self._rows:
            acc = 0
            for j, x in row:
                acc += x * w[j]
            out.append(acc)
        return Vec._raw(out, v._den)

    def inner(self, u, v):
        """Bilinear form (u, v) of two coordinate vectors."""
        return self.gram_apply(u).dot(v)

    def norm(self, v):
        return self.inner(v, v)

    def check_isometry(self, mat: Mat, integral: bool = False) -> None:
        """Raise NotIsometryError unless mat is rank x rank with
        mat^T G mat == G.  With integral=True a non-integral mat raises
        NotIntegralError, tested after the shape and before the form."""
        if mat.shape != (self.rank, self.rank):
            raise NotIsometryError("wrong shape")
        if integral and not mat.is_integral():
            raise NotIntegralError("matrix is not integral")
        if mat.transpose() @ self.gram @ mat != self.gram:
            raise NotIsometryError("matrix does not preserve the form")

    def basis_vector(self, i: int) -> Vec:
        return Vec.unit(self.rank, i)

    def det(self) -> int:
        """det G, computed once by the singularity check in __init__."""
        return self._cache["det"]

    def signature(self) -> tuple[int, int]:
        if "sig" not in self._cache:
            self._cache["sig"] = signature_of(self.gram)
        return self._cache["sig"]

    def snf(self):
        if "snf" not in self._cache:
            self._cache["snf"] = smith_normal_form(self.gram)
        return self._cache["snf"]

    def rank_p(self, p: int) -> int:
        """Rank of the Gram matrix over F_p for a prime p: the number of
        Smith invariant factors coprime to p."""
        _, s, _ = self.snf()
        return sum(1 for i in range(self.rank) if int(s[i, i]) % p)

    # -- enumeration ----------------------------------------------------
    def half_space_vectors(self, norm, box, tally: bool = False) -> list:
        """The kernel's hits for (v, v) == norm in [-box, box]^rank whose
        first nonzero coordinate is negative, as ascending tuples (with
        ``tally``, as one [first hit, count] per residue mod 2).

        ``norm`` must be an int or a Fraction (a non-integral one has no
        hits) and ``box`` an integer; anything else raises TypeError or
        ValueError.  Raises TooLargeError, before any work, when the
        whole box needs more than kernels.ENUM_STEP_BUDGET scalar steps,
        the estimate (2 box + 1)^(rank - 1) even though half are
        scanned, and during the scan once whole columns of hits
        (2 box + 1 each, along an isotropic last basis vector) spend the
        rest of it."""
        norm, box = as_scalar(norm), as_scalar(box)
        if not isinstance(box, int):
            raise ValueError(f"box must be an integer, not {box}")
        if box < 0:
            return []
        steps = (2 * box + 1) ** (self.rank - 1)
        if steps > kernels.ENUM_STEP_BUDGET:
            raise TooLargeError(
                f"box {box} at rank {self.rank} needs {steps} enumeration steps, "
                f"over the budget of {kernels.ENUM_STEP_BUDGET}")
        if not isinstance(norm, int):
            return []
        flat = [x for row in self.gram.int_rows() for x in row]
        return kernels.enum_norm_vectors(flat, self.rank, norm, box, tally=tally)

    def enumerate_vectors(self, norm, box) -> list[Vec]:
        """All v with coordinates in [-box, box]^rank and (v, v) == norm,
        in ascending lexicographic order: the half-space hits, then the
        zero vector when norm == 0, then the hits negated in reverse.

        Arguments and TooLargeError as for half_space_vectors."""
        half = [Vec._raw(h) for h in self.half_space_vectors(norm, box)]
        zero = [Vec.zero(self.rank)] if norm == 0 and box >= 0 else []
        return half + zero + [-v for v in reversed(half)]

    # -- hyperbolic planes and root existence ---------------------------
    def hyperbolic_planes(self) -> list[tuple[int, int]]:
        """The index pairs (i, j), i < j, in scan order, whose basis
        vectors span a unimodular hyperbolic plane that is an orthogonal
        summand (``plane_defect`` is None); no two share an index.  A
        plane not spanned by two basis vectors is not found."""
        rows, n = self.gram.int_rows(), self.rank
        return [(i, j) for i in range(n) for j in range(i + 1, n)
                if plane_defect(rows, i, j) is None]

    def find_root_witness(self, search_box: int):
        """A vector of square -2: e - f of the first hyperbolic plane, or
        a basis vector of square -2, when there is one, and otherwise the
        first root of an exhaustive box search.  Returns (vec | None, box)."""
        planes = self.hyperbolic_planes()
        if planes:
            i, j = planes[0]
            return self.basis_vector(i) - self.basis_vector(j), 0
        for i in range(self.rank):
            if int(self.gram[i, i]) == -2:
                return self.basis_vector(i), 0
        # the first root of the box has a negative first nonzero entry
        hits = self.half_space_vectors(-2, search_box)
        if hits:
            return Vec._raw(hits[0]), search_box
        return None, search_box

    def kneser_check(self, search_box: int = 2) -> "KneserReport":
        p, q = self.signature()
        found, box = self.find_root_witness(search_box)
        return KneserReport(
            witt_ok=min(p, q) >= 2,
            rank2_ok=self.rank_p(2) >= 6,
            rank3_ok=self.rank_p(3) >= 5,
            minus2_vector=found,
            search_box=box,
        )


class KneserReport(NamedTuple):
    witt_ok: bool
    rank2_ok: bool
    rank3_ok: bool
    minus2_vector: Vec | None
    search_box: int

    @property
    def represents_minus2(self) -> bool:
        return self.minus2_vector is not None

    def all_pass(self) -> bool:
        return (self.witt_ok and self.rank2_ok and self.rank3_ok
                and self.represents_minus2)


# ---------------------------------------------------------------------
# builders

def _block_gram(kind: str, param: int | None, scale: int):
    if kind == "U":
        base, labels = [[0, 1], [1, 0]], ("e", "f")
    elif kind == "A2":
        base, labels = [[2, -1], [-1, 2]], ("a", "b")
    elif kind == "E8":
        base, labels = _E8_GRAM, tuple(f"r{i+1}" for i in range(8))
    elif kind == "gen":
        if param % 2:
            raise OddDiagonalError(f"<{param}> is not even")
        base, labels = [[param]], ("g",)
    else:
        raise SpecParseError(f"unknown block {kind!r}")
    if scale != 1:
        base = [[scale * x for x in row] for row in base]
    return base, labels


def _direct_sum(terms: list[tuple[str, int | None, int]]) -> Lattice:
    """The direct sum of (kind, param, scale) pieces, in order; a
    repeated kind numbers its labels from the second copy on."""
    grams, labels = [], []
    counts: dict[str, int] = {}
    for kind, param, scale in terms:
        if scale == 0:
            raise SpecParseError("zero rescaling")
        g, ls = _block_gram(kind, param, scale)
        k = counts.get(kind, 0)
        counts[kind] = k + 1
        suffix = "" if k == 0 else str(k)
        grams.append(g)
        labels.extend(l + suffix for l in ls)
    n = len(labels)
    full = [[0] * n for _ in range(n)]
    pos = 0
    for g in grams:
        for i, row in enumerate(g):
            for j, x in enumerate(row):
                full[pos + i][pos + j] = x
        pos += len(g)
    return Lattice(Mat(full), labels)


_TERM_RE = re.compile(
    r"^(?:(\d*)\s*(U|A2|E8)\s*(?:\(\s*(-?\d+)\s*\))?|(\d*)\s*<\s*(-?\d+)\s*>)$"
)


def build(spec: str) -> Lattice:
    """Parse the block mini-language, e.g. "2U+2E8(-1)+<-6>"."""
    terms = []
    for term in spec.split("+"):
        term = term.strip()
        m = _TERM_RE.match(term)
        if not m:
            raise SpecParseError(f"cannot parse block term {term!r}")
        count = int(m.group(1) or m.group(4) or "1")
        if count == 0:
            raise SpecParseError(f"zero block count in {term!r}")
        if m.group(2):
            scale = int(m.group(3) or "1")
            terms.extend((m.group(2), None, scale) for _ in range(count))
        else:
            terms.extend(("gen", int(m.group(5)), 1) for _ in range(count))
    if not terms:
        raise SpecParseError("empty lattice spec")
    return _direct_sum(terms)


# ---------------------------------------------------------------------
# JSON round-trip

def lattice_to_json(lat: Lattice) -> dict:
    return {
        "gram": [[str(x) for x in row] for row in lat.gram.int_rows()],
        "labels": list(lat.labels),
    }


def lattice_from_json(data: dict) -> Lattice:
    """Inverse of lattice_to_json.  Gram entries are integers, as JSON
    integers or scalar strings read by parse_scalar ("4/2" is 2); any
    other shape, or a non-integral entry, raises ValueError."""
    rows = data.get("gram") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError('lattice JSON must be an object whose "gram" is a list of lists')
    gram = Mat([[parse_scalar(x) for x in row] for row in rows])
    labels = data.get("labels")
    if labels is not None and not (isinstance(labels, list) and len(labels) == gram.n
                                   and all(isinstance(x, str) for x in labels)):
        raise ValueError(f"labels must be a list of {gram.n} strings")
    return Lattice(gram, labels)
