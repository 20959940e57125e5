"""Transvection groups attached to a hyperbolic splitting L = U + U1 + L0.

Words here are in the transvections t(e, a), t(f, a) with a in
L1 = U1 + L0, so that each word certifies its own subgroup membership.
The module moves a vector into L1 by Euclidean reduction of its 2x2
plane coordinates, reads off the orbit invariant (norm, discriminant
class) that decides equivalence of primitive vectors, transports one
vector to another, rewrites a root reflection against the mirror
e - f, and counts roots by orbit invariant.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from orthlat.discform import DiscElement, discriminant_form
from orthlat.errors import (
    EquivalenceFailsError,
    InternalSolveFailureError,
    MissingSplittingError,
    NotPrimitiveError,
    NotRootError,
)
from orthlat.isometry import GroupWord, ReflectionAtom, TransvectionAtom, reflection
from orthlat.lattice import Lattice, plane_defect
from orthlat.linalg import Vec


class HyperbolicSplitting:
    """Indices of the two unimodular hyperbolic planes U and U1 inside a
    lattice basis, with the complements L1 = U1 + L0 and L0 they leave."""

    __slots__ = ("lattice", "u_idx", "u1_idx", "e", "f", "e1", "f1",
                 "l1_indices", "l0_indices")

    def __init__(self, lattice: Lattice, u_idx: tuple[int, int], u1_idx: tuple[int, int]):
        self.lattice = lattice
        self.u_idx = tuple(u_idx)
        self.u1_idx = tuple(u1_idx)
        self._check_plane(self.u_idx)
        if set(self.u1_idx) & set(self.u_idx):
            raise MissingSplittingError(f"planes {self.u_idx} and {self.u1_idx} overlap")
        self._check_plane(self.u1_idx)
        self.e, self.f, self.e1, self.f1 = (lattice.basis_vector(i) for i in self.u_idx + self.u1_idx)
        self.l1_indices = tuple(i for i in range(lattice.rank) if i not in self.u_idx)
        self.l0_indices = tuple(i for i in self.l1_indices if i not in self.u1_idx)

    def _check_plane(self, idx):
        defect = plane_defect(self.lattice.gram.int_rows(), *idx)
        if defect:
            raise MissingSplittingError(defect.format(idx))


def standard_splitting(lattice: Lattice) -> HyperbolicSplitting:
    """Splitting along the first two planes of lattice.hyperbolic_planes():
    for a built lattice, its first two unscaled U summands."""
    planes = lattice.hyperbolic_planes()
    if not planes:
        raise MissingSplittingError("lattice has no unimodular hyperbolic block")
    if len(planes) < 2:
        raise MissingSplittingError("a second hyperbolic plane is required")
    return HyperbolicSplitting(lattice, *planes[:2])


# ---------------------------------------------------------------------
# SO(2,2) reduction: Euclidean elimination of the U-coordinates

def _nearest_quotient(a: int, b: int) -> int:
    """q minimizing |a - q b|, ties toward the smaller quotient.

    The floor remainder r = a - (a // b) b has the sign of b, so the
    only other candidate is q + 1, whose remainder r - b is the nearer
    one exactly when 2 |r| > |b|; either way |a - q b| <= |b| / 2."""
    q = a // b
    if 2 * abs(a - q * b) > abs(b):
        q += 1
    return q


class _PlaneReducer:
    """Tracks the 2x2 coordinate matrix [[x1, x], [y, -y1]] of a vector
    under the four plane transvections, recording each atom applied.

    Rows e, f, e1, f1 of G are zero outside their planes, so x, y, x1,
    y1 (the pairings with f, e, f1, e1) are the vector's own entries at
    e, f, e1, f1, and the four transvections change nothing else.

    ``run`` is Euclid on the first column (x1, y) and the first row
    (x1, x).  x1 changes only when the matrix is rotated, and each pass
    of the loop but the last rotates once: at the start when x1 == 0,
    giving |x1| <= max(|x|, |y|), and otherwise after a nearest-quotient
    step has left |y| or |x| at most |x1| / 2, which becomes the new x1.
    So with B the largest bit-length of the four entries (numerators
    over the vector's denominator, which scales every step alike), x1
    halves at most B - 1 times after the first rotation while staying
    nonzero, and the loop makes at most B + 1 passes."""

    def __init__(self, split: HyperbolicSplitting, v: Vec):
        self.split = split
        idx = split.u_idx + split.u1_idx
        self.x, self.y, self.x1, self.y1 = (v[i] for i in idx)
        self.max_passes = max(abs(v._ents[i]) for i in idx).bit_length() + 1
        self.applied: list[TransvectionAtom] = []

    # the four generators, with integer multiplicity k
    def left_upper(self, k):    # t(e, k e1): row1 += k row2
        s = self.split
        self.applied.append(TransvectionAtom(s.e, k * s.e1))
        self.x1 += k * self.y
        self.x += k * (-self.y1)

    def left_lower(self, k):    # t(f, -k f1): row2 += k row1
        s = self.split
        self.applied.append(TransvectionAtom(s.f, -k * s.f1))
        self.y += k * self.x1
        self.y1 -= k * self.x

    def right_col2(self, k):    # t(e, -k f1): col2 += k col1
        s = self.split
        self.applied.append(TransvectionAtom(s.e, -k * s.f1))
        self.x += k * self.x1
        self.y1 -= k * self.y

    def right_col1(self, k):    # t(f, k e1): col1 += k col2
        s = self.split
        self.applied.append(TransvectionAtom(s.f, k * s.e1))
        self.x1 += k * self.x
        self.y += k * (-self.y1)

    def rotate_rows(self):
        # [[0,-1],[1,0]] on the left
        self.left_upper(-1)
        self.left_lower(1)
        self.left_upper(-1)

    def rotate_cols(self):
        self.right_col1(1)
        self.right_col2(-1)
        self.right_col1(1)

    def run(self):
        passes = 0
        while self.x != 0 or self.y != 0:
            passes += 1
            if passes > self.max_passes:
                raise InternalSolveFailureError(
                    f"plane reduction exceeded its bound of {self.max_passes} passes")
            if self.x1 == 0:
                if self.y != 0:
                    self.rotate_rows()
                else:
                    self.rotate_cols()
                continue
            if self.y != 0:
                q = _nearest_quotient(self.y, self.x1)
                if q:
                    self.left_lower(-q)
                if self.y != 0:
                    self.rotate_rows()
                    continue
            if self.x != 0:
                q = _nearest_quotient(self.x, self.x1)
                if q:
                    self.right_col2(-q)
                if self.x != 0:
                    self.rotate_cols()


def _reduce_into_l1(split: HyperbolicSplitting, v: Vec) -> tuple[list[TransvectionAtom], Vec]:
    """Atoms (in application order) taking v into the complement of U,
    and the image: v with its plane entries set to (0, 0, x1, y1)."""
    red = _PlaneReducer(split, v)
    red.run()
    image = list(v)
    (e, f), (e1, f1) = split.u_idx, split.u1_idx
    image[e], image[f], image[e1], image[f1] = 0, 0, red.x1, red.y1
    return red.applied, Vec(image)


# ---------------------------------------------------------------------
# a vector pairing to the divisor: Euclid on one row

def _row_pass_bound(row: list[int]) -> int:
    """Passes enough for _solve_row on row: 2 B + 2, where B is the
    largest bit-length of its entries."""
    return 2 * max(map(abs, row)).bit_length() + 2


def _solve_row(row: list[int], d: int) -> list[int] | None:
    """An integer x with row . x == d, or None when gcd(row) does not
    divide d.

    This is the Smith form's column Euclid on the 1 x m matrix row,
    carrying the columns of V: each pass pivots on the smallest nonzero
    |entry|, lowest index on ties, swaps it to column 0 and subtracts
    its floor quotient from every other column.  When only the pivot g
    is left, x = (d / g) V[:, 0], the solution the Smith form gives.

    Floor remainders take the pivot's sign, so after the first pass all
    entries share one sign and each later step is a remainder of
    absolute values.  Each pivot is a remainder of the one before, so
    smaller; and if a pivot p' exceeds half the pivot p before it, p's
    column is left with |p| - |p'|, nonzero (p' cannot divide p) and
    below |p| / 2.  So from the first pass on, the pivot two passes
    later is below half, and a nonzero row whose entries have at most
    B bits needs at most 2 B passes.  _row_pass_bound allows 2 B + 2,
    and a pass beyond it raises InternalSolveFailureError."""
    a, m = list(row), len(row)
    cols = [[int(i == j) for i in range(m)] for j in range(m)]   # the columns of V
    bound = _row_pass_bound(a)
    passes = 0
    while True:
        passes += 1
        if passes > bound:
            raise InternalSolveFailureError(f"row solve exceeded its bound of {bound} passes")
        k = None
        for j, x in enumerate(a):
            if x and (k is None or abs(x) < abs(a[k])):
                k = j
        if k is None:
            return None
        if k:
            a[0], a[k] = a[k], a[0]
            cols[0], cols[k] = cols[k], cols[0]
        p, c0, done = a[0], cols[0], True
        for j in range(1, m):
            if a[j]:
                q = a[j] // p
                if q:
                    a[j] -= q * p
                    cols[j] = [y - q * z for y, z in zip(cols[j], c0)]
                if a[j]:
                    done = False
        if done:
            break
    g = a[0]
    if d % g:
        return None
    x = [(d // g) * y for y in cols[0]]
    if sum(map(mul, row, x)) != d:
        raise InternalSolveFailureError("row solution does not pair to d")
    return x


# ---------------------------------------------------------------------
# the equivalence criterion and its constructive witness

class OrbitInvariant(NamedTuple):
    norm: int
    disc_class: DiscElement
    divisor: int

    def key(self):
        return (self.norm, self.disc_class.coords)


def orbit_invariant(lattice: Lattice, v) -> OrbitInvariant:
    norm, divisor, cls = discriminant_form(lattice).primitive_invariant(v)
    return OrbitInvariant(norm, cls, divisor)


def invariant_pair(split: HyperbolicSplitting, u, v) -> tuple[OrbitInvariant, OrbitInvariant]:
    """orbit_invariant of u and of v, one integer pass each; u and v are
    equivalent exactly when the two keys agree."""
    try:
        return orbit_invariant(split.lattice, u), orbit_invariant(split.lattice, v)
    except NotPrimitiveError:
        raise NotPrimitiveError("equivalence applies to primitive vectors") from None


def transport_witness(split: HyperbolicSplitting, u, v) -> GroupWord:
    """A word of integral transvections t(e|f, a in L1) mapping u to v.

    Both vectors are first pushed into L1 by plane reduction; the
    residual translation by (u - v)/div happens there via three
    transvections, using solved auxiliary vectors u', v' pairing to the
    common divisor.  The word is checked to map u to v before it is
    returned (InternalSolveFailureError otherwise).
    """
    lat = split.lattice
    u, v = Vec(u), Vec(v)
    iu, iv = invariant_pair(split, u, v)
    if iu.key() != iv.key():
        raise EquivalenceFailsError("vectors differ in norm or discriminant class")
    if u == v:
        return GroupWord(lat)
    d = iu.divisor          # the order of the class, so also v's divisor

    au, u1 = _reduce_into_l1(split, u)
    av, v1 = _reduce_into_l1(split, v)

    def pair_to_d(x: Vec) -> Vec:
        # a y in L1 with (x, y) == d: the vector the Smith form of the
        # row (G x)|L1 gives, found by _solve_row's one-row Euclid
        gx = lat.gram_apply(x)
        if not gx.is_integral():
            raise InternalSolveFailureError("G x is not integral")
        sol = _solve_row([gx._ents[i] for i in split.l1_indices], d)
        if sol is None:
            raise InternalSolveFailureError("no vector pairing to the divisor")
        out = [0] * lat.rank
        for i, c in zip(split.l1_indices, sol):
            out[i] = c
        return Vec._raw(out)

    up = pair_to_d(u1)
    vp = pair_to_d(v1)
    w = (u1 - v1) / d
    if not w.is_integral():
        raise InternalSolveFailureError("translation step is not integral")

    middle = [TransvectionAtom(split.e, up),
              TransvectionAtom(split.f, Vec(w)),
              TransvectionAtom(split.e, -vp)]
    applied = list(au) + middle + [a.inverse() for a in reversed(av)]
    applied = [a for a in applied if not a.a.is_zero()]
    word = GroupWord(lat, tuple(reversed(applied)))
    if word.apply(u) != v:
        raise InternalSolveFailureError("transport witness failed to verify")
    return word


def rewrite_reflection(split: HyperbolicSplitting, r) -> GroupWord:
    """rho in the transvection group with s_r == eval(rho) * s_(e-f).

    The root is first moved into L1, where its reflection factors
    through three transvections times the anchor e - f; conjugating
    back keeps every atom a transvection.
    """
    lat = split.lattice
    r = Vec(r)
    if lat.norm(r) != -2:
        raise NotRootError("rewrite applies to vectors of square -2")
    rho = _rewrite_against_ef(split, r)
    anchor = ReflectionAtom(split.e - split.f)
    if GroupWord(lat, rho.atoms + (anchor,)).evaluate() != reflection(lat, r):
        raise InternalSolveFailureError("reflection rewrite failed to verify")
    return rho


def _rewrite_against_ef(split: HyperbolicSplitting, r: Vec) -> GroupWord:
    lat = split.lattice
    if r == split.e - split.f or r == split.f - split.e:
        return GroupWord(lat)
    applied, a = _reduce_into_l1(split, r)
    tau = GroupWord(lat, tuple(reversed(applied)))

    def swap_ef(atom: TransvectionAtom) -> TransvectionAtom:
        if atom.e == split.e:
            return TransvectionAtom(split.f, atom.a)
        if atom.e == split.f:
            return TransvectionAtom(split.e, atom.a)
        raise InternalSolveFailureError("unexpected base vector in plane word")

    conj = GroupWord(lat, tuple(swap_ef(at) for at in tau.atoms))
    three = GroupWord(lat, (TransvectionAtom(split.f, a),
                            TransvectionAtom(split.e, -a),
                            TransvectionAtom(split.f, a)))
    return tau.inverse().then(three).then(conj)


# ---------------------------------------------------------------------
# census of roots by invariant

class CensusEntry(NamedTuple):
    invariant: OrbitInvariant
    count: int
    witness: Vec


class CensusReport(NamedTuple):
    box: int
    entries: tuple[CensusEntry, ...]

    def class_count(self) -> int:
        return len(self.entries)


def root_orbit_census(split: HyperbolicSplitting, box: int) -> CensusReport:
    """Group the roots found in the coordinate box by orbit invariant.

    Exhaustive only within the box; by the equivalence criterion the
    number of distinct invariants is a lower bound for the number of
    stable-group orbits of roots.

    Only the roots whose first nonzero coordinate is negative are
    scanned, tallied by residue mod 2, and each residue is classified
    once from the G v of its first root: the class of a root depends
    only on its residue (see kernels).  A root's divisor divides
    (v, v) = -2, so its class is 2-torsion and -v falls in its bucket:
    each count is doubled.  Residues come in scan order, so each
    bucket's first root is its lexicographically first.  Budget and
    errors as for Lattice.enumerate_vectors.
    """
    lat = split.lattice
    form = discriminant_form(lat)
    buckets: dict[tuple, list] = {}            # (divisor, class) -> [first root, count]
    for v, count in lat.half_space_vectors(-2, box, tally=True):
        key = form.divisor_and_class(lat.gram_apply(Vec._raw(v))._ents)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [v, count]
        else:
            bucket[1] += count
    entries = []
    for (d, coords), (v, count) in sorted(buckets.items()):
        witness = Vec._raw(v)
        inv = orbit_invariant(lat, witness)
        if (inv.key() != (-2, coords) or inv.divisor != d
                or orbit_invariant(lat, -witness).key() != inv.key()
                or any(2 * c % o for c, o in zip(coords, form.orders))):
            raise InternalSolveFailureError("census class is not 2-torsion or not its witness's")
        entries.append(CensusEntry(invariant=inv, count=2 * count, witness=witness))
    return CensusReport(box=box, entries=tuple(entries))
