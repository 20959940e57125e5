"""The Jacobi group inside O(2U + L0): explicit block matrices.

The basis is ordered (e, e1, L0-basis, f1, f) so that the SL2 part and
the Heisenberg part are literal block matrices.  An SL2 matrix A embeds
as diag(A~, 1, A) where A~ = J (A^T)^{-1} J with J the 2x2 swap; under
the column-vector convention used throughout, this is the unique
top-left companion block making the embedding an isometry, and it
reproduces the generator identities t(e, f1) = [(1 1; 0 1)],
t(f, e1) = [(1 0; -1 1)], t(e, v) = [0, v; 0], t(e1, u) = [u, 0; 0]
and t(e, e1) = [0, 0; 1] exactly.

The module builds these blocks from their parameters, checks the
generator, S and sigma1 identities among them, and checks the 5x5
involution pair of the rank-5 family 2U + <-2t>.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from orthlat.eichler import HyperbolicSplitting, standard_splitting
from orthlat.errors import NotUnimodularError
from orthlat.isometry import (
    GroupWord,
    Isometry,
    ReflectionAtom,
    TransvectionAtom,
    rank_update,
    transvection,
)
from orthlat.lattice import Lattice, build
from orthlat.linalg import Mat, Vec


def jacobi_lattice(l0: Lattice) -> tuple[Lattice, HyperbolicSplitting]:
    """2U + L0 with basis order (e, e1, L0..., f1, f), split along the
    planes (0, n - 1) and (1, n - 2) that standard_splitting finds first."""
    n0 = l0.rank
    n = n0 + 4
    g = [[0] * n for _ in range(n)]
    g[0][n - 1] = g[n - 1][0] = 1
    g[1][n - 2] = g[n - 2][1] = 1
    s0 = l0.gram.int_rows()
    for i in range(n0):
        for j in range(n0):
            g[2 + i][2 + j] = s0[i][j]
    labels = ("e", "e1", *l0.labels, "f1", "f")
    lat = Lattice(Mat(g), labels)
    return lat, standard_splitting(lat)


def _int(x) -> int:
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"expected an integer, got {x}")
        return int(x)
    if isinstance(x, int):
        return x
    raise ValueError(f"expected an integer, got {x!r}")


def _lift_l0(split: HyperbolicSplitting, u) -> Vec:
    """Embed an L0-coordinate vector into the full lattice."""
    out = [0] * split.lattice.rank
    for c, i in zip(u, split.l0_indices, strict=True):
        out[i] = _int(c)
    return Vec(out)


def jacobi_embed(split: HyperbolicSplitting, a: Mat) -> Isometry:
    """[A]: A on the (f1, f) coordinates, its isometry companion on (e, e1),
    at the splitting's indices."""
    if a.shape != (2, 2) or not a.is_integral() or a.det() != 1:
        raise NotUnimodularError("need an integral 2x2 matrix of determinant 1")
    (p, q), (r, s) = a.int_rows()
    n = split.lattice.rank
    (e, f), (e1, f1) = split.u_idx, split.u1_idx
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    # J (A^T)^-1 J with J the 2x2 swap is [[p, -q], [-r, s]], as det A = 1
    rows[e][e], rows[e][e1], rows[e1][e], rows[e1][e1] = p, -q, -r, s
    rows[f1][f1], rows[f1][f], rows[f][f1], rows[f][f] = p, q, r, s
    return Isometry(split.lattice, Mat(rows))


def heis_embed(split: HyperbolicSplitting, u, v, z: int) -> Isometry:
    """[u, v; z] for u, v in L0 (given in L0 coordinates) and integral z."""
    lat = split.lattice
    u = [_int(c) for c in u]
    v = [_int(c) for c in v]
    z = _int(z)
    n0 = len(split.l0_indices)
    if len(u) != n0 or len(v) != n0:
        raise ValueError("u, v must have the rank of the complement")
    e, e1 = split.e, split.e1
    uf, vf = _lift_l0(split, u), _lift_l0(split, v)
    wu = -uf - Fraction(lat.norm(uf), 2) * e1 + z * e
    wv = -vf - (lat.inner(uf, vf) + z) * e1 - Fraction(lat.norm(vf), 2) * e
    return Isometry(lat, rank_update(lat, [(1, e, wv), (1, e1, wu), (1, uf, e1), (1, vf, e)]))


def s_element(split: HyperbolicSplitting) -> Isometry:
    """The embedded rotation: e -> -e1, f -> -f1, squaring to [-1]."""
    return jacobi_embed(split, Mat([[0, -1], [1, 0]]))


class IdentityCheck(NamedTuple):
    name: str
    holds: bool
    note: str = ""


def sl2_generator_checks(split: HyperbolicSplitting) -> list[IdentityCheck]:
    """The generator correspondences pinning the embedding."""
    lat = split.lattice
    e, f, e1, f1 = split.e, split.f, split.e1, split.f1
    n0 = len(split.l0_indices)
    zero = [0] * n0
    checks = [
        IdentityCheck("embed[[1,1],[0,1]] == t(e,f1)",
                      jacobi_embed(split, Mat([[1, 1], [0, 1]])) == transvection(lat, e, f1)),
        IdentityCheck("embed[[1,0],[-1,1]] == t(f,e1)",
                      jacobi_embed(split, Mat([[1, 0], [-1, 1]])) == transvection(lat, f, e1)),
        IdentityCheck("heis[0,0;1] == t(e,e1)",
                      heis_embed(split, zero, zero, 1) == transvection(lat, e, e1)),
    ]
    if n0:
        u = [1] + [0] * (n0 - 1)
        uf = _lift_l0(split, u)
        checks.append(IdentityCheck("heis[u,0;0] == t(e1,u)",
                                    heis_embed(split, u, zero, 0) == transvection(lat, e1, uf)))
        checks.append(IdentityCheck("heis[0,v;0] == t(e,v)",
                                    heis_embed(split, zero, u, 0) == transvection(lat, e, uf)))
    return checks


def verify_plane_identities(split: HyperbolicSplitting, vectors=()) -> list[IdentityCheck]:
    """S^2, the sigma1 conjugations, and the generator correspondences."""
    lat = split.lattice
    r1 = ReflectionAtom(split.e1 - split.f1)
    s1 = r1.to_isometry(lat)
    s = s_element(split)
    checks = sl2_generator_checks(split)
    checks.append(IdentityCheck("S(e)=-e1, S(f)=-f1",
                                s.apply(split.e) == -split.e1 and s.apply(split.f) == -split.f1))
    checks.append(IdentityCheck("S^2 == embed(-1)",
                                s * s == jacobi_embed(split, Mat([[-1, 0], [0, -1]]))))
    checks.append(IdentityCheck(
        "s1 t(f,e1) s1 == t(f,f1)",
        GroupWord(lat, (r1, TransvectionAtom(split.f, split.e1), r1)).evaluate()
        == transvection(lat, split.f, split.f1)))
    # gamma carries e to -f, so the sign is -1 under this basis
    # convention; it is read off rather than assumed
    gamma = s * s1 * s * s1
    img = gamma.apply(split.e)
    if img not in (split.f, -split.f):
        raise ValueError("conjugator does not carry e to +-f")
    sign = 1 if img == split.f else -1
    # gamma t gamma^-1 == t' checked as gamma t == t' gamma
    ok = all(gamma * transvection(lat, split.e, uf)
             == transvection(lat, split.f, sign * uf) * gamma
             for uf in (_lift_l0(split, u) for u in vectors))
    checks.append(IdentityCheck(
        f"(S s1 S s1) t(e,u) (S s1 S s1)^-1 == t(f,{sign:+d}*u)", ok,
        note=f"conjugation sign {sign:+d}"))
    return checks


# ---------------------------------------------------------------------
# the rank-5 family 2U + <-2t thing> and its distinguished involution pair

_FLIP5 = Mat([
    [0, 0, 0, 0, -1],
    [0, 0, 0, -1, 0],
    [0, 0, 1, 0, 0],
    [0, -1, 0, 0, 0],
    [-1, 0, 0, 0, 0],
])


def _require_level(t: int) -> None:
    if t < 1:
        raise ValueError(f"paramodular level t must be >= 1, got {t}")


def paramodular_lattice(t: int):
    _require_level(t)
    return jacobi_lattice(build(f"<{-2 * t}>"))


def paramodular_flip_check(t: int) -> list[IdentityCheck]:
    """The 5x5 sign-flip matrix equals the product of the reflections in
    e + f and e1 + f1 (square +2 mirrors), independently of t."""
    lat, split = paramodular_lattice(t)
    prod = GroupWord(lat, (ReflectionAtom(split.e + split.f),
                           ReflectionAtom(split.e1 + split.f1))).evaluate()
    checks = [
        IdentityCheck(f"flip(t={t}) == sigma_(e+f) sigma_(e1+f1)", prod.mat == _FLIP5),
        IdentityCheck("mirrors have square +2",
                      lat.norm(split.e + split.f) == 2 and lat.norm(split.e1 + split.f1) == 2),
        IdentityCheck("flip has det +1", prod.det() == 1),
    ]
    return checks


def stable_group_generators(t: int) -> dict:
    """Generator list realizing the full modular group of the rank-5
    lattice from the Jacobi subgroup plus one extra reflection."""
    _require_level(t)
    return {
        "lattice": f"2U+<{-2*t}>",
        "jacobi": ["t(e,f1)", "t(f,e1)", "t(e,e1)", "t(e,g)", "t(e1,g)"],
        "extra": "sigma_(e1-f1)",
    }
