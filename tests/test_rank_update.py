"""Property tests for the closed-form isometry matrices.

Every reflection, transvection, P(s) and Heisenberg matrix is built by
``rank_update``.  The reference oracles below are the direct
constructions: one image of each basis vector per column, and the
Heisenberg block matrix written out entry by entry.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from orthlat.commutators import p_map
from orthlat.discform import discriminant_form, enumerate_orth_d
from orthlat.eichler import standard_splitting
from orthlat.isometry import (
    InverseAtom,
    ReflectionAtom,
    TransvectionAtom,
    rank_update,
    reflection,
    transvection,
)
from orthlat.jacobi import heis_embed, jacobi_lattice
from orthlat.lattice import build
from orthlat.linalg import Mat, Vec
from orthlat.sampling import isotropic_vector, orthogonal_to

SPECS = ("2U", "2U+<-2>", "2U+A2", "2U+<-6>+<4>")
_LATTICES = {}

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def lattice(spec):
    if spec not in _LATTICES:
        _LATTICES[spec] = build(spec)
    return _LATTICES[spec]


def from_columns(cols) -> Mat:
    return Mat(cols).transpose()


def reflection_oracle(lat, a) -> Mat:
    aa = lat.norm(a)
    cols = []
    for i in range(lat.rank):
        b = lat.basis_vector(i)
        cols.append(b - (Fraction(2 * lat.inner(a, b)) / aa) * a)
    return from_columns(cols)


def transvection_oracle(lat, e, a) -> Mat:
    half_aa = Fraction(lat.norm(a)) / 2
    cols = []
    for i in range(lat.rank):
        v = lat.basis_vector(i)
        av = lat.inner(a, v)
        ev = lat.inner(e, v)
        cols.append(v - av * e + ev * a - (half_aa * ev) * e)
    return from_columns(cols)


def p_map_oracle(split, s) -> Mat:
    lat, e, f = split.lattice, split.e, split.f
    cols = []
    for i in range(lat.rank):
        v = lat.basis_vector(i)
        x = Fraction(lat.inner(v, f))
        y = Fraction(lat.inner(v, e))
        cols.append((x / s) * e + (s * y) * f + (v - x * e - y * f))
    return from_columns(cols)


def heis_oracle(split, u, v, z) -> Mat:
    """[u, v; z] entry by entry in the basis (e, e1, L0..., f1, f)."""
    lat = split.lattice
    n0 = len(split.l0_indices)
    s0 = [[int(lat.gram[i, j]) for j in split.l0_indices] for i in split.l0_indices]

    def pair(x, y):
        return sum(x[i] * s0[i][j] * y[j] for i in range(n0) for j in range(n0))

    n = lat.rank
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[0][0] = rows[1][1] = Fraction(1)
    for j in range(n0):
        rows[0][2 + j] = Fraction(-sum(v[i] * s0[i][j] for i in range(n0)))
        rows[1][2 + j] = Fraction(-sum(u[i] * s0[i][j] for i in range(n0)))
    rows[0][n - 2] = Fraction(-pair(u, v) - z)
    rows[0][n - 1] = Fraction(-pair(v, v), 2)
    rows[1][n - 2] = Fraction(-pair(u, u), 2)
    rows[1][n - 1] = Fraction(z)
    for i in range(n0):
        rows[2 + i][2 + i] = Fraction(1)
        rows[2 + i][n - 2] = Fraction(u[i])
        rows[2 + i][n - 1] = Fraction(v[i])
    rows[n - 2][n - 2] = Fraction(1)
    rows[n - 1][n - 1] = Fraction(1)
    return Mat(rows)


specs = st.sampled_from(SPECS)
seeds = st.integers(0, 2**32 - 1)
rationals = st.builds(Fraction, st.integers(-5, 5), st.sampled_from((1, 1, 2, 3, 7)))
nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=9).filter(bool)


def isotropic_pair(spec, seed):
    """A rational isotropic e and a rational a orthogonal to it."""
    lat = lattice(spec)
    rng = random.Random(seed)
    e = isotropic_vector(standard_splitting(lat), rng)
    return lat, e, orthogonal_to(lat, rng, e)


def anisotropic(lat, data) -> Vec:
    a = Vec(data.draw(st.lists(rationals, min_size=lat.rank, max_size=lat.rank)))
    assume(lat.norm(a) != 0)
    return a


class TestRankUpdate:
    @PROPERTY
    @given(spec=specs, data=st.data())
    def test_defining_formula(self, spec, data):
        lat = lattice(spec)
        vecs = st.lists(rationals, min_size=lat.rank, max_size=lat.rank).map(Vec)
        terms = data.draw(st.lists(st.tuples(rationals, vecs, vecs), max_size=4))
        v = data.draw(vecs)
        expected = v
        for c, x, z in terms:
            expected = expected + (c * lat.inner(z, v)) * x
        assert rank_update(lat, terms).apply(v) == expected

    def test_no_terms_is_identity(self):
        lat = lattice("2U+A2")
        assert rank_update(lat, []) == Mat.identity(lat.rank)

    @PROPERTY
    @given(spec=specs, seed=seeds)
    def test_transvection(self, spec, seed):
        lat, e, a = isotropic_pair(spec, seed)
        assert transvection(lat, e, a).mat == transvection_oracle(lat, e, a)

    @PROPERTY
    @given(spec=specs, data=st.data())
    def test_reflection(self, spec, data):
        lat = lattice(spec)
        a = anisotropic(lat, data)
        assert reflection(lat, a).mat == reflection_oracle(lat, a)

    @PROPERTY
    @given(spec=specs, s=nonzero)
    def test_p_map(self, spec, s):
        split = standard_splitting(lattice(spec))
        assert p_map(split, s).mat == p_map_oracle(split, s)

    @PROPERTY
    @given(l0=st.sampled_from(("<-2>", "A2", "<-6>+<4>")), data=st.data())
    def test_heis_embed(self, l0, data):
        _, split = jacobi_lattice(build(l0))
        n0 = len(split.l0_indices)
        coords = st.lists(st.integers(-6, 6), min_size=n0, max_size=n0)
        u, v = data.draw(coords), data.draw(coords)
        z = data.draw(st.integers(-20, 20))
        assert heis_embed(split, u, v, z).mat == heis_oracle(split, u, v, z)


class TestInverseAtom:
    @PROPERTY
    @given(spec=specs, seed=seeds)
    def test_transvection(self, spec, seed):
        lat, e, a = isotropic_pair(spec, seed)
        atom = TransvectionAtom(e, a)
        assert InverseAtom(atom).to_isometry(lat) == atom.to_isometry(lat).inverse()

    @PROPERTY
    @given(spec=specs, data=st.data())
    def test_reflection(self, spec, data):
        lat = lattice(spec)
        atom = ReflectionAtom(anisotropic(lat, data))
        assert InverseAtom(atom).to_isometry(lat) == atom.to_isometry(lat).inverse()


@pytest.mark.parametrize("spec", ["U(2)", "2U+<-2>+<-2>", "2U+<-2>+<-6>", "2U+<-4>+<-4>"])
def test_orth_d_results_permute_the_form(spec):
    form = discriminant_form(build(spec))
    elements = form.elements()
    auts = enumerate_orth_d(form)
    assert auts
    for aut in auts:
        images = [aut.apply(x) for x in elements]
        assert len({y.coords for y in images}) == len(elements)
        assert all(form.q(y) == form.q(x) for x, y in zip(elements, images))
