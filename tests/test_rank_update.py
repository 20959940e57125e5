"""Property tests for the closed-form isometries.

Every reflection, transvection, P(s) and Heisenberg matrix is built by
``terms_matrix`` (through ``rank_update`` for P(s) and the Heisenberg
elements), and atoms act on vectors through the same terms without
building a matrix.  The reference oracles below are the direct
constructions: one image of each basis vector per column, the
Heisenberg block matrix written out entry by entry, and each atom's
matrix applied to the vector.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from orthlat import sampling
from orthlat.commutators import p_map
from orthlat.discform import discriminant_form, enumerate_orth_d
from orthlat.eichler import standard_splitting
from orthlat.errors import (
    IsotropicMirrorError,
    NotIsotropicError,
    NotOrthogonalError,
    OrthlatError,
)
from orthlat.isometry import (
    ATOM_TERMS_CACHE_LIMIT,
    GroupWord,
    Isometry,
    ReflectionAtom,
    TransvectionAtom,
    rank_update,
    reflection,
    transvection,
)
from orthlat.jacobi import heis_embed, jacobi_lattice
from orthlat.lattice import build, lattice_from_json
from orthlat.linalg import Mat, Vec
from orthlat.sampling import (
    integral_isometry,
    isotropic_vector,
    l1_vector,
    mixed_word,
    nonzero_rational,
    orthogonal_to,
    rational_vector as sampled_vector,
)

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


def rational_vector(lat, data) -> Vec:
    return Vec(data.draw(st.lists(rationals, min_size=lat.rank, max_size=lat.rank)))


def matrix_path(word, v):
    """Each atom's matrix applied in turn, rightmost atom first."""
    v = Vec(v)
    for atom in reversed(word.atoms):
        v = atom.to_isometry(word.lattice).apply(v)
    return v


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
        assert GroupWord(lat).evaluate() == Isometry.identity(lat)

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
    """atom.inverse() is the atom of the inverse map: t(e, -a) for
    t(e, a), and s_a itself for s_a."""

    @PROPERTY
    @given(spec=specs, seed=seeds)
    def test_transvection(self, spec, seed):
        lat, e, a = isotropic_pair(spec, seed)
        atom = TransvectionAtom(e, a)
        assert atom.to_isometry(lat) * atom.inverse().to_isometry(lat) == Isometry.identity(lat)

    @PROPERTY
    @given(spec=specs, data=st.data())
    def test_reflection(self, spec, data):
        lat = lattice(spec)
        atom = ReflectionAtom(anisotropic(lat, data))
        assert atom.to_isometry(lat) * atom.inverse().to_isometry(lat) == Isometry.identity(lat)

    def test_is_integral(self):
        """An inverse atom is integral exactly when its atom is, however
        the inverse is written."""
        lat = lattice("2U+<-2>")
        atom = TransvectionAtom(Vec(_E), Vec([0, 0, 1, 2, 1]))
        assert atom.to_isometry(lat).is_integral()
        for word in (GroupWord(lat, [atom.inverse()]), GroupWord(lat, [atom]).inverse()):
            assert word.is_integral()
            assert word.evaluate().is_integral()
        half = ReflectionAtom(Vec([0, 0, 0, 0, Fraction(1, 2)]))
        assert not GroupWord(lat, [half.inverse()]).is_integral()
        assert not GroupWord(lat, [atom, TransvectionAtom(Vec(_E), Vec(_E1) / 2).inverse()]).is_integral()


class TestAtomAction:
    @PROPERTY
    @given(spec=specs, seed=seeds, data=st.data())
    def test_transvection(self, spec, seed, data):
        lat, e, a = isotropic_pair(spec, seed)
        v = rational_vector(lat, data)
        for atom in (TransvectionAtom(e, a), TransvectionAtom(e, a).inverse()):
            assert GroupWord(lat, (atom,)).apply(v) == atom.to_isometry(lat).apply(v)

    @PROPERTY
    @given(spec=specs, data=st.data())
    def test_reflection(self, spec, data):
        lat = lattice(spec)
        atom = ReflectionAtom(anisotropic(lat, data))
        v = rational_vector(lat, data)
        assert GroupWord(lat, (atom,)).apply(v) == atom.to_isometry(lat).apply(v)

    @PROPERTY
    @given(spec=st.sampled_from(("2U+A2", "2U+<-10>")), seed=seeds, data=st.data())
    def test_word(self, spec, seed, data):
        lat = lattice(spec)
        rng = random.Random(seed)
        word = mixed_word(standard_splitting(lat), rng, rng.randint(0, 8))
        v = rational_vector(lat, data)
        assert word.apply(v) == word.evaluate().apply(v)
        u = Vec(rng.randint(-9, 9) for _ in range(lat.rank))
        assert word.apply(u) == word.evaluate().apply(u)

    @PROPERTY
    @given(spec=specs, seed=seeds, length=st.integers(1, 6))
    def test_rational_word(self, spec, seed, length):
        """The one-pass action of a word whose atoms and vector have
        denominators 2 and 3 is each atom's matrix applied in turn."""
        lat = lattice(spec)
        split = standard_splitting(lat)
        rng = random.Random(seed)
        atoms = []
        while len(atoms) < length:
            if rng.random() < 0.3:
                mirror = sampled_vector(lat, rng)
                if lat.norm(mirror):
                    atoms.append(ReflectionAtom(mirror))
            else:
                # t(g e, g a) for an integral word g, a in L1 and e = c e or c f
                g = mixed_word(split, rng, rng.randint(0, 3))
                base = split.e if rng.random() < 0.5 else split.f
                c = rng.choice((1, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3)))
                atoms.append(TransvectionAtom(g.apply(c * base), g.apply(l1_vector(split, rng))))
        assert {x._den for at in atoms for x in at._asdict().values()} <= {1, 2, 3, 6}
        word = GroupWord(lat, atoms)
        v = sampled_vector(lat, rng)
        assert word.apply(v) == matrix_path(word, v) == word.evaluate().apply(v)


class TestWordJson:
    """GroupWord.from_json(to_json()) through JSON text gives the same
    atoms and the same action."""

    @PROPERTY
    @given(spec=specs, seed=seeds, data=st.data())
    def test_round_trip(self, spec, seed, data):
        lat = lattice(spec)
        rng = random.Random(seed)
        atoms = list(mixed_word(standard_splitting(lat), rng, rng.randint(0, 6)).atoms)
        _, e, a = isotropic_pair(spec, seed)
        atoms += [TransvectionAtom(e, a), ReflectionAtom(anisotropic(lat, data))]
        atoms.append(atoms[data.draw(st.integers(0, len(atoms) - 1))].inverse())
        rng.shuffle(atoms)
        word = GroupWord(lat, atoms)
        again = GroupWord.from_json(lat, json.loads(json.dumps(word.to_json())))
        assert again.atoms == word.atoms
        v = rational_vector(lat, data)
        assert again.apply(v) == word.apply(v)


class TestIntegralApply:
    @PROPERTY
    @given(n=st.integers(0, 6), m=st.integers(0, 6), data=st.data())
    def test_matches_fraction_path(self, n, m, data):
        ints = st.integers(-(1 << 70), 1 << 70) | st.integers(-9, 9)
        mat = Mat._raw(n, m, data.draw(st.lists(ints, min_size=n * m, max_size=n * m)), 1)
        v = data.draw(st.lists(ints, min_size=m, max_size=m))
        out = mat.apply(v)
        assert out == mat.apply([Fraction(x) for x in v])
        assert len(out) == n and all(type(x) is int for x in out)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.5])
    def test_bool_and_float_raise(self, bad):
        lat = lattice("2U")
        with pytest.raises(TypeError):
            Mat.identity(4).apply([bad, 0, 0, 1])
        with pytest.raises(TypeError):
            lat.inner([0, 1, bad, 0], [1, 0, 0, 0])


def _t(e, a):
    return {"type": "transvection", "e": e, "a": a}


_E, _F, _E1, _G = [1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]


# Bad words and vectors on 2U+<-2>, with the error the matrix path
# raises: the basis is (e, f, e1, f1, g), with e isotropic, (e, f) = 1
# and (g, g) = -2.
BAD_WORDS = [
    ([_t(_E, _E1)], [1, 2, 3, 4], ValueError, "shape mismatch"),
    ([_t(_E, _E1)], [1, 2, 3, 4, 5, 6], ValueError, "shape mismatch"),
    ([_t(_G, _E1)], _F, NotIsotropicError, "base vector must be isotropic"),
    ([_t(_G, _G)], _F, NotIsotropicError, "base vector must be isotropic"),
    ([_t(_E, _F)], _F, NotOrthogonalError, "(e, a) must vanish"),
    ([{"type": "reflection", "mirror": _E}], _F, IsotropicMirrorError,
     "mirror vector is isotropic"),
    ([_t(_G, [0, 0, -1, 0, 0])], _F, NotIsotropicError, "base vector must be isotropic"),
    ([_t(_E, _F), _t(_G, _E1)], _F, NotIsotropicError, "base vector must be isotropic"),
    ([_t(_E, _F), _t(_E, _E1)], [1, 2], ValueError, "shape mismatch"),
    ([_t(_E, _E1), _t(_E, _F)], [1, 2], NotOrthogonalError, "(e, a) must vanish"),
]
WRONG_LENGTH_ATOMS = [
    [_t([1, 0, 0, 0], _E1)],
    [_t(_E, [0, 0, 1])],
    [{"type": "reflection", "mirror": [0, 0, 0, 0, 1, 0]}],
]


class TestActionErrors:
    """Bad atoms and vectors raise through ``GroupWord.apply`` what the
    matrix path raises, in the same order."""

    @pytest.mark.parametrize("atoms, v, error, message", BAD_WORDS)
    def test_same_error_as_matrix_path(self, atoms, v, error, message):
        word = GroupWord.from_json(lattice("2U+<-2>"), atoms)
        with pytest.raises(error) as got:
            word.apply(v)
        assert str(got.value) == message
        with pytest.raises(error) as want:
            matrix_path(word, v)
        assert str(want.value) == message

    @pytest.mark.parametrize("v", [[1, 2, 3, 4], [1, 2, 3, 4, 5, 6], []])
    def test_empty_word_checks_length(self, v):
        """The empty word, like its identity matrix, refuses a vector of
        the wrong length and returns one of the right length."""
        word = GroupWord(lattice("2U+<-2>"))
        with pytest.raises(ValueError, match="shape mismatch"):
            word.apply(v)
        with pytest.raises(ValueError, match="shape mismatch"):
            word.evaluate().apply(v)
        assert word.apply(_F) == word.evaluate().apply(_F) == Vec(_F)

    @pytest.mark.parametrize("atoms", WRONG_LENGTH_ATOMS)
    def test_wrong_length_atom(self, atoms):
        word = GroupWord.from_json(lattice("2U+<-2>"), atoms)
        with pytest.raises(ValueError) as got:
            word.apply(_F)
        with pytest.raises(ValueError) as want:
            matrix_path(word, _F)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("atoms, v, error", [case[:3] for case in BAD_WORDS]
                             + [(atoms, _F, ValueError) for atoms in WRONG_LENGTH_ATOMS])
    def test_same_error_every_time(self, atoms, v, error):
        """Twice on a cold lattice, then once more after every valid atom
        of the word has acted and been cached; invalid atoms never are."""
        lat = build("2U+<-2>")
        word = GroupWord.from_json(lat, atoms)
        messages = []
        for _ in range(2):
            with pytest.raises(error) as got:
                word.apply(v)
            messages.append(str(got.value))
        for atom in word.atoms:
            try:
                GroupWord(lat, (atom,)).apply(_F)
                valid = True
            except (OrthlatError, ValueError):
                valid = False
            assert (atom in lat._cache.get("atom_terms", {})) == valid
        with pytest.raises(error) as got:
            word.apply(v)
        messages.append(str(got.value))
        assert messages == [messages[0]] * 3


class TestAtomCache:
    """Each lattice keeps the validated terms of the atoms that acted on
    it or were turned into matrices, with G z applied, under the atom;
    the checks run once per lattice.  The expected matrices come from
    the column oracles, which never read the cache."""

    @staticmethod
    def cold_and_warm(spec, atom, v, want, direct):
        """``want`` is the oracle matrix of the atom and ``direct`` the
        same map built by ``transvection``/``reflection``."""
        lat = build(spec)  # a new object: nothing cached yet
        assert direct(lat).mat == want
        assert atom not in lat._cache.get("atom_terms", {})
        assert GroupWord(lat, (atom,)).apply(v) == want.apply(v)
        assert atom in lat._cache["atom_terms"]
        assert GroupWord(lat, (atom,)).apply(v) == want.apply(v)
        lat = build(spec)
        cold = atom.to_isometry(lat)
        assert atom in lat._cache["atom_terms"]
        assert cold.mat == want
        assert atom.to_isometry(lat) == cold
        assert GroupWord(lat, (atom,)).apply(v) == want.apply(v)

    @PROPERTY
    @given(spec=specs, seed=seeds, data=st.data())
    def test_transvection(self, spec, seed, data):
        _, e, a = isotropic_pair(spec, seed)
        lat = lattice(spec)
        v = rational_vector(lat, data)
        atom = TransvectionAtom(e, a)
        self.cold_and_warm(spec, atom, v, transvection_oracle(lat, e, a),
                           lambda lat: transvection(lat, e, a))
        self.cold_and_warm(spec, atom.inverse(), v, transvection_oracle(lat, e, -a),
                           lambda lat: transvection(lat, e, -a))

    @PROPERTY
    @given(spec=specs, data=st.data())
    def test_reflection(self, spec, data):
        lat = lattice(spec)
        a = anisotropic(lat, data)
        v = rational_vector(lat, data)
        self.cold_and_warm(spec, ReflectionAtom(a), v, reflection_oracle(lat, a),
                           lambda lat: reflection(lat, a))

    @pytest.mark.parametrize("atoms", [case[0] for case in BAD_WORDS] + WRONG_LENGTH_ATOMS)
    def test_invalid_never_stored(self, atoms):
        """An atom whose matrix cannot be built raises on every call and
        is never cached; a valid atom is cached by its first matrix."""
        lat = build("2U+<-2>")
        for atom in GroupWord.from_json(lat, atoms).atoms:
            for _ in range(2):
                try:
                    atom.to_isometry(lat)
                    valid = True
                except (OrthlatError, ValueError):
                    valid = False
                assert (atom in lat._cache.get("atom_terms", {})) == valid

    def test_cache_is_bounded(self):
        """10,000 distinct random atoms on one lattice: the cache never
        holds more than ATOM_TERMS_CACHE_LIMIT atoms, is emptied when
        full, and every atom acts as its formula says, also when it acts
        again after its terms were dropped."""
        lat = build("2U+<-2>")
        rng = random.Random(0)
        e, v = Vec(_E), Vec([3, -1, 2, 5, -4])
        atoms = {}    # distinct, in the order drawn
        while len(atoms) < 10_000:
            x = Vec(rng.randint(-50, 50) for _ in range(5))
            if len(atoms) % 2:
                if lat.norm(x):
                    atoms[ReflectionAtom(x)] = None
            else:
                atoms[TransvectionAtom(e, x - lat.inner(e, x) * Vec(_F))] = None

        def image(atom):
            if isinstance(atom, ReflectionAtom):
                a = atom.mirror
                return v - (Fraction(2 * lat.inner(a, v)) / lat.norm(a)) * a
            a = atom.a
            return v - lat.inner(a, v) * e + lat.inner(e, v) * a \
                - (Fraction(lat.norm(a), 2) * lat.inner(e, v)) * e

        for i, atom in enumerate(atoms):
            assert GroupWord(lat, (atom,)).apply(v) == image(atom)
            assert len(lat._cache["atom_terms"]) == i % ATOM_TERMS_CACHE_LIMIT + 1
        cached = len(lat._cache["atom_terms"])
        for atom in list(atoms)[:50]:    # dropped by the first clear
            assert atom not in lat._cache["atom_terms"]
            assert GroupWord(lat, (atom,)).apply(v) == image(atom)
        assert len(lat._cache["atom_terms"]) == cached + 50

    def test_validated_on_each_lattice(self):
        """An atom cached on 2U+<-2> is checked again on a --file lattice
        of the same rank, where its e has norm 2."""
        lat = build("2U+<-2>")
        atom = TransvectionAtom(Vec(_E), Vec(_E1))
        assert GroupWord(lat, (atom,)).apply(_F) == Vec([0, 1, 1, 0, 0])
        assert atom in lat._cache["atom_terms"]
        other = lattice_from_json({"gram": [
            [2, 1, 0, 0, 0], [1, -2, 0, 0, 0], [0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0], [0, 0, 0, 0, -2]]})
        for _ in range(2):
            with pytest.raises(NotIsotropicError, match="base vector must be isotropic"):
                GroupWord(other, [atom]).apply(_F)
        assert atom not in other._cache.get("atom_terms", {})
        assert GroupWord(lat, (atom,)).apply(_F) == Vec([0, 1, 1, 0, 0])


# Pairs on 2U+<-2> where e is not isotropic and a is not orthogonal to
# e either: the isotropy check comes first on every path.
BOTH_DEFECTS = [(_G, _G), ([1, 1, 0, 0, 0], _E), ([0, 0, 1, 1, 0], [0, 0, 1, 0, 0])]


class TestValidationOrder:
    """The direct builders, atom actions and atom matrices validate the
    same way, in the same order, on every call."""

    @staticmethod
    def raises_every_time(lat, paths, error, message):
        for _ in range(2):
            for path in paths:
                with pytest.raises(OrthlatError) as got:
                    path()
                assert type(got.value) is error
                assert str(got.value) == message
        assert not lat._cache.get("atom_terms")

    @pytest.mark.parametrize("e, a", BOTH_DEFECTS)
    def test_not_isotropic_before_not_orthogonal(self, e, a):
        lat = build("2U+<-2>")
        assert lat.norm(e) != 0 and lat.inner(e, a) != 0
        atom = TransvectionAtom(Vec(e), Vec(a))
        paths = [lambda: transvection(lat, e, a)]
        for at in (atom, atom.inverse()):
            paths += [lambda at=at: GroupWord(lat, (at,)).apply(_F), lambda at=at: at.to_isometry(lat),
                      lambda at=at: GroupWord(lat, [at]).evaluate()]
        self.raises_every_time(lat, paths, NotIsotropicError, "base vector must be isotropic")

    @pytest.mark.parametrize("mirror", [_E, _F, [1, 0, 0, 5, 0], [0, 0, 1, 1, 1]])
    def test_isotropic_mirror(self, mirror):
        lat = build("2U+<-2>")
        assert lat.norm(mirror) == 0
        atom = ReflectionAtom(Vec(mirror))
        paths = [lambda: reflection(lat, mirror)]
        for at in (atom, atom.inverse()):
            paths += [lambda at=at: GroupWord(lat, (at,)).apply(_F), lambda at=at: at.to_isometry(lat),
                      lambda at=at: GroupWord(lat, [at]).evaluate()]
        self.raises_every_time(lat, paths, IsotropicMirrorError, "mirror vector is isotropic")


class TestSampler:
    @PROPERTY
    @given(spec=specs, seed=seeds)
    def test_isotropic_vector_draws(self, spec, seed):
        """isotropic_vector makes the draws of the matrix formula it
        replaced, in the same order, and returns the same vectors."""
        split = standard_splitting(lattice(spec))
        r1, r2 = random.Random(seed), random.Random(seed)
        for _ in range(3):
            g = integral_isometry(split, r2, r2.randint(0, 4))
            base = split.e if r2.random() < 0.5 else split.f
            want = nonzero_rational(r2, 3) * g.apply(base)
            assert isotropic_vector(split, r1) == want
            assert r1.getstate() == r2.getstate()
            assert split.lattice.norm(want) == 0

    def test_draws_pinned(self):
        """Every sampler makes the same draws from a seed: sha256 of 50
        rounds on two lattices.  The suite prints only pass/fail, so its
        golden does not pin the random stream; this does."""
        h = hashlib.sha256()
        for spec in ("2U+A2", "2U+<-10>"):
            split = standard_splitting(lattice(spec))
            lat = split.lattice
            rng = random.Random(5)
            for _ in range(50):
                vecs = [sampling.rational_vector(lat, rng), sampling.l1_vector(split, rng),
                        sampling.l0_vector(split, rng), sampling.isotropic_vector(split, rng),
                        sampling.orthogonal_to(lat, rng, split.e, anisotropic=True)]
                words = [sampling.transvection_word(split, rng, 3),
                         sampling.mixed_word(split, rng, 4)]
                scalars = [sampling.rational(rng, 3), sampling.nonzero_rational(rng)]
                h.update(json.dumps([[[str(x) for x in v] for v in vecs],
                                     [w.to_json() for w in words],
                                     [str(x) for x in scalars]]).encode())
        assert h.hexdigest() == "746930e19b6688ad331469e8390c787afce60e12b5d61d525dba1d29c0e7c7e7"


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
