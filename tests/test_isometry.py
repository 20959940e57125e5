import hashlib
import json
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from orthlat.errors import (
    IsotropicMirrorError,
    NotIsometryError,
    NotIsotropicError,
    NotOrthogonalError,
)
from orthlat.isometry import (
    GroupWord,
    Isometry,
    ReflectionAtom,
    TransvectionAtom,
    cartan_dieudonne,
    class_mul,
    membership,
    reflection,
    spinor_norm_q,
    squarefree_class,
    transvection,
)
from orthlat.eichler import standard_splitting
from orthlat.jacobi import jacobi_lattice
from orthlat.lattice import Lattice, build
from orthlat.linalg import Mat, Vec, congruence_diagonalize
from orthlat.sampling import (
    integral_isometry,
    isotropic_vector,
    mixed_word,
    nonzero_rational,
    orthogonal_to,
    rational_vector,
    transvection_word,
)


def reassemble(lat, mirrors):
    out = Isometry.identity(lat)
    for m in mirrors:
        out = out * reflection(lat, m)
    return out


class TestReflection:
    def test_swaps_hyperbolic_basis(self):
        u = build("U")
        s = reflection(u, [1, -1])
        assert s.apply([1, 0]) == Vec([0, 1])
        assert s.apply([0, 1]) == Vec([1, 0])
        assert s.det() == -1

    def test_involution(self):
        lat = build("U+A2")
        rng = random.Random(0)
        for _ in range(15):
            a = Vec([rng.randint(-3, 3) for _ in range(4)])
            if lat.norm(a) == 0:
                continue
            s = reflection(lat, a)
            assert s * s == Isometry.identity(lat)
            assert s.apply(a) == -a

    def test_root_reflection_integral_and_stable(self):
        lat = build("2U+<-6>")
        mem = membership(lat, reflection(lat, [1, -1, 0, 0, 0]).mat)
        assert mem.in_stable and mem.in_o_plus and not mem.in_so

    def test_isotropic_mirror(self):
        with pytest.raises(IsotropicMirrorError):
            reflection(build("U"), [1, 0])


class TestTransvection:
    def test_trivial_cases(self):
        lat = build("2U")
        e = Vec([1, 0, 0, 0])
        assert transvection(lat, e, Vec.zero(4)) == Isometry.identity(lat)
        assert transvection(lat, e, Fraction(5, 3) * e) == Isometry.identity(lat)

    def test_basis_action(self):
        # t(e, e1) on U+U1: f1 -> f1 - e, f -> f + e1, e and e1 fixed
        lat = build("2U")
        t = transvection(lat, [1, 0, 0, 0], [0, 0, 1, 0])
        assert t.apply([1, 0, 0, 0]) == Vec([1, 0, 0, 0])
        assert t.apply([0, 0, 1, 0]) == Vec([0, 0, 1, 0])
        assert t.apply([0, 0, 0, 1]) == Vec([-1, 0, 0, 1])
        assert t.apply([0, 1, 0, 0]) == Vec([0, 1, 1, 0])

    def test_preconditions(self):
        lat = build("2U")
        with pytest.raises(NotIsotropicError):
            transvection(lat, [1, 1, 0, 0], [0, 0, 1, 0])
        with pytest.raises(NotOrthogonalError):
            transvection(lat, [1, 0, 0, 0], [0, 1, 0, 0])

    def test_unipotence(self):
        lat = build("2U+A2")
        split = standard_splitting(lat)
        rng = random.Random(3)
        e_full = split.e
        ident = Mat.identity(lat.rank)
        for _ in range(20):
            a = orthogonal_to(lat, rng, e_full)
            t = transvection(lat, e_full, a)
            d = Mat([[t.mat[i, j] - ident[i, j] for j in range(lat.rank)]
                     for i in range(lat.rank)])
            sq = d @ d
            assert sq @ d == Mat([[0] * lat.rank for _ in range(lat.rank)])
            # columns of (t - 1)^2 lie on the line through e
            for j in range(lat.rank):
                col = sq.transpose().row(j)
                assert col.is_zero() or all(
                    col[i] == col[0] * e_full[i] / e_full[0] if e_full[0] else True
                    for i in range(lat.rank))

    def test_fixes_perp(self):
        lat = build("2U+A2")
        e = Vec([1, 0, 0, 0, 0, 0])
        a = Vec([0, 0, 2, 0, 1, 0])
        t = transvection(lat, e, a)
        v = Vec([0, 0, 0, 0, 1, -2])  # orthogonal to both e and a?
        if lat.inner(v, e) == 0 and lat.inner(v, a) == 0:
            assert t.apply(v) == v
        assert t.apply(e) == e


class TestIdentities:
    """The displayed transvection relations, over random rational data."""

    LATTICES = ("2U+A2", "2U+<-4>")

    @pytest.mark.parametrize("spec", LATTICES)
    def test_additivity_and_inverse(self, spec):
        lat = build(spec)
        split = standard_splitting(lat)
        rng = random.Random(10)
        for _ in range(15):
            e = isotropic_vector(split, rng)
            a = orthogonal_to(lat, rng, e)
            b = orthogonal_to(lat, rng, e)
            assert transvection(lat, e, a) * transvection(lat, e, b) \
                == transvection(lat, e, a + b)
            assert transvection(lat, e, a) * transvection(lat, e, -a) == Isometry.identity(lat)

    @pytest.mark.parametrize("spec", LATTICES)
    def test_conjugation(self, spec):
        lat = build(spec)
        split = standard_splitting(lat)
        rng = random.Random(11)
        for _ in range(15):
            e = isotropic_vector(split, rng)
            a = orthogonal_to(lat, rng, e)
            g = integral_isometry(split, rng, rng.randint(1, 4))
            assert g * transvection(lat, e, a) \
                == transvection(lat, g.apply(e), g.apply(a)) * g

    @pytest.mark.parametrize("spec", LATTICES)
    def test_rescaling(self, spec):
        lat = build(spec)
        split = standard_splitting(lat)
        rng = random.Random(12)
        for _ in range(15):
            e = isotropic_vector(split, rng)
            a = orthogonal_to(lat, rng, e)
            x = Fraction(rng.randint(1, 5), rng.choice([1, 2, 3]))
            assert transvection(lat, x * e, a) == transvection(lat, e, x * a)

    @pytest.mark.parametrize("spec", LATTICES)
    def test_two_reflection_form(self, spec):
        lat = build(spec)
        split = standard_splitting(lat)
        rng = random.Random(13)
        for _ in range(15):
            e = isotropic_vector(split, rng)
            a = orthogonal_to(lat, rng, e, anisotropic=True)
            second = a + (Fraction(lat.norm(a)) / 2) * e
            assert reflection(lat, a) * reflection(lat, second) \
                == transvection(lat, e, a)

    @pytest.mark.parametrize("spec", LATTICES)
    def test_reflection_pair_product(self, spec):
        lat = build(spec)
        split = standard_splitting(lat)
        rng = random.Random(14)
        done = 0
        while done < 15:
            a = Vec([0, 0] + [rng.randint(-3, 3) for _ in range(lat.rank - 2)])
            n = lat.norm(a)
            if n == 0:
                continue
            done += 1
            lhs = (transvection(lat, split.f, a)
                   * transvection(lat, split.e, Fraction(2, n) * a)
                   * transvection(lat, split.f, a))
            assert lhs == reflection(lat, a) \
                * reflection(lat, split.e + (Fraction(n) / 2) * split.f)

    def test_reflection_pair_at_roots_matches_display(self):
        # for square -2 both scalings agree: 2/(a,a) == (a,a)/2 == -1
        lat = build("2U+<-2>")
        split = standard_splitting(lat)
        for a in lat.enumerate_vectors(-2, 2):
            if lat.inner(a, split.e) or lat.inner(a, split.f):
                continue
            lhs = (transvection(lat, split.f, a)
                   * transvection(lat, split.e, -a)
                   * transvection(lat, split.f, a))
            assert lhs == reflection(lat, a) * reflection(lat, split.e - split.f)


class TestCartan:
    def test_identity_empty(self):
        lat = build("2U")
        assert cartan_dieudonne(Isometry.identity(lat)) == []

    def test_single_reflection(self):
        lat = build("2U+<-2>")
        s = reflection(lat, [1, -1, 0, 0, 0])
        mirrors = cartan_dieudonne(s)
        assert len(mirrors) == 1
        assert reassemble(lat, mirrors) == s

    def test_transvection_two_mirror_length(self):
        lat = build("2U+A2")
        t = transvection(lat, [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0])
        mirrors = cartan_dieudonne(t)
        assert reassemble(lat, mirrors) == t

    def test_reconstruction_random(self):
        lat = build("2U+<-2>")
        split = standard_splitting(lat)
        rng = random.Random(21)
        for _ in range(25):
            g = mixed_word(split, rng, rng.randint(0, 5)).evaluate()
            mirrors = cartan_dieudonne(g)
            assert len(mirrors) <= 2 * lat.rank
            assert all(lat.norm(m) != 0 for m in mirrors)
            assert reassemble(lat, mirrors) == g


class TestSpinorNorm:
    def test_square_classes(self):
        assert squarefree_class(12) == 3
        assert squarefree_class(Fraction(-8, 18)) == -1
        assert squarefree_class(Fraction(5, 3)) == 15
        assert class_mul(6, 10) == 15

    def test_reflection_value(self):
        lat = build("2U+<-2>")
        assert spinor_norm_q(reflection(lat, [1, -1, 0, 0, 0])) == 1
        assert spinor_norm_q(reflection(lat, [1, 1, 0, 0, 0])) == -1

    def test_transvections_trivial(self):
        lat = build("2U+A2")
        split = standard_splitting(lat)
        rng = random.Random(31)
        for _ in range(15):
            e = isotropic_vector(split, rng)
            a = orthogonal_to(lat, rng, e)
            t = transvection(lat, e, a)
            assert spinor_norm_q(t) == 1
            assert t.det() == 1

    def test_identity(self):
        assert spinor_norm_q(Isometry.identity(build("U"))) == 1

    def test_shuffle_independence_and_multiplicativity(self):
        lat = build("2U+<-2>")
        split = standard_splitting(lat)
        rng = random.Random(32)
        for k in range(20):
            g = mixed_word(split, rng, rng.randint(0, 5)).evaluate()
            h = mixed_word(split, rng, rng.randint(0, 5)).evaluate()
            perm = list(range(lat.rank))
            rng.shuffle(perm)
            assert spinor_norm_q(g) == spinor_norm_q(g, order=perm)
            assert spinor_norm_q(g * h) == class_mul(spinor_norm_q(g), spinor_norm_q(h))


class TestMembership:
    def test_integral_transvection_flags(self):
        lat = build("2U+<-6>")
        t = transvection(lat, [1, 0, 0, 0, 0], [0, 0, 1, 2, 1])
        mem = membership(lat, t.mat)
        assert mem.in_stable_so_plus and mem.in_spinorial_kernel

    def test_root_reflection_flags(self):
        lat = build("2U+<-6>")
        mem = membership(lat, reflection(lat, [1, -1, 0, 0, 0]).mat)
        assert mem.in_o_plus and not mem.in_so and mem.in_stable

    def test_minus_identity(self):
        lat = build("2U+<-4>")
        minus = Mat([[-1 if i == j else 0 for j in range(5)] for i in range(5)])
        mem = membership(lat, minus)
        assert mem.in_o and not mem.in_stable

    def test_non_isometry_all_false(self):
        lat = build("U")
        assert not any(membership(lat, Mat([[2, 0], [0, 1]]))._asdict().values())
        assert not any(membership(lat, Mat([[1, 0]]))._asdict().values())
        half = Mat([[Fraction(1, 2), 0], [0, 2]])
        assert not any(membership(lat, half)._asdict().values())

    def test_checks_isometry_once(self, monkeypatch):
        # the all-False case comes from the one check inside is_stable
        calls = []
        real = Lattice.check_isometry

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Lattice, "check_isometry", counted)
        lat = build("2U+<-6>")
        mats = [transvection(lat, [1, 0, 0, 0, 0], [0, 0, 1, 2, 1]).mat,
                reflection(lat, [0, 0, 0, 0, 1]).mat,
                Mat([[2 if i == j else 0 for j in range(5)] for i in range(5)]),
                reflection(lat, [1, 1, 0, 0, 1]).mat]
        for mat in mats:
            calls.clear()
            membership(lat, mat)
            assert len(calls) == 1

    def test_isometry_constructor_rejects(self):
        with pytest.raises(NotIsometryError):
            Isometry(build("U"), Mat([[1, 1], [0, 1]]))


class TestGroupWord:
    def test_evaluation_order(self):
        lat = build("2U")
        split = standard_splitting(lat)
        w = GroupWord(lat, (
            TransvectionAtom(split.e, split.e1),
            ReflectionAtom(split.e - split.f),
        ))
        # rightmost applies first
        expected = transvection(lat, split.e, split.e1) * reflection(lat, split.e - split.f)
        assert w.evaluate() == expected
        assert w.apply(split.f) == expected.apply(split.f)

    def test_inverse(self):
        lat = build("2U+<-2>")
        split = standard_splitting(lat)
        rng = random.Random(41)
        for _ in range(10):
            w = mixed_word(split, rng, rng.randint(1, 5))
            assert w.evaluate() * w.inverse().evaluate() == Isometry.identity(lat)

    def test_json_round_trip(self):
        lat = build("2U")
        split = standard_splitting(lat)
        w = GroupWord(lat, (
            TransvectionAtom(split.e, Fraction(1, 2) * split.e1),
            ReflectionAtom(split.e - split.f),
        ))
        again = GroupWord.from_json(lat, w.to_json())
        assert again.atoms == w.atoms
        assert again.evaluate() == w.evaluate()

    def test_json_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            GroupWord.from_json(build("U"), [{"type": "reflection", "mirror": ["1", "1/0"]}])

    @pytest.mark.parametrize("atom", [
        {"type": "inverse", "atom": {"type": "reflection", "mirror": ["1", "-1", "0", "0"]}},
        {"type": "rotation"},
    ])
    def test_json_unknown_atom_type(self, atom):
        with pytest.raises(ValueError, match=f"unknown atom type '{atom['type']}'"):
            GroupWord.from_json(build("2U"), [atom])


EVALUATE_SPLITS = {
    "2U+A2": lambda: standard_splitting(build("2U+A2")),
    "2U+<-10>": lambda: standard_splitting(build("2U+<-10>")),
    "jacobi A2": lambda: jacobi_lattice(build("A2"))[1],
    "2U+2E8(-1)+<-2>": lambda: standard_splitting(build("2U+2E8(-1)+<-2>")),
}


def random_rational_atom(split, rng):
    """A rational reflection, or a rational transvection t(e, a) with e a
    rescaled image of e or f under an integral word (no enumeration, so
    it works at rank 21)."""
    lat = split.lattice
    if rng.random() < 0.5:
        while True:
            m = rational_vector(lat, rng)
            if lat.norm(m) != 0:
                return ReflectionAtom(m)
    base = split.e if rng.random() < 0.5 else split.f
    e = nonzero_rational(rng, 3) * transvection_word(split, rng, rng.randint(0, 3)).apply(base)
    return TransvectionAtom(e, orthogonal_to(lat, rng, e))


class TestEvaluateByRankUpdates:
    """GroupWord.evaluate folds atoms in as rank updates; the oracle is
    the dense product of the atoms' own matrices, kept here only."""

    @pytest.mark.parametrize("name", sorted(EVALUATE_SPLITS))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32), length=st.integers(0, 12))
    def test_matches_dense_fold(self, name, seed, length):
        split = EVALUATE_SPLITS[name]()
        lat = split.lattice
        rng = random.Random(seed)
        atoms = [random_rational_atom(split, rng) for _ in range(length)]
        dense = reduce(Isometry.__mul__, [a.to_isometry(lat) for a in atoms],
                       Isometry.identity(lat))
        assert GroupWord(lat, atoms).evaluate().mat == dense.mat


def dense_transvection(lat, e, a) -> Mat:
    """I - e (G a)^T + a (G e)^T - ((a, a)/2) e (G e)^T, the three-term
    form, written out entry by entry."""
    ga, ge = lat.gram.apply(a), lat.gram.apply(e)
    half_aa = Fraction(lat.norm(a)) / 2
    n = lat.rank
    return Mat([[(1 if i == j else 0) - e[i] * ga[j] + a[i] * ge[j] - half_aa * e[i] * ge[j]
                 for j in range(n)] for i in range(n)])


class TestTwoTermTransvection:
    """t(e, a) is built from two rank-one terms, e (G z)^T and a (G e)^T
    with z = -a - ((a, a)/2) e; the oracle is the dense three-term form,
    kept here only."""

    @pytest.mark.parametrize("name", sorted(EVALUATE_SPLITS))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32))
    def test_matches_three_term_form(self, name, seed):
        split = EVALUATE_SPLITS[name]()
        lat = split.lattice
        rng = random.Random(seed)
        base = split.e if rng.random() < 0.5 else split.f
        e = nonzero_rational(rng, 3) * transvection_word(split, rng, rng.randint(0, 3)).apply(base)
        a = orthogonal_to(lat, rng, e)
        dense = dense_transvection(lat, e, a)
        assert transvection(lat, e, a).mat == dense
        v = rational_vector(lat, rng)
        assert GroupWord(lat, (TransvectionAtom(e, a),)).apply(v) == dense.apply(v)

    @pytest.mark.parametrize("name", sorted(EVALUATE_SPLITS))
    def test_errors_in_order(self, name):
        split = EVALUATE_SPLITS[name]()
        lat = split.lattice
        h = split.e + split.f                      # (h, h) = 2, (h, e) = 1
        half = Fraction(1, 2) * split.e
        # a non-isotropic base is reported before a non-orthogonal argument
        for e, a in ((h, split.f), (h, split.e1), (half, split.f)):
            err = NotIsotropicError if lat.norm(e) else NotOrthogonalError
            with pytest.raises(err):
                transvection(lat, e, a)
            with pytest.raises(err):
                GroupWord(lat, (TransvectionAtom(e, a),)).apply(split.e)


def dense_cartan_dieudonne(g: Isometry, order=None) -> list[Vec]:
    """The mirror walk with each reflection's own matrix and a dense
    product, over the orthogonal basis of a permuted Gram matrix built
    with a permutation matrix."""
    lat = g.lattice
    n = lat.rank
    order = range(n) if order is None else list(order)
    perm = Mat([[1 if i == order[j] else 0 for j in range(n)] for i in range(n)])
    cols, _ = congruence_diagonalize(perm.transpose() @ lat.gram @ perm)
    mirrors, h = [], g
    for w in (perm.apply(c) for c in cols):
        hw = h.apply(w)
        if hw == w:
            continue
        d = w - hw
        if lat.norm(d) != 0:
            h = reflection(lat, d) * h
            mirrors.append(d)
        else:
            s = w + hw
            h = reflection(lat, w) * reflection(lat, s) * h
            mirrors += [s, w]
    assert h == Isometry.identity(lat)
    return mirrors


class TestCartanDieudonneOracle:
    """cartan_dieudonne folds each mirror in by a left rank update; the
    oracle is the dense product of reflection matrices, kept here only."""

    @pytest.mark.parametrize("name", ["2U+A2", "2U+<-10>", "jacobi A2"])
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32), length=st.integers(0, 8), rational=st.booleans())
    def test_same_mirrors(self, name, seed, length, rational):
        split = EVALUATE_SPLITS[name]()
        lat = split.lattice
        rng = random.Random(seed)
        if rational:
            g = GroupWord(lat, [random_rational_atom(split, rng) for _ in range(length)])
        else:
            g = mixed_word(split, rng, length)
        g = g.evaluate()
        order = list(range(lat.rank))
        rng.shuffle(order)
        for o in (None, order):
            mirrors = cartan_dieudonne(g, o)
            assert mirrors == dense_cartan_dieudonne(g, o)
            assert reassemble(lat, mirrors) == g


K3_SPLIT = standard_splitting(build("2U+2E8(-1)+<-2>"))

# sha256 of the JSON of (mirrors, mirrors under a shuffled basis order,
# spinor norm) over the words of k3_isometries(seed), recorded before
# cartan_dieudonne folded mirrors in by rank updates
K3_CARTAN_DIGESTS = {
    1: "5ce18044f575fbeb0d955b8a990de25206c48fdd6c036e5ed826ba31855971fb",
    2: "6a376bc2fbd9d0458ea06fa9a5632bef8cc62e0fecedacf6797609a2b2414d9a",
    3: "73788e82b396708f4dc9e13170f5c068f3a8beaa75c11e6259f22f1478904a32",
}


def k3_isometries(seed, count=6):
    """Seeded integral words on the rank-21 K3 lattice mixing integral
    transvections with reflections in e + f (spinor norm -1), in the
    <-2> generator h and in the first E8(-1) root."""
    lat, rng = K3_SPLIT.lattice, random.Random(seed)
    mirrors = [K3_SPLIT.e + K3_SPLIT.f, lat.basis_vector(lat.rank - 1), lat.basis_vector(4)]
    return [(mixed_word(K3_SPLIT, rng, rng.randint(1, 8), roots=mirrors).evaluate(),
             rng.sample(range(lat.rank), lat.rank)) for _ in range(count)]


@pytest.mark.parametrize("seed", sorted(K3_CARTAN_DIGESTS))
def test_k3_cartan_dieudonne_pinned(seed):
    record = []
    for g, order in k3_isometries(seed):
        mirrors = [[str(x) for x in m] for m in cartan_dieudonne(g)]
        shuffled = [[str(x) for x in m] for m in cartan_dieudonne(g, order)]
        record.append([mirrors, shuffled, spinor_norm_q(g), spinor_norm_q(g, order)])
    text = json.dumps(record)
    assert hashlib.sha256(text.encode()).hexdigest() == K3_CARTAN_DIGESTS[seed]
