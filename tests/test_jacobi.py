import random

import pytest

from orthlat.eichler import standard_splitting
from orthlat.errors import NotUnimodularError
from orthlat.isometry import Isometry, membership, reflection, transvection
from orthlat.jacobi import (
    heis_embed,
    jacobi_embed,
    jacobi_lattice,
    paramodular_flip_check,
    paramodular_lattice,
    s_element,
    sl2_generator_checks,
    stable_group_generators,
    verify_plane_identities,
)
from orthlat.lattice import build
from orthlat.linalg import Mat
from test_linalg import gauss_jordan_inverse


def heis_decompose(split, g):
    """Read (u, v, z) off a Heisenberg-shaped matrix; raises ValueError
    when heis_embed does not give the matrix back."""
    n = split.lattice.rank
    u = [int(g.mat[i, n - 2]) for i in split.l0_indices]
    v = [int(g.mat[i, n - 1]) for i in split.l0_indices]
    z = int(g.mat[1, n - 1])
    if heis_embed(split, u, v, z) != g:
        raise ValueError("matrix is not of Heisenberg form")
    return u, v, z


@pytest.fixture(scope="module")
def ja2():
    l0 = build("A2")
    lat, split = jacobi_lattice(l0)
    return l0, lat, split


class TestLattice:
    def test_basis_order(self, ja2):
        _, lat, split = ja2
        assert lat.labels == ("e", "e1", "a", "b", "f1", "f")
        assert lat.inner(split.e, split.f) == 1
        assert lat.inner(split.e1, split.f1) == 1
        assert lat.norm(split.e) == 0

    @pytest.mark.parametrize("spec", ["<-2>", "A2", "U+A2"])
    def test_split_along_the_outer_planes(self, spec):
        # read off the Gram matrix, ahead of any plane inside L0
        lat, split = jacobi_lattice(build(spec))
        n = lat.rank
        assert (split.u_idx, split.u1_idx) == ((0, n - 1), (1, n - 2))

    def test_det(self, ja2):
        l0, lat, _ = ja2
        assert lat.det() == l0.det()


class TestEmbeddings:
    def test_generator_correspondences(self, ja2):
        _, _, split = ja2
        assert all(c.holds for c in sl2_generator_checks(split))

    def test_shear_is_plane_transvection(self, ja2):
        _, lat, split = ja2
        assert jacobi_embed(split, Mat([[1, 1], [0, 1]])) \
            == transvection(lat, split.e, split.f1)
        assert jacobi_embed(split, Mat([[1, 0], [-1, 1]])) \
            == transvection(lat, split.f, split.e1)

    def test_heisenberg_center(self, ja2):
        _, lat, split = ja2
        assert heis_embed(split, [0, 0], [0, 0], 1) \
            == transvection(lat, split.e, split.e1)

    def test_rejects_non_unimodular(self, ja2):
        _, _, split = ja2
        with pytest.raises(NotUnimodularError):
            jacobi_embed(split, Mat([[1, 0], [0, 2]]))
        with pytest.raises(NotUnimodularError):
            jacobi_embed(split, Mat([[0, 1], [1, 0]]))

    def test_homomorphism(self, ja2):
        _, _, split = ja2
        rng = random.Random(1)
        mats = [Mat([[1, 1], [0, 1]]), Mat([[1, 0], [-1, 1]]), Mat([[0, -1], [1, 0]])]
        for _ in range(10):
            a, b = rng.choice(mats), rng.choice(mats)
            assert jacobi_embed(split, a) * jacobi_embed(split, b) \
                == jacobi_embed(split, a @ b)

    def test_companion_block_closed_form(self, ja2):
        # [[a, -b], [-c, d]] is J (A^T)^-1 J for A in SL2(Z), with the
        # inverse taken by the Gauss-Jordan oracle of test_linalg
        _, _, split = ja2
        rng = random.Random(7)
        gens = [Mat([[1, 1], [0, 1]]), Mat([[1, -1], [0, 1]]), Mat([[1, 0], [1, 1]]),
                Mat([[1, 0], [-1, 1]]), Mat([[0, -1], [1, 0]])]
        j2 = Mat([[0, 1], [1, 0]])
        for _ in range(25):
            a = Mat.identity(2)
            for _ in range(rng.randint(0, 12)):
                a = a @ rng.choice(gens)
            (p, q), (r, s) = a.int_rows()
            closed = Mat([[p, -q], [-r, s]])
            assert closed == j2 @ gauss_jordan_inverse(a.transpose()) @ j2
            g = jacobi_embed(split, a).mat
            assert Mat([[g[i, j] for j in range(2)] for i in range(2)]) == closed


class TestHeisenberg:
    def test_group_law(self, ja2):
        l0, _, split = ja2
        rng = random.Random(2)
        s0 = l0.gram
        for _ in range(25):
            u = [rng.randint(-3, 3) for _ in range(2)]
            v = [rng.randint(-3, 3) for _ in range(2)]
            up = [rng.randint(-3, 3) for _ in range(2)]
            vp = [rng.randint(-3, 3) for _ in range(2)]
            z, zp = rng.randint(-3, 3), rng.randint(-3, 3)
            prod = heis_embed(split, u, v, z) * heis_embed(split, up, vp, zp)
            pair = sum(u[i] * int(s0[i, j]) * vp[j]
                       for i in range(2) for j in range(2))
            # empirically determined center offset of the composition
            assert prod == heis_embed(split, [a + b for a, b in zip(u, up)],
                                      [a + b for a, b in zip(v, vp)], z + zp - pair)

    def test_semidirect_shape(self, ja2):
        _, _, split = ja2
        rng = random.Random(3)
        for _ in range(15):
            u = [rng.randint(-2, 2) for _ in range(2)]
            v = [rng.randint(-2, 2) for _ in range(2)]
            z = rng.randint(-2, 2)
            a = Mat([[1, 1], [0, 1]]) if rng.random() < 0.5 else Mat([[0, -1], [1, 0]])
            ja = jacobi_embed(split, a)
            (p, q), (r, s) = a.int_rows()
            ja_inv = jacobi_embed(split, Mat([[s, -q], [-r, p]]))
            assert ja * ja_inv == Isometry.identity(split.lattice)
            conj = ja * heis_embed(split, u, v, z) * ja_inv
            heis_decompose(split, conj)  # raises if not of Heisenberg shape

    def test_membership_stable_so_plus(self, ja2):
        _, lat, split = ja2
        rng = random.Random(4)
        for _ in range(10):
            g = (jacobi_embed(split, Mat([[1, 1], [0, 1]]))
                 * heis_embed(split, [rng.randint(-2, 2), 0], [0, 1], rng.randint(-2, 2)))
            mem = membership(lat, g.mat)
            assert mem.in_stable_so_plus


class TestPlaneIdentities:
    def test_s_action(self, ja2):
        _, _, split = ja2
        s = s_element(split)
        assert s.apply(split.e) == -split.e1
        assert s.apply(split.f) == -split.f1

    def test_s_squared(self, ja2):
        _, _, split = ja2
        s = s_element(split)
        assert s * s == jacobi_embed(split, Mat([[-1, 0], [0, -1]]))
        for v in (split.e, split.f, split.e1, split.f1):
            assert (s * s).apply(v) == -v

    def test_sigma1_transvection_conjugation(self, ja2):
        _, lat, split = ja2
        s1 = reflection(lat, split.e1 - split.f1)
        assert s1 * transvection(lat, split.f, split.e1) * s1 \
            == transvection(lat, split.f, split.f1)

    def test_conjugation_sign_fixed(self, ja2):
        _, _, split = ja2
        check = verify_plane_identities(split, [[1, 0]])[-1]
        assert check.name == "(S s1 S s1) t(e,u) (S s1 S s1)^-1 == t(f,-1*u)"
        assert check.note == "conjugation sign -1"
        assert check.holds

    def test_full_report(self, ja2):
        _, _, split = ja2
        checks = verify_plane_identities(split, [[1, 0], [0, 1], [2, -3]])
        assert all(c.holds for c in checks)

    @pytest.mark.parametrize("spec", ["2U+A2", "2U+<-2>", "2U+2E8(-1)+<-2>"])
    def test_any_splitting(self, spec):
        # standard_splitting of a built lattice splits along (0, 1) and
        # (2, 3), not along jacobi_lattice's outer planes
        lat = build(spec)
        split = standard_splitting(lat)
        assert (split.u_idx, split.u1_idx) == ((0, 1), (2, 3))
        assert jacobi_embed(split, Mat([[1, 1], [0, 1]])) \
            == transvection(lat, split.e, split.f1)
        n0 = len(split.l0_indices)
        vectors = [[int(i == j) for i in range(n0)] for j in range(min(n0, 2))]
        assert all(c.holds for c in verify_plane_identities(split, vectors))


class TestParamodular:
    EXPECTED = Mat([
        [0, 0, 0, 0, -1],
        [0, 0, 0, -1, 0],
        [0, 0, 1, 0, 0],
        [0, -1, 0, 0, 0],
        [-1, 0, 0, 0, 0],
    ])

    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_flip_matrix(self, t):
        lat, split = paramodular_lattice(t)
        prod = reflection(lat, split.e + split.f) * reflection(lat, split.e1 + split.f1)
        assert prod.mat == self.EXPECTED
        assert lat.norm(split.e + split.f) == 2
        assert prod.det() == 1

    def test_mirrors_commute(self):
        lat, split = paramodular_lattice(3)
        a = reflection(lat, split.e + split.f)
        b = reflection(lat, split.e1 + split.f1)
        assert a * b == b * a

    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_check_report(self, t):
        assert all(c.holds for c in paramodular_flip_check(t))

    @pytest.mark.parametrize("t", [0, -1])
    @pytest.mark.parametrize("f", [paramodular_lattice, paramodular_flip_check,
                                   stable_group_generators])
    def test_refuses_level_below_one(self, f, t):
        # t = -1 would build 2U+<2>, which is not in the family 2U+<-2t>
        with pytest.raises(ValueError, match=f"t must be >= 1, got {t}"):
            f(t)

    def test_generator_list(self):
        gens = stable_group_generators(2)
        assert gens["extra"] == "sigma_(e1-f1)"
        assert "t(e,e1)" in gens["jacobi"]
