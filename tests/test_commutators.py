import random
from fractions import Fraction

import pytest

from orthlat.commutators import (
    certificate_p4,
    certificate_transvection,
    default_norm_six_vector,
    heisenberg_commutator,
    p_map,
    p_reflection_word,
    triple_product,
    verify_master_identity,
)
from orthlat.eichler import standard_splitting
from orthlat.errors import (
    SingularScaleError,
    WrongNormError,
    ZeroScaleError,
)
from orthlat.isometry import Isometry, spinor_norm_q, transvection
from orthlat.lattice import build
from orthlat.linalg import Vec
from orthlat.sampling import l0_vector, l1_vector, rational


@pytest.fixture(scope="module")
def sp():
    return standard_splitting(build("2U+A2"))


class TestPMap:
    def test_identity(self, sp):
        assert p_map(sp, 1) == Isometry.identity(sp.lattice)

    def test_inverse_scale(self, sp):
        assert p_map(sp, 4) * p_map(sp, Fraction(1, 4)) == Isometry.identity(sp.lattice)
        assert p_map(sp, Fraction(1, 4)) * p_map(sp, 4) == Isometry.identity(sp.lattice)

    def test_action(self, sp):
        p = p_map(sp, 4)
        assert p.apply(sp.e) == Fraction(1, 4) * sp.e
        assert p.apply(sp.f) == 4 * sp.f
        assert p.apply(sp.e1) == sp.e1
        assert p.det() == 1

    def test_zero_scale(self, sp):
        with pytest.raises(ZeroScaleError):
            p_map(sp, 0)

    def test_reflection_word(self, sp):
        # the mirror e - s f applies second under the column convention
        for s in (4, Fraction(1, 4), Fraction(-3, 2)):
            word = p_reflection_word(sp, s)
            assert word.evaluate() == p_map(sp, s)


class TestMasterIdentity:
    def test_zero_scale_degenerates(self, sp):
        w = sp.e1 + sp.f1
        assert verify_master_identity(sp, w, 0)

    def test_norm_six_recovers_four(self, sp):
        w = default_norm_six_vector(sp)
        assert sp.lattice.norm(w) == 6
        # c = 1 - 6/2 = -2 and the correction factor is P(4)
        assert verify_master_identity(sp, w, 1)

    def test_singular(self, sp):
        w = default_norm_six_vector(sp)
        with pytest.raises(SingularScaleError):
            verify_master_identity(sp, w, Fraction(1, 3))

    def test_random(self, sp):
        rng = random.Random(60)
        ran = 0
        while ran < 50:
            w = l1_vector(sp, rng)
            s = rational(rng, 3)
            if 1 - s * Fraction(sp.lattice.norm(w)) / 2 == 0:
                continue
            assert verify_master_identity(sp, w, s)
            ran += 1


class TestP4:
    def test_default_vector(self, sp):
        cert = certificate_p4(sp)
        assert cert.verify()
        assert cert.target == p_map(sp, 4)
        assert len(cert.word()) == 4
        assert cert.to_json()["scope"] == "rational"

    def test_explicit_vector(self, sp):
        v6 = Vec([0, 0, 1, 1, 1, 1])  # e1 + f1 + a + b: norm 2 + 2 = 4? check below
        if sp.lattice.norm(v6) == 6:
            assert certificate_p4(sp, v6).verify()
        else:
            with pytest.raises(WrongNormError):
                certificate_p4(sp, v6)

    def test_wrong_norm_guard(self, sp):
        with pytest.raises(WrongNormError):
            certificate_p4(sp, 2 * default_norm_six_vector(sp))

    def test_target_flags(self, sp):
        cert = certificate_p4(sp)
        assert cert.target.det() == 1
        assert spinor_norm_q(cert.target) == 1


class TestTransvectionCertificate:
    def test_zero(self, sp):
        cert = certificate_transvection(sp, Vec.zero(6))
        assert cert.verify()
        assert cert.target == Isometry.identity(sp.lattice)

    def test_basis_vector(self, sp):
        cert = certificate_transvection(sp, sp.e1)
        assert cert.verify()
        assert cert.groups_are_commutators()
        assert cert.target == transvection(sp.lattice, sp.e, sp.e1)

    def test_random(self, sp):
        rng = random.Random(61)
        for _ in range(20):
            u = l1_vector(sp, rng)
            cert = certificate_transvection(sp, u)
            assert cert.verify()
            assert cert.groups_are_commutators()
            assert cert.target.det() == 1
            assert spinor_norm_q(cert.target) == 1

    def test_composition(self, sp):
        u1, u2 = sp.e1, sp.f1 + 2 * sp.e1
        c1 = certificate_transvection(sp, u1)
        c2 = certificate_transvection(sp, u2)
        assert c1.target * c2.target == transvection(sp.lattice, sp.e, u1 + u2)


class TestPlaneCommutators:
    def test_zero_vector(self, sp):
        cert = heisenberg_commutator(sp, 1, Vec.zero(6))
        assert cert.verify()
        assert cert.target == Isometry.identity(sp.lattice)

    def test_basis_vector(self, sp):
        u = sp.lattice.basis_vector(sp.l0_indices[0])
        assert heisenberg_commutator(sp, 1, u).verify()

    def test_odd_norm_scalar_variant(self, sp):
        # vectors of odd inner square exercise the same identity
        u = Fraction(1, 2) * sp.lattice.basis_vector(sp.l0_indices[0])
        assert heisenberg_commutator(sp, 2, u).verify()

    def test_random(self, sp):
        rng = random.Random(62)
        for _ in range(20):
            u = l0_vector(sp, rng)
            s = rational(rng, 3)
            cert = heisenberg_commutator(sp, s, u)
            assert cert.verify() and cert.groups_are_commutators()

    def test_rejects_vectors_meeting_the_planes(self, sp):
        from orthlat.errors import NotOrthogonalError

        with pytest.raises(NotOrthogonalError):
            heisenberg_commutator(sp, 1, sp.f1)
        with pytest.raises(NotOrthogonalError):
            triple_product(sp, 1, sp.e1, Vec.zero(6))

    def test_triple_product_a2_example(self, sp):
        # u, v the two A2 basis vectors: (u, v) = -1, s = -1 gives t(e, e1)
        u = sp.lattice.basis_vector(sp.l0_indices[0])
        v = sp.lattice.basis_vector(sp.l0_indices[1])
        assert sp.lattice.inner(u, v) == -1
        cert = triple_product(sp, -1, u, v)
        assert cert.verify()
        assert cert.target == transvection(sp.lattice, sp.e, sp.e1)
        assert len(cert.pairs) == 3
        assert cert.groups_are_commutators()

    def test_triple_product_random(self, sp):
        rng = random.Random(63)
        for _ in range(20):
            u, v = l0_vector(sp, rng), l0_vector(sp, rng)
            s = rational(rng, 3)
            cert = triple_product(sp, s, u, v)
            assert cert.verify()
            assert cert.target.det() == 1
            assert spinor_norm_q(cert.target) == 1

    def test_json(self, sp):
        # "verified" is the witness commands' record of the check made in
        # _certified; a record built around it, never checked, has no such key
        cert = heisenberg_commutator(sp, 1, sp.lattice.basis_vector(4))
        data = cert.to_json()
        assert "verified" not in data
        assert len(data["commutators"]) == 1
        unchecked = cert._replace(target=p_map(sp, 4))
        assert not unchecked.verify()
        assert "verified" not in unchecked.to_json()
