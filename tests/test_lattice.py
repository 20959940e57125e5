import random
import time

import pytest

from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from orthlat import kernels
from orthlat.eichler import orbit_invariant
from orthlat.errors import (
    OddDiagonalError,
    SpecParseError,
    TooLargeError,
)
from orthlat.kernels import ENUM_STEP_BUDGET
from orthlat.lattice import (
    Lattice,
    build,
    lattice_from_json,
    lattice_to_json,
    plane_defect,
)
from orthlat.linalg import Mat, Vec

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def rank_mod_p(gram: Mat, p: int) -> int:
    """Rank of an integer matrix over F_p by Gauss-Jordan elimination."""
    a = [[x % p for x in row] for row in gram.int_rows()]
    n = len(a)
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(n):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


@st.composite
def even_grams(draw):
    """A nondegenerate even symmetric integer matrix of rank at most 6."""
    n = draw(st.integers(1, 6))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.integers(-6, 6))
    gram = Mat(rows)
    assume(gram.det() != 0)
    return gram


class TestBuilders:
    def test_hyperbolic_plane(self):
        u = build("U")
        assert u.gram.int_rows() == [[0, 1], [1, 0]]
        assert u.labels == ("e", "f")

    def test_rank_one(self):
        assert build("<-6>").gram.int_rows() == [[-6]]

    def test_a2(self):
        assert build("A2").gram.int_rows() == [[2, -1], [-1, 2]]

    def test_e8(self):
        e8 = build("E8")
        assert e8.det() == 1
        assert e8.signature() == (8, 0)
        assert all(int(e8.gram[i, i]) == 2 for i in range(8))

    def test_block_sum(self):
        lat = build("2U+<-2>")
        assert lat.rank == 5
        assert lat.det() == -2
        assert lat.signature() == (2, 3)
        assert lat.labels == ("e", "f", "e1", "f1", "g")

    def test_rescale(self):
        assert build("U(2)").gram.int_rows() == [[0, 2], [2, 0]]
        assert build("A2(-3)").gram.int_rows() == [[-6, 3], [3, -6]]

    def test_rescaled_spec(self):
        lat = build("U(-2)+A2(-2)")
        want = [[-2 * x for x in row] for row in build("U+A2").gram.int_rows()]
        assert lat.gram.int_rows() == want
        # a rescaled U is not unimodular, so it gives no root witness
        assert lat.hyperbolic_planes() == []

    def test_odd_rank_one_rejected(self):
        with pytest.raises(OddDiagonalError):
            build("<3>")

    def test_bad_spec(self):
        # a zero block count or rescaling would drop or zero its block
        for bad in ("", "3Q", "U+", "A3", "0U+<-2>", "2U+0<-2>", "0A2(-3)+U", "00E8", "U(0)"):
            with pytest.raises(SpecParseError):
                build(bad)

    def test_direct_construction_checks(self):
        with pytest.raises(OddDiagonalError):
            Lattice(Mat([[1]]))
        with pytest.raises(ValueError):
            Lattice(Mat([[0, 1], [2, 0]]))


class TestHyperbolicPlanes:
    def test_built_lattices_give_their_unscaled_u_blocks(self):
        assert build("2U+A2").hyperbolic_planes() == [(0, 1), (2, 3)]
        assert build("A2+U+U(2)+<-2>+U").hyperbolic_planes() == [(2, 3), (7, 8)]
        assert build("A2+U(-1)+2E8(-1)").hyperbolic_planes() == []

    def test_read_from_the_gram_matrix(self):
        # 2U+<-2> in the basis order (e, g, e1, f, f1)
        lat = lattice_from_json({"gram": [[0, 0, 0, 1, 0], [0, -2, 0, 0, 0],
                                          [0, 0, 0, 0, 1], [1, 0, 0, 0, 0],
                                          [0, 0, 1, 0, 0]]})
        assert lat.hyperbolic_planes() == [(0, 3), (2, 4)]
        assert lat.kneser_check(0).minus2_vector == Vec([1, 0, 0, -1, 0])

    def test_plane_defect(self):
        rows = build("U+A2+U(2)").gram.int_rows()
        assert plane_defect(rows, 0, 1) is None
        assert plane_defect(rows, 1, 0) is None
        assert plane_defect(rows, 4, 5) == "indices {} do not span a unimodular plane"
        rows[0][2] = rows[2][0] = 1
        assert plane_defect(rows, 0, 1) == "plane {} is not an orthogonal summand"

    def test_planes_not_spanned_by_basis_vectors_are_not_found(self, skewed):
        assert skewed(build("2U+A2"), "a", "b").hyperbolic_planes() == []


class TestInvariants:
    def test_det_signature_examples(self):
        assert build("U").det() == -1
        assert build("U").signature() == (1, 1)
        e8m = build("E8(-1)")
        assert e8m.det() == 1
        assert e8m.signature() == (0, 8)

    def test_k3_family_det(self):
        for d in (1, 2, 5):
            lat = build(f"2U+2E8(-1)+<-{2 * d}>")
            assert abs(lat.det()) == 2 * d

    def test_det_multiplicative_signature_additive(self):
        a, b = build("U+A2"), build("A2")
        ab = build("U+A2+A2")
        assert ab.det() == a.det() * b.det()
        pa, qa = a.signature()
        pb, qb = b.signature()
        assert ab.signature() == (pa + pb, qa + qb)

    def test_rank_p_known_values(self):
        for t in (1, 2, 5, 7):
            assert build(f"2U+<-{2 * t}>").rank_p(2) == 4
        assert build("2U+A2(-3)").rank_p(3) == 4
        assert build("U(2)+U+E8(-2)").rank_p(2) == 2

    def test_rank_p_bounds(self):
        lat = build("2U+<-6>")
        for p in (2, 3, 5, 7):
            r = lat.rank_p(p)
            assert r <= lat.rank
            assert (r == lat.rank) == (lat.det() % p != 0)

    def test_rank_p_vs_smith_and_conjugation(self):
        rng = random.Random(5)
        lat = build("2U+A2(-3)")
        n = lat.rank
        for p in (2, 3, 5):
            assert lat.rank_p(p) == rank_mod_p(lat.gram, p)
        for _ in range(10):
            q = Mat.identity(n)
            for _ in range(8):
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    continue
                e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
                e[i][j] = rng.randint(-2, 2)
                q = q @ Mat(e)
            conj = Lattice(q.transpose() @ lat.gram @ q)
            for p in (2, 3):
                assert conj.rank_p(p) == lat.rank_p(p)

    @PROPERTY
    @given(even_grams(), st.sampled_from((2, 3, 5)))
    def test_rank_p_is_rank_mod_p(self, gram, p):
        assert Lattice(gram).rank_p(p) == rank_mod_p(gram, p)


class TestDivisor:
    """div(v), the positive generator of (v, L), as orbit_invariant
    reports it."""

    def test_examples(self):
        assert orbit_invariant(build("U"), [1, 0]).divisor == 1
        assert orbit_invariant(build("U(2)"), [1, 0]).divisor == 2
        assert orbit_invariant(build("2U+<-6>"), [0, 0, 0, 0, 1]).divisor == 6

    def test_divisor_divides_det(self):
        lat = build("2U+<-4>")
        for v in lat.enumerate_vectors(-2, 2):
            assert abs(lat.det()) % orbit_invariant(lat, v).divisor == 0


GRAM_APPLY_SPECS = ("2U+A2", "2U+<-10>", "2U+2E8(-1)+<-2>", "U(2)+A2(-3)+<4>")
RATIONALS = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


class TestGramApply:
    """G v over the sparse rows of G against the dense Mat.apply."""

    @PROPERTY
    @given(spec=st.sampled_from(GRAM_APPLY_SPECS), data=st.data())
    def test_matches_dense_product(self, spec, data):
        lat = build(spec)
        v = data.draw(st.lists(RATIONALS, min_size=lat.rank, max_size=lat.rank))
        assert lat.gram_apply(v) == lat.gram.apply(v)

    @pytest.mark.parametrize("n", [4, 6])
    def test_wrong_length(self, n):
        with pytest.raises(ValueError, match="shape mismatch"):
            build("2U+<-2>").gram_apply([1] * n)


class TestEnumeration:
    def test_u_roots(self):
        assert build("U").enumerate_vectors(-2, 1) == [Vec([-1, 1]), Vec([1, -1])]

    def test_u_isotropic(self):
        got = build("U").enumerate_vectors(0, 1)
        assert got == [Vec([-1, 0]), Vec([0, -1]), Vec([0, 0]), Vec([0, 1]), Vec([1, 0])]

    def test_2u_roots_against_nested_loop_oracle(self):
        lat = build("2U")
        got = lat.enumerate_vectors(-2, 1)
        grid = range(-1, 2)
        expected = []
        for x in grid:
            for y in grid:
                for z in grid:
                    for w in grid:
                        if 2 * x * y + 2 * z * w == -2:
                            expected.append(Vec([x, y, z, w]))
        assert got == expected
        assert len(got) == 20

    def test_norm_exactness_and_order(self):
        lat = build("U+A2")
        got = lat.enumerate_vectors(2, 2)
        assert all(lat.norm(v) == 2 for v in got)
        assert list(map(tuple, got)) == sorted(map(tuple, got))

    def test_negative_box_is_empty(self):
        assert build("2U+A2").enumerate_vectors(-2, -1) == []
        # (2 box + 1)^(rank - 1) is a huge positive number here
        assert build("2U+2E8(-1)+<-6>").enumerate_vectors(-2, -5) == []

    def test_box_zero(self):
        lat = build("2U+A2")
        assert lat.enumerate_vectors(0, 0) == [Vec([0] * 6)]
        assert lat.enumerate_vectors(-2, 0) == []

    def test_rank_one_any_box(self):
        # z and y are virtual and held at 0: x is solved once, not searched
        assert build("<-2>").enumerate_vectors(-2, 10 ** 9) == [Vec([-1]), Vec([1])]

    def test_over_budget_raises_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(kernels, "enum_norm_vectors", refuse)
        lat = build("2U+2E8(-1)+<-6>")
        assert 3 ** (lat.rank - 1) > ENUM_STEP_BUDGET
        with pytest.raises(TooLargeError):
            lat.enumerate_vectors(-2, 1)
        with pytest.raises(TooLargeError):
            build("<-2>+<-2>").enumerate_vectors(-2, ENUM_STEP_BUDGET // 2)

    def test_whole_columns_charged(self, monkeypatch):
        """U at norm 0 is within the step budget in box 499999, but its
        column at y = 0 would be 999,999 hits of the last coordinate
        (2 million vectors with the mirror): it raises at once, in tally
        mode too, while a box whose columns fit the budget enumerates."""
        lat = build("U")
        start = time.process_time()
        with pytest.raises(TooLargeError, match="whole columns"):
            lat.enumerate_vectors(0, 499999)
        with pytest.raises(TooLargeError, match="whole columns"):
            lat.half_space_vectors(0, 499999, tally=True)
        assert time.process_time() - start < 1.0
        # 2 box + 1 steps and one column of 2 box + 1 hits, against 100
        monkeypatch.setattr(kernels, "ENUM_STEP_BUDGET", 100)
        assert sum(count for _, count in lat.half_space_vectors(0, 24, tally=True)) == 48
        with pytest.raises(TooLargeError, match="whole columns"):
            lat.half_space_vectors(0, 25, tally=True)

    def test_non_integral_norm_has_no_vectors(self):
        lat = build("2U+A2")
        assert lat.enumerate_vectors(Fraction(5, 2), 1) == []
        assert lat.enumerate_vectors(Fraction(4, 2), 1) == lat.enumerate_vectors(2, 1)
        assert len(lat.enumerate_vectors(2, 1)) == 226

    def test_float_norm_raises(self):
        with pytest.raises(TypeError):
            build("2U+A2").enumerate_vectors(2.7, 1)

    def test_non_integral_box_raises(self):
        lat = build("2U+A2")
        with pytest.raises(ValueError):
            lat.enumerate_vectors(2, Fraction(3, 2))
        with pytest.raises(TypeError):
            lat.enumerate_vectors(2, 1.5)
        assert lat.enumerate_vectors(2, Fraction(2, 2)) == lat.enumerate_vectors(2, 1)


class TestKneser:
    def test_file_lattice_over_budget(self, skewed):
        # no basis plane and no -2 on the diagonal: the root search enumerates
        lat = skewed(build("2U+2E8(-2)+<-6>"), "r1", "r2")
        assert {lat.gram[i, i] for i in range(lat.rank)} == {-4, 0, -6}
        with pytest.raises(TooLargeError):
            lat.kneser_check(2)

    def test_file_lattice_answers_from_its_plane(self):
        spec = build("2U+2E8(-2)+<-6>")
        rep = lattice_from_json(lattice_to_json(spec)).kneser_check(2)
        assert rep.search_box == 0
        assert rep.minus2_vector == spec.kneser_check(2).minus2_vector

    def test_k3_lattices_pass(self):
        for d in (1, 3, 6):
            rep = build(f"2U+2E8(-1)+<-{2 * d}>").kneser_check()
            assert rep.all_pass()
            assert rep.search_box == 0  # witness from the U block

    def test_paramodular_fails_rank2(self):
        rep = build("2U+<-10>").kneser_check()
        assert not rep.rank2_ok
        assert rep.witt_ok and rep.rank3_ok and rep.represents_minus2

    def test_a2_scaled_fails_rank3(self):
        rep = build("2U+A2(-3)").kneser_check()
        assert not rep.rank3_ok
        assert rep.rank2_ok and rep.witt_ok and rep.represents_minus2

    def test_definite_fails_witt(self):
        rep = build("A2+A2").kneser_check()
        assert not rep.witt_ok

    def test_box_search_fallback(self):
        # no U block and no square -2 diagonal entry: only the box search applies
        lat = build("U(2)+<-6>")
        rep = lat.kneser_check(2)
        assert rep.represents_minus2  # e + f + g has square 4 - 6
        assert lat.norm(rep.minus2_vector) == -2
        assert rep.search_box == 2

    def test_box_search_not_found(self):
        # 4 | every value of U(2)+<-4>, so -2 is never represented
        rep = build("U(2)+<-4>").kneser_check(3)
        assert not rep.represents_minus2
        assert rep.search_box == 3


class TestJson:
    def test_round_trip(self):
        lat = build("2U+A2(-1)")
        again = lattice_from_json(lattice_to_json(lat))
        assert again == lat
        assert again.labels == lat.labels

    def test_gram_entries_read_as_scalars(self):
        lat = lattice_from_json({"gram": [["0", "4/4"], ["2/2", "-6/3"]]})
        assert lat.gram.int_rows() == [[0, 1], [1, -2]]

    @pytest.mark.parametrize("rows", [[[]], [[1, 2]]])
    def test_non_square_gram_refused(self, rows):
        with pytest.raises(ValueError, match="Gram matrix must be square"):
            lattice_from_json({"gram": rows})
