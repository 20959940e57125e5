import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from orthlat import linalg
from orthlat.errors import DegenerateFormError, InternalSolveFailureError
from orthlat.lattice import build
from orthlat.linalg import (
    Mat,
    Vec,
    congruence_diagonalize,
    parse_scalar,
    signature_of,
    smith_normal_form,
)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

ints = st.integers(-(1 << 70), 1 << 70) | st.integers(-9, 9)
fractions = st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 6, 9, 35)))
scalars = ints | fractions
nonzero = scalars.filter(bool)


def entries(n):
    return st.lists(scalars, min_size=n, max_size=n)


def oracle(xs) -> tuple:
    """The reference vector: a plain tuple of Fractions."""
    return tuple(Fraction(x) for x in xs)


def is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def random_int_matrix(rng, n, m, bound=9):
    return Mat([[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)])


def gauss_jordan_inverse(m: Mat) -> Mat:
    """The reference inverse: Gauss-Jordan elimination over Fractions,
    with the errors of Mat.inv."""
    if m.n != m.m:
        raise ValueError("inverse of a non-square matrix")
    n = m.n
    a = [[Fraction(m[i, j]) for j in range(n)] for i in range(n)]
    b = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[k], a[piv] = a[piv], a[k]
        b[k], b[piv] = b[piv], b[k]
        p = a[k][k]
        a[k] = [x / p for x in a[k]]
        b[k] = [x / p for x in b[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                b[i] = [x - f * y for x, y in zip(b[i], b[k])]
    return Mat(b)


def random_symmetric(rng, n, bound=5):
    while True:
        a = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        g = Mat([[a[i][j] + a[j][i] for j in range(n)] for i in range(n)])
        if g.det() != 0:
            return g


class TestVecMat:
    def test_vec_arithmetic(self):
        v = Vec([1, 2]) + Vec([3, 4])
        assert v == Vec([4, 6])
        assert -Vec([1, -2]) == Vec([-1, 2])
        assert 2 * Vec([1, 2]) == Vec([2, 4])
        assert Vec([2, 4]) / 2 == Vec([1, 2])
        assert Vec([Fraction(1, 2)]).is_integral() is False

    def test_mat_normalization(self):
        m = Mat([[Fraction(1, 2), 0], [0, Fraction(3, 2)]])
        assert m[0, 0] == Fraction(1, 2)
        assert not m.is_integral()
        assert Mat([[2 * m[i, j] for j in range(2)] for i in range(2)]).is_integral()

    def test_matmul_and_inverse(self):
        a = Mat([[1, 2], [3, 4]])
        assert a @ a.inv() == Mat.identity(2)
        assert a.det() == -2
        assert a.apply(Vec([1, 1])) == Vec([3, 7])
        assert a.transpose() == Mat([[1, 3], [2, 4]])

    def test_singular_inverse(self):
        with pytest.raises(ValueError):
            Mat([[1, 1], [1, 1]]).inv()

    def test_det_fractions(self):
        m = Mat([[Fraction(1, 2), 0], [0, 4]])
        assert m.det() == 2


class TestParseScalar:
    def test_canonical(self):
        assert parse_scalar("4/2") == 2 and type(parse_scalar("4/2")) is int
        assert parse_scalar("-3/6") == Fraction(-1, 2)
        assert parse_scalar("7") == 7

    @pytest.mark.parametrize("text", ["1/0", "-5/0", "0/0", "x", "1/2/3", "1.5"])
    def test_malformed_raises_value_error(self, text):
        with pytest.raises(ValueError):
            parse_scalar(text)


class TestSmith:
    def test_diag_2_3(self):
        m = Mat([[2, 0], [0, 3]])
        u, s, v = smith_normal_form(m)
        assert s == Mat([[1, 0], [0, 6]])
        assert u @ m @ v == s
        assert abs(u.det()) == 1 and abs(v.det()) == 1

    def test_identity(self):
        m = Mat.identity(3)
        _, s, _ = smith_normal_form(m)
        assert s == m

    def test_swap(self):
        m = Mat([[0, 1], [1, 0]])
        u, s, v = smith_normal_form(m)
        assert s == Mat.identity(2)
        assert u @ m @ v == s

    def test_random_properties(self):
        rng = random.Random(20240901)
        for _ in range(120):
            n, m = rng.randint(1, 12), rng.randint(1, 12)
            a = random_int_matrix(rng, n, m)
            u, s, v = smith_normal_form(a)
            assert u @ a @ v == s
            assert abs(u.det()) == 1 and abs(v.det()) == 1
            diag = [int(s[i, i]) for i in range(min(n, m))]
            assert all(d >= 0 for d in diag)
            for i in range(n):
                for j in range(m):
                    if i != j:
                        assert s[i, j] == 0
            for a_, b_ in zip(diag, diag[1:]):
                if a_ == 0:
                    assert b_ == 0
                else:
                    assert b_ % a_ == 0

    def test_invariant_factors(self):
        _, s, _ = smith_normal_form(Mat([[2, 0], [0, 3]]))
        assert [int(s[i, i]) for i in range(2)] == [1, 6]


def solve_linear(a: Mat, b) -> Vec | None:
    """An integer solution x of A x = b read off the Smith form, or None
    when none exists (also when some entry of b is not an integer, since
    A x is integral); checked against A x == b before it is returned.
    The oracle of the transport witness's one-row Euclid,
    eichler._solve_row."""
    if not a.is_integral():
        raise ValueError("solve_linear needs an integer matrix")
    b = Vec(b)
    if len(b) != a.n:
        raise ValueError("shape mismatch")
    if not b.is_integral():
        return None
    u, s, v = linalg.smith_normal_form(a)
    y = [0] * a.m
    for i, ci in enumerate(u.apply(b)):
        d = s[i, i] if i < min(a.n, a.m) else 0
        if d == 0:
            if ci != 0:
                return None
        else:
            if ci % d:
                return None
            y[i] = ci // d
    x = v.apply(Vec(y))
    if a.apply(x) != b:
        raise InternalSolveFailureError("solution does not satisfy A x == b")
    return x


class TestSolve:
    """The oracle solve_linear: exact, checked, and None exactly when the
    Smith form shows an obstruction."""

    def test_gcd_row(self):
        x = solve_linear(Mat([[2, 3]]), [1])
        assert x is not None
        assert 2 * x[0] + 3 * x[1] == 1

    def test_parity_obstruction(self):
        assert solve_linear(Mat([[2]]), [1]) is None

    def test_identity(self):
        assert solve_linear(Mat.identity(3), [4, -5, 6]) == Vec([4, -5, 6])

    def test_non_integral_rhs_has_no_solution(self):
        # A x is integral for integral x, so b = (5/2, 3) has none; the
        # old int() coercion read it as (2, 3) and answered x = (1, 1)
        assert solve_linear(Mat([[2, 0], [0, 3]]), [Fraction(5, 2), 3]) is None
        assert solve_linear(Mat([[1]]), [Fraction(1, 3)]) is None
        assert solve_linear(Mat([[2, 0], [0, 3]]), [Fraction(4, 2), 3]) == Vec([1, 1])

    @pytest.mark.parametrize("b", [[2.7], [2.0], ["2"]])
    def test_non_scalar_rhs_raises(self, b):
        with pytest.raises(TypeError):
            solve_linear(Mat([[1]]), b)

    def test_solution_is_checked(self, monkeypatch):
        # a wrong V from the Smith form must not give a silent wrong answer
        honest = linalg.smith_normal_form

        def wrong_v(m):
            u, s, v = honest(m)
            return u, s, Mat([[v[i, j] + int(i == j) for j in range(v.m)] for i in range(v.n)])

        monkeypatch.setattr(linalg, "smith_normal_form", wrong_v)
        with pytest.raises(InternalSolveFailureError):
            solve_linear(Mat([[2, 3]]), [1])

    def test_random(self):
        rng = random.Random(7)
        solved = failed = 0
        for _ in range(200):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            a = random_int_matrix(rng, n, m, 6)
            b = [rng.randint(-6, 6) for _ in range(n)]
            x = solve_linear(a, b)
            if x is None:
                # recheck the obstruction: the diagonal fails to divide Ub
                u, s, _ = smith_normal_form(a)
                c = u.apply(b)
                blocked = False
                for i in range(n):
                    d = int(s[i, i]) if i < min(n, m) else 0
                    if (d == 0 and c[i] != 0) or (d != 0 and int(c[i]) % d):
                        blocked = True
                assert blocked
                failed += 1
            else:
                assert list(a.apply(x)) == b
                solved += 1
        assert solved and failed


def reference_congruence_diagonalize(g: Mat) -> tuple[Mat, Mat]:
    """The elimination on lists of Fractions that congruence_diagonalize
    ran before it held P as Vec columns: the same pivot rules, with every
    column operation mirrored on the rows of A = P^T G P."""
    if not g.is_symmetric():
        raise ValueError("congruence diagonalization needs a symmetric matrix")
    n = g.n
    a = [[Fraction(g[i, j]) for j in range(n)] for i in range(n)]
    p = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def col_add(dst, src, f):
        # col_dst += f * col_src, same on rows of a to keep symmetry
        for i in range(n):
            a[i][dst] += f * a[i][src]
        for j in range(n):
            a[dst][j] += f * a[src][j]
        for i in range(n):
            p[i][dst] += f * p[i][src]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        a[i], a[j] = a[j], a[i]
        for r in p:
            r[i], r[j] = r[j], r[i]

    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i]), None)
            if piv is not None:
                col_swap(k, piv)
            else:
                hyp = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                           None)
                if hyp is None:
                    raise DegenerateFormError("form is degenerate")
                col_add(hyp[0], hyp[1], Fraction(1))
                if hyp[0] != k:
                    col_swap(k, hyp[0])
        piv = a[k][k]
        for j in range(k + 1, n):
            if a[k][j]:
                col_add(j, k, -a[k][j] / piv)
    return Mat(p), Mat(a)


def p_and_d(g: Mat) -> tuple[Mat, Mat]:
    """congruence_diagonalize's columns p_k and norms d_k as the matrix P
    with those columns and D = diag(d_k)."""
    cols, diag = congruence_diagonalize(g)
    n = len(diag)
    return (Mat(cols).transpose(),
            Mat([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]))


def diagonalize_outcome(f, g):
    """P and D, or the type and message of the error raised."""
    try:
        return f(g)
    except (ValueError, DegenerateFormError) as exc:
        return type(exc), str(exc)


class TestCongruence:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 7), data=st.data())
    def test_matches_reference(self, n, data):
        """P and D, or the error, are exactly those of the Fraction-list
        elimination.  Half the draws are B D B^T of rank at most r (as in
        test_raises_exactly_on_singular), and half get a zero diagonal."""
        small = st.integers(-2, 2)
        if n and data.draw(st.booleans()):
            r = data.draw(st.integers(1, n))
            b = data.draw(st.lists(st.lists(small, min_size=r, max_size=r),
                                   min_size=n, max_size=n))
            d = data.draw(st.lists(small.filter(bool), min_size=r, max_size=r))
            rows = [[sum(b[i][k] * d[k] * b[j][k] for k in range(r)) for j in range(n)]
                    for i in range(n)]
        else:
            upper = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                       min_size=n, max_size=n))
            rows = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if data.draw(st.booleans()):  # no diagonal pivot: the hyperbolic step
            for i in range(n):
                rows[i][i] = 0
        g = Mat(rows)
        assert (diagonalize_outcome(p_and_d, g)
                == diagonalize_outcome(reference_congruence_diagonalize, g))

    def test_non_symmetric_matches_reference(self):
        g = Mat([[1, 2], [3, 4]])
        got = diagonalize_outcome(p_and_d, g)
        assert got == diagonalize_outcome(reference_congruence_diagonalize, g)
        assert got[0] is ValueError

    def test_hyperbolic_plane(self):
        g = Mat([[0, 1], [1, 0]])
        p, d = p_and_d(g)
        assert p.transpose() @ g @ p == d
        assert signature_of(g) == (1, 1)

    def test_rank_one(self):
        cols, diag = congruence_diagonalize(Mat([[2]]))
        assert cols == [Vec([1])] and diag == [2]
        assert type(diag[0]) is Fraction

    def test_block_sum(self):
        g = Mat([
            [0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 0, -2],
        ])
        assert signature_of(g) == (2, 3)

    def test_degenerate(self):
        with pytest.raises(DegenerateFormError):
            congruence_diagonalize(Mat([[1, 1], [1, 1]]))

    def test_random_exactness(self):
        rng = random.Random(99)
        for _ in range(80):
            g = random_symmetric(rng, rng.randint(1, 6))
            p, d = p_and_d(g)
            assert p.transpose() @ g @ p == d
            for i in range(g.n):
                for j in range(g.n):
                    if i != j:
                        assert d[i, j] == 0
                    else:
                        assert d[i, i] != 0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_raises_exactly_on_singular(self, n, data):
        """G = B D B^T with B n x r has rank at most r, so most draws are
        singular, and half of them get a zero diagonal; the elimination
        raises exactly when det G == 0."""
        r = data.draw(st.integers(1, n))
        small = st.integers(-2, 2)
        b = data.draw(st.lists(st.lists(small, min_size=r, max_size=r), min_size=n, max_size=n))
        d = data.draw(st.lists(small.filter(bool), min_size=r, max_size=r))
        rows = [[sum(b[i][k] * d[k] * b[j][k] for k in range(r)) for j in range(n)]
                for i in range(n)]
        if data.draw(st.booleans()):  # no diagonal pivot: the hyperbolic step
            for i in range(n):
                rows[i][i] = 0
        g = Mat(rows)
        if g.det() == 0:
            with pytest.raises(DegenerateFormError, match="form is degenerate"):
                congruence_diagonalize(g)
        else:
            p, dm = p_and_d(g)
            assert p.transpose() @ g @ p == dm
            assert all((dm[i, j] != 0) == (i == j) for i in range(n) for j in range(n))

    def test_signature_invariance(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 5)
            g = random_symmetric(rng, n)
            q = Mat.identity(n)
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    continue
                e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
                e[i][j] = rng.randint(-2, 2)
                q = q @ Mat(e)
            assert signature_of(g) == signature_of(q.transpose() @ g @ q)


class TestVecProperties:
    """Vec against a tuple of Fractions: every entry read back is the
    canonical scalar, and the arithmetic is exact."""

    @PROPERTY
    @given(xs=st.integers(0, 6).flatmap(entries))
    def test_construction(self, xs):
        v = Vec(xs)
        assert len(v) == len(xs)
        assert tuple(v) == oracle(xs)
        assert all(is_canonical(x) for x in v)
        assert [v[i] for i in range(len(v))] == list(v)
        assert Vec(v) is v
        assert Vec([Fraction(x) for x in xs]) == v
        assert hash(Vec([Fraction(x) for x in xs])) == hash(v)
        assert v.is_integral() == all(x.denominator == 1 for x in oracle(xs))
        assert v.is_zero() == (not any(xs))
        assert eval(repr(v), {"Vec": Vec, "Fraction": Fraction}) == v

    @PROPERTY
    @given(data=st.data(), n=st.integers(0, 6))
    def test_arithmetic(self, data, n):
        a, b = data.draw(entries(n)), data.draw(entries(n))
        c, k = data.draw(scalars), data.draw(nonzero)
        u, w = Vec(a), Vec(b)
        results = {
            u + w: tuple(x + y for x, y in zip(oracle(a), oracle(b))),
            u - w: tuple(x - y for x, y in zip(oracle(a), oracle(b))),
            -u: tuple(-x for x in oracle(a)),
            c * u: tuple(Fraction(c) * x for x in oracle(a)),
            u * c: tuple(Fraction(c) * x for x in oracle(a)),
            u / k: tuple(x / Fraction(k) for x in oracle(a)),
        }
        for got, want in results.items():
            assert tuple(got) == want
            assert all(is_canonical(x) for x in got)
            assert got == Vec(want)
        assert u.dot(w) == sum(x * y for x, y in zip(oracle(a), oracle(b)))
        assert is_canonical(u.dot(w))

    @PROPERTY
    @given(data=st.data(), n=st.integers(0, 4))
    def test_eq_hash_and_order(self, data, n):
        a, b = data.draw(entries(n)), data.draw(entries(n))
        u, w = Vec(a), Vec(b)
        assert (u == w) == (oracle(a) == oracle(b))
        if u == w:
            assert hash(u) == hash(w)
        # vectors have no order: sorting them raises instead of picking one
        with pytest.raises(TypeError):
            u < w

    @PROPERTY
    @given(n=st.integers(1, 5), m=st.integers(1, 5), data=st.data())
    def test_mat_rows_and_cols(self, n, m, data):
        rows = [data.draw(entries(m)) for _ in range(n)]
        mat = Mat(rows)
        assert Mat([Vec(r) for r in rows]) == mat
        for i in range(n):
            assert list(mat.row(i)) == [mat[i, j] for j in range(m)] == list(oracle(rows[i]))
        for j in range(m):
            assert list(mat.transpose().row(j)) == [mat[i, j] for i in range(n)]
        assert all(is_canonical(mat[i, j]) for i in range(n) for j in range(m))

    def test_examples(self):
        assert Vec([Fraction(2, 2)]) == Vec([1])
        assert type(Vec([Fraction(2, 2)])[0]) is int
        assert Vec([Fraction(1, 2), Fraction(3, 2)]) * 2 == Vec([1, 3])
        assert (Vec([Fraction(1, 2), Fraction(3, 2)]) * 2).is_integral()
        assert Vec([0, 0]) == Vec([0, 0]) / 7
        assert Vec([1, 2]) != (1, 2)

    @pytest.mark.parametrize("bad", [True, 1.0, 0.5])
    def test_bool_and_float_raise(self, bad):
        with pytest.raises(TypeError):
            Vec([1, bad])
        with pytest.raises(TypeError):
            Vec([1, 2]) * bad
        with pytest.raises(TypeError):
            Vec([1, 2]) / bad

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Vec([1, 2]) + Vec([1, 2, 3])
        with pytest.raises(ValueError):
            Vec([1, 2]).dot([1])
        with pytest.raises(ZeroDivisionError):
            Vec([1, 2]) / 0


class TestSmithProperties:
    """U M V == S with U and V unimodular and S a non-negative diagonal
    divisibility chain."""

    @PROPERTY
    @given(n=st.integers(1, 6), m=st.integers(1, 6), data=st.data())
    def test_snf(self, n, m, data):
        cells = st.integers(-12, 12) | st.integers(-(1 << 40), 1 << 40) | st.just(0)
        a = Mat([data.draw(st.lists(cells, min_size=m, max_size=m)) for _ in range(n)])
        u, s, v = smith_normal_form(a)
        assert u.shape == (n, n) and s.shape == (n, m) and v.shape == (m, m)
        assert u.is_integral() and v.is_integral() and s.is_integral()
        assert abs(u.det()) == 1 and abs(v.det()) == 1
        assert u @ a @ v == s
        assert all(s[i, j] == 0 for i in range(n) for j in range(m) if i != j)
        diag = [s[i, i] for i in range(min(n, m))]
        assert all(d >= 0 for d in diag)
        for d, e in zip(diag, diag[1:]):
            assert e == 0 if d == 0 else e % d == 0


# the lattices of the CLI goldens, and the rank-21 K3 lattice
GOLDEN_SPECS = ["U", "<-2>", "A2", "2U+<-2>", "2U+<-6>", "2U+<-10>", "2U+<-12>", "2U+A2",
                "2U+A2(-3)+<-6>", "2U+<-6>+A2", "2U+2A2(-3)", "2U+<-6>+A2(-3)+<-4>",
                "2U+2E8(-1)+<-2>"]

# rational entries, most of them not integers
rational_cells = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6, 35)))


def inverse_or_error(f, m):
    """The inverse, or the message of the ValueError raised instead."""
    try:
        return f(m)
    except ValueError as exc:
        return str(exc)


class TestInverseOracle:
    """Mat.inv reads the inverse off the Smith form of the numerators;
    the oracle is Gauss-Jordan elimination over Fractions, kept here."""

    @PROPERTY
    @given(n=st.integers(0, 6), data=st.data())
    def test_matches_gauss_jordan(self, n, data):
        m = Mat([data.draw(st.lists(rational_cells, min_size=n, max_size=n)) for _ in range(n)])
        assume(n == 0 or not m.is_integral())
        assert inverse_or_error(Mat.inv, m) == inverse_or_error(gauss_jordan_inverse, m)
        if n and m.det():
            assert m.inv() @ m == Mat.identity(n) == m @ m.inv()

    @PROPERTY
    @given(n=st.integers(1, 6), data=st.data())
    def test_singular_raises(self, n, data):
        rows = [data.draw(st.lists(rational_cells, min_size=n, max_size=n)) for _ in range(n)]
        # the last row is a rational combination of the others
        coeffs = data.draw(st.lists(rational_cells, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(n)]
        m = Mat(rows)
        assert inverse_or_error(Mat.inv, m) == "singular matrix"
        assert inverse_or_error(gauss_jordan_inverse, m) == "singular matrix"

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (2, 3), (3, 0)])
    def test_non_square_raises(self, shape):
        m = Mat([[Fraction(1, 2)] * shape[1] for _ in range(shape[0])])
        assert m.shape == shape
        for f in (Mat.inv, gauss_jordan_inverse):
            with pytest.raises(ValueError, match="inverse of a non-square matrix"):
                f(m)

    @pytest.mark.parametrize("spec", GOLDEN_SPECS)
    def test_gram_inverse(self, spec):
        lat = build(spec)
        inv = lat.gram.inv()
        assert inv @ lat.gram == Mat.identity(lat.rank)
        assert inv == gauss_jordan_inverse(lat.gram)
