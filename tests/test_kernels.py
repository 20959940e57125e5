import random
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orthlat import kernels
from orthlat.errors import TooLargeError
from orthlat.lattice import Lattice
from orthlat.linalg import Mat, Vec

# enumeration cases are cheap, and ranks 1..6 with six isotropy patterns
# need this many draws to cover each
PROPERTY = settings(max_examples=250, deadline=None, derandomize=True, database=None)


def naive_matmul(a, b, n, k, m):
    return [
        sum(a[i * k + l] * b[l * m + j] for l in range(k))
        for i in range(n) for j in range(m)
    ]


def product_loop(gram, n, target, box):
    """A negative box is empty, even at n = 0."""
    return [
        v for v in product(range(-box, box + 1), repeat=n)
        if box >= 0
        and sum(v[i] * gram[i * n + j] * v[j] for i in range(n) for j in range(n)) == target
    ]


def half_space(vectors):
    """The vectors whose first nonzero coordinate is negative, that is,
    those below the zero vector."""
    return [v for v in vectors if v < (0,) * len(v)]


def mirrored(half, n, target):
    """The whole box's hits rebuilt from the half-space ones (box >= 0):
    the half, the zero vector when target == 0, the half negated in
    reverse."""
    return half + [(0,) * n] * (target == 0) + [tuple(-x for x in v) for v in reversed(half)]


def whole_columns(gram, n, target, box):
    """The cells w of the first n - 1 coordinates in the box, at or
    below zero, at which every last coordinate x hits: the norm is a
    quadratic in x, so it is target at all x once it is at three."""
    return sum(
        1 for w in product(range(-box, box + 1), repeat=n - 1)
        if w <= (0,) * (n - 1) and all(
            sum(v[i] * gram[i * n + j] * v[j] for i in range(n) for j in range(n)) == target
            for v in (w + (x,) for x in (-1, 0, 1))))


def parity_groups(hits):
    """[first hit, count] per residue mod 2 of the hits, in the order
    the residues first occur."""
    groups = {}
    for v in hits:
        groups.setdefault(tuple(x % 2 for x in v), [v, 0])[1] += 1
    return list(groups.values())


def check_half_space(gram, n, target, box):
    """The kernel's hits are the half-space part of the product loop,
    they mirror onto all of it, and the tally groups them by parity."""
    full = product_loop(gram, n, target, box)
    got = kernels.enum_norm_vectors(gram, n, target, box)
    assert got == half_space(full)
    if box >= 0:
        assert mirrored(got, n, target) == full
    assert kernels.enum_norm_vectors(gram, n, target, box, tally=True) == parity_groups(got)
    return got


class TestMatMul:
    def test_small(self):
        a = [1, 2, 3, 4]
        b = [5, 6, 7, 8]
        assert kernels.imat_mul(a, b, 2, 2, 2) == [19, 22, 43, 50]

    def test_big_integers_exact(self):
        a = [10 ** 40, -3, 5, 7]
        b = [2, 10 ** 30, -1, 4]
        assert kernels.imat_mul(a, b, 2, 2, 2) == naive_matmul(a, b, 2, 2, 2)

    def test_random_parity(self):
        rng = random.Random(0)
        for _ in range(40):
            n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            a = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(n * k)]
            b = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(k * m)]
            assert kernels.imat_mul(a, b, n, k, m) == naive_matmul(a, b, n, k, m)


class TestEnum:
    GRAM_2U = [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0]

    def test_lex_order_and_values(self):
        got = kernels.enum_norm_vectors(self.GRAM_2U, 4, -2, 1)
        assert got == sorted(got)
        assert len(got) == 10
        assert all(2 * (x * y + z * w) == -2 for x, y, z, w in got)
        assert got == half_space(got)

    def test_2u_isotropic_against_product_loop(self):
        check_half_space(self.GRAM_2U, 4, 0, 2)

    def test_big_gram_exact(self):
        big = 1 << 61
        gram = [2 * big, 0, 0, -2 * big]
        got = check_half_space(gram, 2, 0, 2)
        # the isotropic vectors of big*(x^2 - y^2) below zero
        assert (-1, -1) in got and (-1, 1) in got and (0, 0) not in got

    def test_exhaustive_against_product_loop(self):
        check_half_space([2, -1, -1, 2], 2, 2, 3)


def connected(gram, n):
    """Whether the nonzero pattern of the flat Gram matrix links every
    basis vector, i.e. the matrix is not block-diagonal."""
    reached, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if gram[i * n + j] and j not in reached:
                reached.add(j)
                todo.append(j)
    return len(reached) == n


def isotropic_patterns(n):
    """The sets of scanned coordinates made isotropic, last three only."""
    return [(), (n - 1,), (n - 2,), (n - 3,), (n - 2, n - 1), (n - 3, n - 1)]


@st.composite
def enum_cases(draw, max_rank=6):
    """(gram, n, target, box) with a random symmetric Gram matrix that
    is not block-diagonal; the last basis vector, the second-to-last,
    the third-to-last (both scanned in scalars) or some of them together
    are isotropic in some of the cases."""
    n = draw(st.integers(1, max_rank))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    for k in draw(st.sampled_from(isotropic_patterns(n))):
        if k >= 0:
            rows[k][k] = 0
    gram = [x for row in rows for x in row]
    assume(connected(gram, n))
    box = draw(st.integers(0, {5: 2, 6: 1}.get(n, 3)))
    return gram, n, draw(st.integers(-6, 6)), box


@st.composite
def lattice_cases(draw):
    """(gram, n, target, box) with an even nondegenerate Gram matrix of
    rank 1 to 5 (a lattice is never empty), the last basis vector, the
    second-to-last, the third-to-last or some of them together isotropic
    in some of the cases, and an even target."""
    n = draw(st.integers(1, 5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 * draw(st.integers(-2, 2))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    for k in draw(st.sampled_from(isotropic_patterns(n))):
        if k >= 0:
            rows[k][k] = 0
    assume(Mat(rows).det() != 0)
    box = draw(st.integers(-1, {4: 2, 5: 1}.get(n, 3)))
    return [x for row in rows for x in row], n, 2 * draw(st.integers(-3, 3)), box


# One case per branch of the stepped discriminant: the scan takes
# b^2 - a c at y = -box and steps it by alpha (2 y + 1) + 2 beta, with
# alpha = G[n-2][n-1]^2 - a G[n-2][n-2], so a wrong first step shows on
# every case with alpha != 0 and hits past the first y.  The last three
# step coordinate z = n - 3, carrying the norm p and g[n-2], g[n-1] of
# the prefix and z; each has hits past its first z, so a z step of any
# of the three that is off by one shows in each.
BIG = 10 ** 24
STEPPED = (
    ([2, -1, 0, -1, 2, -1, 0, -1, 2], 3, 2, 2),   # alpha < 0 (A3)
    ([2, 1, 0, 1, 2, 2, 0, 2, 2], 3, 2, 2),       # alpha = 0, a != 0
    ([2, 1, 0, 1, 2, 3, 0, 3, 2], 3, 2, 2),       # alpha > 0
    ([2, 1, 0, 1, -2, 1, 0, 1, 0], 3, -2, 2),     # a = 0: the linear path
    ([2, 3, 3, 2], 2, 2, 3),                      # the zero prefix only: y in [-box, 0]
    ([2, -1, 0, -1, 2, -1, 0, -1, 2], 3, 0, 0),   # box 0
    ([2 * BIG, 3 * BIG, 3 * BIG, -2 * BIG], 2, -2 * BIG, 3),   # 25-digit entries
    ([2, -1, 1, -1, 2, -1, 1, -1, -2], 3, -2, 2),  # n = 3: z <= 0, the zero prefix
    ([2, 1, 0, 0, 1, 0, 1, -1, 0, 1, 2, -1, 0, -1, -1, 2], 4, 2, 2),  # G[n-3][n-3] = 0
    ([2, 1, 0, 0, 1, 2, 0, 1, 0, 0, 2, -1, 0, 1, -1, 2], 4, 2, 2),   # z meets x, not y
)


def stepped_examples(test):
    for case in STEPPED:
        test = example(case)(test)
    return test


class TestEnumProperties:
    """The scalar scans of coordinates n - 3 and n - 2 and the
    last-coordinate solve against the product loop."""

    @PROPERTY
    @given(enum_cases())
    @example(([2], 1, 2, 3))                      # n = 1, two roots
    @example(([-6], 1, -6, 2))                    # n = 1, negative a and target
    @example(([4], 1, 5, 3))                      # n = 1, no square root
    @example(([0, 1, 1, 0], 2, 0, 2))             # a = 0: b = c = 0 fills the box
    @example(([0, 1, 1, 0], 2, -4, 2))            # a = 0: linear, both signs of b
    @example(([0, 3, 3, 0], 2, 2, 3))             # a = 0: 2 b does not divide c
    @example(([2, -1, -1, 2], 2, 2, 0))           # box 0
    @example(([2, 1, 0, 1, 0, 3, 0, 3, -2], 3, -2, 2))   # a < 0: roots reversed
    @example(([-2, 1, 1, 0], 2, 6, 3))            # a = 0 behind a negative diagonal
    @example(([0, 3, 3, -2], 2, -2, 3))           # n = 2, G[0][0] = 0, a != 0
    @example(([0, 1, 1, 2], 2, 4, 3))             # n = 2, G[0][0] = 0, a > 0
    @example(([2, 0, 0, -2], 2, 0, 3))            # n = 2, G[0][1] = 0: b fixed by the prefix
    @example(([-2, 0, 0, 0], 2, -8, 2))           # n = 2, G[0][1] = 0 and a = 0: whole columns
    @example(([0, 1, 0, 1, 0, 2, 0, 2, 0], 3, 4, 2))     # both scanned coordinates isotropic
    @stepped_examples
    def test_matches_product_loop(self, case):
        check_half_space(*case)

    @PROPERTY
    @given(enum_cases(max_rank=5))
    @example(([0], 1, 0, 3))                      # n = 1, a = 0: every x < 0
    @example(([2], 1, 2, 3))                      # n = 1, x = -1 only
    @example(([-2, 0, 0, 0], 2, -8, 3))           # a = 0, b = c = 0: whole columns
    @example(([0, 1, 1, 0], 2, 0, 3))             # a = 0: all x < 0 at y = 0, x = 0 after
    @example(([2, 1, 0, 0, 1,  1, -2, 1, 0, 0,  0, 1, 0, 1, 0,  0, 0, 1, 2, 0,
               1, 0, 0, 0, 0], 5, -2, 3))         # n = 5, box 3, a = 0
    @stepped_examples
    def test_tally_matches_product_loop_by_parity(self, case):
        """Each residue's count is half its whole-box count, the zero
        vector aside, and its first hit is the whole box's first."""
        gram, n, target, box = case
        rest = parity_groups([v for v in product_loop(gram, n, target, box) if any(v)])
        assert all(count % 2 == 0 for _, count in rest)
        assert kernels.enum_norm_vectors(gram, n, target, box, tally=True) == \
            [[v, count // 2] for v, count in rest]

    @PROPERTY
    @given(enum_cases(max_rank=4))
    @example(([0], 1, 0, 3))                      # n = 1: the x < 0 of one column
    @example(([0, 1, 1, 0], 2, 0, 2))             # n = 2: the column at y = 0
    @example(([-2, 0, 0, 0], 2, -8, 2))           # n = 2: the column at y = -2
    @example(([2, 1, 0, 1, -2, 0, 0, 0, 0], 3, -2, 2))   # n = 3: three columns
    @example(([2, 1, 0, 0, 1, 0, 1, 0, 0, 1, -2, 1, 0, 0, 1, 0], 4, -2, 2))   # n = 4: one
    def test_whole_columns_charged(self, case):
        """Each whole column costs 2 box + 1 of what the box's
        (2 box + 1)^(n - 1) steps leave of the budget, in tally mode
        too: a budget of exactly the steps and the columns' cost changes
        nothing, one less raises."""
        gram, n, target, box = case
        cost = (2 * box + 1) ** (n - 1) + whole_columns(gram, n, target, box) * (2 * box + 1)
        for tally in (False, True):
            unbounded = kernels.enum_norm_vectors(gram, n, target, box, tally=tally)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernels, "ENUM_STEP_BUDGET", cost)
                assert kernels.enum_norm_vectors(gram, n, target, box, tally=tally) == unbounded
                patch.setattr(kernels, "ENUM_STEP_BUDGET", cost - 1)
                if cost > (2 * box + 1) ** (n - 1):
                    with pytest.raises(TooLargeError, match="whole columns"):
                        kernels.enum_norm_vectors(gram, n, target, box, tally=tally)
                else:
                    assert kernels.enum_norm_vectors(gram, n, target, box, tally=tally) \
                        == unbounded

    def test_rank_zero_and_negative_box(self):
        assert kernels.enum_norm_vectors([], 0, 0, 2) == []
        assert mirrored([], 0, 0) == product_loop([], 0, 0, 2) == [()]
        assert kernels.enum_norm_vectors([], 0, 1, 2) == []
        gram = [2, -1, -1, 2]
        assert kernels.enum_norm_vectors(gram, 2, 2, -1) == product_loop(gram, 2, 2, -1) == []

    @PROPERTY
    @given(lattice_cases())
    @example(([2], 1, 0, 3))                      # n = 1: the zero vector alone
    @example(([-4], 1, 0, 0))
    @example(([0, 1, 1, 0], 2, 0, 2))             # n = 2: zero among isotropic vectors
    @example(([2, -1, -1, 2], 2, 0, 3))
    @example(([0, 1, 1, 0], 2, 0, 0))
    @example(([0, 1, 1, 0], 2, -2, -1))           # negative box: nothing, not zero
    @example(([2], 1, 0, -1))
    def test_lattice_matches_product_loop(self, case):
        """enumerate_vectors, the half-space scan plus its mirror, against
        the product loop on even nondegenerate Gram matrices."""
        gram, n, target, box = case
        lat = Lattice(Mat([gram[i * n:(i + 1) * n] for i in range(n)]))
        got = lat.enumerate_vectors(target, box)
        assert got == [Vec(v) for v in product_loop(gram, n, target, box)]
        assert got.count(Vec.zero(n)) == (target == 0 and box >= 0)


def test_backend_reported():
    assert kernels.BACKEND == "python"
