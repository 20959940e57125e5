"""Spinor norms against a determinant oracle that needs no reflection
decomposition.

Zassenhaus ("On the spinor norm", Arch. Math. 1962): on im(1 - g) the
form ((1 - g) x, (1 - g) y) -> (x, (1 - g) y) is nondegenerate, and its
discriminant is the spinor norm up to the sign convention.  With r the
rank of 1 - g and J a set of r columns of 1 - g that span its image,
the Gram matrix of that form on the basis (1 - g) e_j, j in J, is
(G (1 - g))[J, J].  This repository's spinor norm of a reflection s_v is
-(v, v)/2, which carries one factor -1 per dimension of im(1 - g), so

    theta(g) == (-1)^r det((G (1 - g))[J, J])  in Q* / (Q*)^2,

and det g == (-1)^r for every isometry.
"""

import random
import time
from fractions import Fraction
from functools import cache
from math import isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from orthlat.eichler import standard_splitting
from orthlat.errors import TooLargeError
from orthlat.isometry import (
    Isometry,
    cartan_dieudonne,
    membership,
    reflection,
    spinor_norm_q,
    squarefree_class,
)
from orthlat import isometry
from orthlat.lattice import build
from orthlat.linalg import Mat
from orthlat.sampling import mixed_word

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

SPECS = ("2U+A2", "2U+<-2>", "2U+<-6>", "2U+<-10>", "2U+A2(-3)+<-6>",
         "2U+<-2>+<-6>", "2U+<-4>", "2U+<-30>")


def pivot_columns(rows) -> list[int]:
    """Indices of a maximal set of independent columns, by Gaussian
    elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, m = len(a), len(a[0]) if a else 0
    pivots, r = [], 0
    for j in range(m):
        p = next((i for i in range(r, n) if a[i][j]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, n):
            f = a[i][j] / a[r][j]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(j)
        r += 1
    return pivots


def zassenhaus(g: Isometry) -> tuple[Fraction, int]:
    """(theta, r): the spinor norm as (-1)^r det((G (1 - g))[J, J]),
    r = rank(1 - g)."""
    n = g.lattice.rank
    one_minus = Mat([[int(i == j) - g.mat[i, j] for j in range(n)] for i in range(n)])
    rows = [[one_minus[i, j] for j in range(n)] for i in range(n)]
    cols = pivot_columns(rows)
    gm = g.lattice.gram @ one_minus
    sub = Mat([[gm[i, j] for j in cols] for i in cols]) if cols else None
    det = Fraction(sub.det()) if cols else Fraction(1)
    r = len(cols)
    return (-1) ** r * det, r


def same_class(a: int, x: Fraction) -> bool:
    """Whether a and x agree in Q* / (Q*)^2."""
    p = Fraction(a) * x
    num, den = p.numerator, p.denominator
    return p > 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


@cache
def mirrors(spec: str):
    """Reflections in anisotropic vectors of a small box: twelve that are
    integral and twelve that are not."""
    lat = build(spec)
    integral, rational = [], []
    rng = random.Random(spec)
    while len(integral) < 12 or len(rational) < 12:
        v = [rng.randint(-2, 2) for _ in range(lat.rank)]
        if lat.norm(v) == 0:
            continue
        s = reflection(lat, v)
        (integral if s.is_integral() else rational).append(s)
    return lat, integral[:12], rational[:12]


@st.composite
def spinor_cases(draw):
    """A mixed word times integral reflections, or times rational
    reflections."""
    spec = draw(st.sampled_from(SPECS))
    lat, integral, rational = mirrors(spec)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    g = mixed_word(standard_splitting(lat), rng, draw(st.integers(0, 10))).evaluate()
    is_integral = draw(st.booleans())
    pool = integral if is_integral else rational
    for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=0 if is_integral else 1,
                           max_size=3)):
        g = g * pool[i]
    return g


class TestZassenhausOracle:
    @PROPERTY
    @given(spinor_cases())
    def test_spinor_norm_matches_determinant(self, g):
        theta, r = zassenhaus(g)
        assert g.det() == (-1) ** r
        assert same_class(spinor_norm_q(g), theta)

    @PROPERTY
    @given(spinor_cases())
    def test_integral_path_matches_trial_division(self, g):
        lat = g.lattice
        old = squarefree_class(prod(-Fraction(lat.norm(m)) / 2 for m in cartan_dieudonne(g)))
        assert spinor_norm_q(g) == old

    def test_oracle_on_single_reflections(self):
        lat = build("2U+<-6>")
        for v, theta in (([1, -1, 0, 0, 0], 1), ([1, 1, 0, 0, 0], -1), ([0, 0, 0, 0, 1], 3)):
            s = reflection(lat, v)
            got, r = zassenhaus(s)
            assert r == 1 and same_class(theta, got) and spinor_norm_q(s) == theta


class TestLongWords:
    """Long integral words: the spinor norm must not factor the product
    of the mirror norms, whose entries grow with the word length."""

    @pytest.mark.parametrize("length", [80, 160])
    def test_mixed_word_under_a_second(self, length):
        lat = build("2U+A2")
        split = standard_splitting(lat)
        g = mixed_word(split, random.Random(length), length).evaluate()
        start = time.perf_counter()
        sn = spinor_norm_q(g)
        mem = membership(lat, g.mat)
        assert time.perf_counter() - start < 1.0
        # words of root reflections and integral transvections
        assert sn == 1
        assert mem.in_o and mem.in_o_plus and mem.in_stable
        assert same_class(sn, zassenhaus(g)[0])


class TestTrialDivisionBudget:
    def test_rational_over_budget_is_too_large(self, monkeypatch):
        s = next(r for r in mirrors("2U+<-2>")[2] if abs(spinor_norm_q(r)) > 3)
        monkeypatch.setattr(isometry, "TRIAL_DIVISOR_BUDGET", 0)
        with pytest.raises(TooLargeError):
            spinor_norm_q(s)

    def test_integral_path_never_factors_the_determinant(self):
        # 2 det(L) = 4p with p prime: trial division would need about
        # 1.6 * 10^6 divisors to reach p, over the budget
        p = 10 ** 13 + 37
        lat = build(f"2U+<-{2 * p}>")
        g = reflection(lat, [1, -1, 0, 0, 0]) * reflection(lat, [0, 0, 1, 1, 0])
        assert spinor_norm_q(Isometry.identity(lat)) == 1
        assert spinor_norm_q(g) == -1
        # the mirror of norm -2p puts p into the spinor norm: that part
        # is factored, and refused within the budget
        with pytest.raises(TooLargeError):
            spinor_norm_q(g * reflection(lat, [0, 0, 0, 0, 1]))
