import random
from itertools import product

from orthlat import kernels


def naive_matmul(a, b, n, k, m):
    return [
        sum(a[i * k + l] * b[l * m + j] for l in range(k))
        for i in range(n) for j in range(m)
    ]


def product_loop(gram, n, target, box):
    return [
        v for v in product(range(-box, box + 1), repeat=n)
        if sum(v[i] * gram[i * n + j] * v[j] for i in range(n) for j in range(n)) == target
    ]


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
        assert len(got) == 20
        assert all(2 * (x * y + z * w) == -2 for x, y, z, w in got)

    def test_2u_isotropic_against_product_loop(self):
        got = kernels.enum_norm_vectors(self.GRAM_2U, 4, 0, 2)
        assert got == product_loop(self.GRAM_2U, 4, 0, 2)

    def test_big_gram_exact(self):
        big = 1 << 61
        gram = [2 * big, 0, 0, -2 * big]
        got = kernels.enum_norm_vectors(gram, 2, 0, 2)
        assert got == product_loop(gram, 2, 0, 2)
        # the isotropic vectors of big*(x^2 - y^2)
        assert (1, 1) in got and (1, -1) in got and (0, 0) in got

    def test_exhaustive_against_product_loop(self):
        gram = [2, -1, -1, 2]
        assert kernels.enum_norm_vectors(gram, 2, 2, 3) == product_loop(gram, 2, 2, 3)


def test_backend_reported():
    assert kernels.BACKEND == "python"
