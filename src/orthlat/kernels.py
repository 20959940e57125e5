"""The two integer kernels: exact matrix products and fixed-norm box
enumeration.

Both work on flat row-major lists of Python ints, so every sum is exact
at any size.  ``Mat.__matmul__`` and ``Lattice.enumerate_vectors`` call
them by module attribute.
"""

from itertools import product

BACKEND = "python"


def imat_mul(a, b, n, k, m):
    """Multiply an n*k by a k*m integer matrix, both flat row-major lists."""
    out = [0] * (n * m)
    for i in range(n):
        ik = i * k
        im = i * m
        for j in range(m):
            acc = 0
            for l in range(k):
                acc += a[ik + l] * b[l * m + j]
            out[im + j] = acc
    return out


def enum_norm_vectors(gram, n, target, box):
    """All integer coordinate vectors in [-box, box]^n with v^T G v == target.

    ``gram`` is the flat row-major n*n Gram matrix.  Output is a list of
    tuples in ascending lexicographic order.
    """
    out = []
    rng = range(-box, box + 1)
    for coords in product(rng, repeat=n):
        s = 0
        for i in range(n):
            ci = coords[i]
            if ci:
                base = i * n
                acc = 0
                for j in range(n):
                    acc += gram[base + j] * coords[j]
                s += ci * acc
        if s == target:
            out.append(coords)
    return out
