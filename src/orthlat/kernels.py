"""The two integer kernels: exact matrix products and fixed-norm box
enumeration.

Both work on flat row-major lists of Python ints, so every sum is exact
at any size.  ``Mat.__matmul__`` and ``Lattice.enumerate_vectors`` call
them by module attribute.  The root census asks the enumerator for a
tally instead: a count and a first hit per residue v mod 2, for the
class of a root in D(L) depends only on that residue.  A root's divisor
d divides (v, v) = -2, so d == 2 exactly when G v == 0 mod 2, d == 1
gives the zero class, and v == v' mod 2 gives v/2 == v'/2 in L*/L.

Enumeration never visits the whole box, and scans in two levels over
half of it: v and -v have the same norm, so only the vectors whose
first nonzero coordinate is negative are scanned, and the caller
mirrors them.  An odometer walks the first n - 2 coordinates up to the
zero prefix and carries the prefix's G v and norm, updated in O(n) per
step.  Coordinate n - 2 is scanned with scalars only: for each of its
values the norm is a quadratic in the last coordinate x.  Its
discriminant is computed once per prefix and then stepped by two
additions per value, a value whose discriminant is negative or not a
perfect square (``math.isqrt``) is dropped before any tuple is built,
and x is solved exactly from the square root in place.  The work is
about half of (2 box + 1)^(n - 2) odometer steps and of
(2 box + 1)^(n - 1) scalar steps, not (2 box + 1)^n norms of O(n^2)
each.
"""

from math import isqrt

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


def _last_coordinates(a, b, c, box):
    """The x in [-box, box] with a x^2 + 2 b x + c == 0, ascending."""
    if a == 0:
        if b == 0:
            return range(-box, box + 1) if c == 0 else ()
        x, r = divmod(-c, 2 * b)
        return (x,) if r == 0 and -box <= x <= box else ()
    disc = b * b - a * c
    if disc < 0 or (r := isqrt(disc)) * r != disc:
        return ()
    ends = (-b - r, -b + r) if a > 0 else (-b + r, -b - r)
    return [x for x, m in (divmod(t, a) for t in ends[:1 + (r > 0)])
            if m == 0 and -box <= x <= box]


def enum_norm_vectors(gram, n, target, box, *, tally=False):
    """The integer coordinate vectors v in [-box, box]^n with
    v^T G v == target whose first nonzero coordinate is negative.

    ``gram`` is the flat row-major n*n symmetric Gram matrix.  Output is
    a list of tuples in ascending lexicographic order.  These are
    exactly the hits below the zero vector, and negation maps them onto
    the hits above it, so the whole box's hits are these, then the zero
    vector when target == 0, then these negated in reverse order.

    With ``tally`` the output is [first hit, count] per residue v mod 2
    hit, ascending by first hit, and no other hit becomes a tuple: the
    odometer carries the prefix's parities as a bitmask.

    The first n - 2 coordinates run through the box as an odometer (the
    last of them fastest) carrying g = G v and the norm p of the prefix;
    it stops at the zero prefix, as every later prefix has a positive
    first nonzero entry.  Coordinate n - 2 is then scanned with scalars
    only (over y <= 0 behind the zero prefix, keeping x < 0 at y = 0):
    with it at y the full norm is a x^2 + 2 b x + c + target, where
    a = G[n-1][n-1], b = g[n-1] + y G[n-2][n-1] and c = p - target +
    y (2 g[n-2] + y G[n-2][n-2]), so the last coordinate x solves
    a x^2 + 2 b x + c == 0.  For a != 0 the discriminant b^2 - a c is
    computed once per prefix, at y = -box, and then stepped: with
    alpha = G[n-2][n-1]^2 - a G[n-2][n-2] (fixed by G) and
    beta = g[n-1] G[n-2][n-1] - a g[n-2] (fixed by the prefix),
    disc(y + 1) - disc(y) = alpha (2 y + 1) + 2 beta, a step that itself
    grows by 2 alpha.  So each y costs two additions and a sign test
    before the perfect-square test, y is dropped unless the discriminant
    is a perfect square, before any tuple is built or any call made, and
    on a square r^2 each x = (-b -+ r) / a in the box is kept in place.
    For a == 0 the equation is linear in x and solved per y.
    """
    if n == 0 or box < 0:
        return []
    if n == 1:
        out = [(x,) for x in _last_coordinates(gram[0], 0, -target, box) if x < 0]
        # one hit, or every x < 0 (a == target == 0): parities alternate
        return [[v, len(out[i::2])] for i, v in enumerate(out[:2])] if tally else out
    m, last = n - 2, n - 1
    a = gram[last * n + last]
    s = gram[m * n + last]
    e = gram[m * n + m]
    cols = [gram[k::n] for k in range(n)]          # column k == row k
    diag = [gram[k * n + k] for k in range(m)]
    span = 2 * box
    wraps = [[-span * x for x in col] for col in cols[:m]]
    ys = range(-box, box + 1)
    # the roots (-b -+ r) / a, ascending, are (w - r) / |a|, (w + r) / |a|
    # with w = -b sgn(a)
    alpha, sgn, mag = s * s - a * e, (a > 0) - (a < 0), abs(a)
    twice_alpha = 2 * alpha
    v = [-box] * m
    g = [-box * sum(gram[i * n:i * n + m]) for i in range(n)]
    p = -box * sum(g[:m])
    below = ((span + 1) ** m - 1) // 2     # prefixes before the zero prefix
    mask = 0                               # bit k: (v[k] + box) mod 2
    out, tallies = [], {}
    while True:
        if not below:
            ys = range(-box, 1)
        gm, gl, c0 = g[m], g[last], p - target
        if a:
            # b^2 - a c at y = -box, and the step to y = 1 - box
            b = gl - box * s
            disc = b * b - a * (c0 - box * (2 * gm - box * e))
            step = alpha * (1 - span) + 2 * (gl * s - a * gm)
            for y in ys:
                if disc >= 0 and (r := isqrt(disc)) * r == disc:
                    w = -sgn * (gl + y * s)
                    top = box if below or y else -1
                    for t in (w - r, w + r) if r else (w,):
                        x, q = divmod(t, mag)
                        if q or x < -box or x > top:
                            continue
                        if tally:
                            k = mask | (y & 1) << m | (x & 1) << last
                            hit = tallies.get(k)
                            if hit is None:
                                tallies[k] = [(*v, y, x), 1]
                            else:
                                hit[1] += 1
                        else:
                            out.append((*v, y, x))
                disc += step
                step += twice_alpha
        else:
            for y in ys:
                xs = _last_coordinates(0, gl + y * s, c0 + y * (2 * gm + y * e), box)
                if xs:
                    if not (below or y):
                        xs = [x for x in xs if x < 0]
                    if tally:
                        ry = mask | (y & 1) << m
                        for x in xs:
                            k = ry | (x & 1) << last
                            hit = tallies.get(k)
                            if hit is None:
                                tallies[k] = [(*v, y, x), 1]
                            else:
                                hit[1] += 1
                    else:
                        prefix = (*v, y)
                        out.extend((*prefix, x) for x in xs)
        if not below:
            return list(tallies.values()) if tally else out
        below -= 1
        # advance: a coordinate at +box wraps to -box (same parity) and
        # carries left; moving v[k] by t adds 2 t g[k] + t^2 G[k][k]
        k = m - 1
        while v[k] == box:
            p += -2 * span * g[k] + span * span * diag[k]
            g = [x + y for x, y in zip(g, wraps[k])]
            v[k] = -box
            k -= 1
        p += 2 * g[k] + diag[k]
        g = [x + y for x, y in zip(g, cols[k])]
        v[k] += 1
        mask ^= 1 << k
