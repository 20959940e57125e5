"""The two integer kernels: exact matrix products and fixed-norm box
enumeration.

Both work on flat row-major lists of Python ints, so every sum is exact
at any size.  ``Mat.__matmul__`` and ``Lattice.enumerate_vectors`` call
them by module attribute.  The root census asks the enumerator for a
tally instead: a count and a first hit per residue v mod 2, for the
class of a root in D(L) depends only on that residue.  A root's divisor
d divides (v, v) = -2, so d == 2 exactly when G v == 0 mod 2, d == 1
gives the zero class, and v == v' mod 2 gives v/2 == v'/2 in L*/L.

Enumeration never visits the whole box, and scans in three levels over
half of it: v and -v have the same norm, so only the vectors whose
first nonzero coordinate is negative are scanned, and the caller
mirrors them.  An odometer walks the first n - 3 coordinates up to the
zero prefix and carries the prefix's G v and norm, updated in O(n) per
step.  Coordinate n - 3 is a scalar loop that carries the norm and the
last two entries of G v by additions, four per value.  Coordinate
n - 2 is scanned with scalars too: for each of its values the norm is
a quadratic in the last coordinate x.  Its discriminant is computed
once per value of coordinate n - 3 and then stepped by two additions
per value, a value whose discriminant is negative or not a perfect
square (``math.isqrt``) is dropped before any tuple is built, and x is
solved exactly from the square root in place; when the last basis
vector is isotropic the equation is linear, and its coefficients are
stepped the same way.  Below rank 3 the scan is the same, over 3 - n
virtual leading coordinates held at 0 and stripped from the hits.  The
work is about half of (2 box + 1)^(n - 3) odometer steps, of
(2 box + 1)^(n - 2) steps of coordinate n - 3 and of (2 box + 1)^(n - 1)
steps of coordinate n - 2, not (2 box + 1)^n norms of O(n^2) each.
Only a whole column, where every x hits, costs per hit, and it is
charged against what the steps leave of ``ENUM_STEP_BUDGET``.
"""

from math import isqrt

from orthlat.errors import TooLargeError

BACKEND = "python"

# Most scalar steps (values of coordinate rank - 2, one per value of
# coordinate rank - 3 and prefix of the odometer) a scan of the whole
# box would take, although only half of it is scanned: near the budget,
# enumerate_vectors takes 0.06 to 0.24 s of CPU (CPython 3.11 on a
# 2-core x86-64 host; 2U+A2 box 7, 2U+<-2> and 2U+<-10> box 15,
# 2U+A2+<-2> box 4, U+<-2> box 499, at norms -2 and 0), depending on
# the number of hits, and this is 17 times the (2*4 + 1)^5 steps of a
# 2U+A2 census in box 4.  Lattice.half_space_vectors refuses a box over
# it before any work; what the steps leave of it bounds the whole
# columns of hits, 2 box + 1 each, that the scan may emit.
ENUM_STEP_BUDGET = 10 ** 6


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
    scan keys each hit by its parities as a bitmask.

    A whole column, the 2 box + 1 values of an isotropic last
    coordinate that all hit (a == b == c == 0 below), is charged 2 box + 1
    against ENUM_STEP_BUDGET less the (2 box + 1)^(n - 1) steps of the
    box, in tally mode too, and TooLargeError is raised once the charges
    pass it.  When a == target == 0 the zero prefix's own column is
    whole, and a box it alone overruns is refused before the scan.

    Below rank 3 the Gram matrix is padded with 3 - n leading virtual
    coordinates whose rows and columns are zero: z (and y at rank 1) is
    held at 0, every step coefficient it feeds is 0, and the padding is
    stripped from the hits at the end.  The first n - 3 coordinates run
    through the box as an odometer (the last of them fastest) carrying
    g = G v and the norm p of the prefix; it stops at the zero prefix,
    as every later prefix has a positive first nonzero entry.
    Coordinate n - 3 (z) is a scalar loop over z <= 0 behind the zero
    prefix: from z to z + 1 the norm grows by
    2 g[n-3] + (2 z + 1) G[n-3][n-3] (a step that itself grows by
    2 G[n-3][n-3]), and g[n-2], g[n-1] grow by G[n-3][n-2],
    G[n-3][n-1], so a z step is four additions.  Coordinate n - 2 (y)
    is then scanned with scalars too (over y <= 0 behind the zero prefix
    and z = 0, keeping x < 0 at y = 0): with it at y the full norm is
    a x^2 + 2 b x + c + target, where a = G[n-1][n-1],
    b = g[n-1] + y G[n-2][n-1] and c = p - target +
    y (2 g[n-2] + y G[n-2][n-2]), so the last coordinate x solves
    a x^2 + 2 b x + c == 0.  For a != 0 the discriminant b^2 - a c is
    computed once per z, at y = -box, and then stepped: with
    alpha = G[n-2][n-1]^2 - a G[n-2][n-2] (fixed by G) and
    beta = g[n-1] G[n-2][n-1] - a g[n-2] (fixed by the prefix and z),
    disc(y + 1) - disc(y) = alpha (2 y + 1) + 2 beta, a step that itself
    grows by 2 alpha.  So each y costs two additions and a sign test
    before the perfect-square test, y is dropped unless the discriminant
    is a perfect square, before any tuple is built or any call made, and
    on a square r^2 the candidates are x = (-b -+ r) / a.  For a == 0
    the equation is linear in x: b steps by G[n-2][n-1] and c by
    2 g[n-2] + (2 y + 1) G[n-2][n-2], and the candidate is
    x = -c / (2 b).  Either way a candidate is kept when it is an
    integer in the box.
    """
    if n == 0 or box < 0:
        return []
    budget = ENUM_STEP_BUDGET - (2 * box + 1) ** (n - 1)
    out, tallies = [], {}
    pad = max(3 - n, 0)                   # virtual coordinates below rank 3
    if pad:
        gram = [0] * 3 * pad + [x for i in range(0, n * n, n)
                                for x in [0] * pad + gram[i:i + n]]
        n = 3
    m, yi, last = n - 3, n - 2, n - 1     # odometer length; z is coordinate m
    a = gram[last * n + last]
    s = gram[yi * n + last]
    e = gram[yi * n + yi]
    zz, zy, zx = gram[m * n + m], gram[m * n + yi], gram[m * n + last]
    cols = [gram[k::n] for k in range(m)]          # column k == row k
    diag = [gram[k * n + k] for k in range(m)]
    span = 2 * box
    wraps = [[-span * x for x in col] for col in cols]
    full = range(-box, box + 1)
    zs = range(-box, 1) if pad < 1 else (0,)
    ys = range(-box, 1) if pad < 2 else (0,)
    overrun = (f"box {box} at norm {target}: whole columns of {span + 1} "
               f"vectors overrun the enumeration budget")
    if not a and not target and budget <= span:
        raise TooLargeError(overrun)     # the zero prefix's column, scanned last
    # the roots (-b -+ r) / a, ascending, are (w - r) / |a|, (w + r) / |a|
    # with w = -b sgn(a)
    alpha, sgn, mag = s * s - a * e, (a > 0) - (a < 0), abs(a)
    twice_alpha, twice_s, twice_e, twice_zz = 2 * alpha, 2 * s, 2 * e, 2 * zz
    v = [-box] * m
    g = [-box * sum(gram[i * n:i * n + m]) for i in range(n)]
    p = -box * sum(g[:m])
    below = ((span + 1) ** m - 1) // 2     # prefixes before the zero prefix
    mask = 0                               # bit k: (v[k] + box) mod 2
    while True:
        # the norm of prefix + z and its entries g[n-2], g[n-1] at z = -box,
        # and the norm's first step
        gz = g[m]
        pz = p - box * (2 * gz - box * zz)
        dp = 2 * gz + (1 - span) * zz
        gy = g[yi] - box * zy
        gx = g[last] - box * zx
        for z in full if below else zs:
            head = below or z              # falsy at the zero prefix and z = 0
            c = pz - target - box * (2 * gy - box * e)     # at y = -box
            b = gx - box * s
            if a:
                # b^2 - a c at y = -box, and the step to y = 1 - box
                disc = b * b - a * c
                step = alpha * (1 - span) + 2 * (gx * s - a * gy)
            else:
                # 2 b at y = -box, and the first step of c
                tb = 2 * b
                dc = 2 * gy + (1 - span) * e
            for y in full if head else ys:
                # the numerators ts of the candidate x over one divisor dv
                if a:
                    if disc < 0 or (r := isqrt(disc)) * r != disc:
                        disc += step
                        step += twice_alpha
                        continue
                    disc += step
                    step += twice_alpha
                    w = -sgn * (gx + y * s)
                    ts, dv = (w - r, w + r) if r else (w,), mag
                else:
                    cy, dv = c, tb
                    tb += twice_s
                    c += dc
                    dc += twice_e
                    if dv:
                        if cy % dv or not -box <= -cy // dv <= box:
                            continue
                        ts = (-cy,)
                    elif cy:
                        continue
                    else:
                        budget -= span + 1
                        if budget < 0:
                            raise TooLargeError(overrun)
                        ts, dv = full, 1
                top = box if head or y else -1
                for t in ts:
                    x, q = divmod(t, dv)
                    if q or x < -box or x > top:
                        continue
                    if tally:
                        k = mask | (z & 1) << m | (y & 1) << yi | (x & 1) << last
                        hit = tallies.get(k)
                        if hit is None:
                            tallies[k] = [(*v, z, y, x), 1]
                        else:
                            hit[1] += 1
                    else:
                        out.append((*v, z, y, x))
            pz += dp
            dp += twice_zz
            gy += zy
            gx += zx
        if not below:
            if tally:
                return [[hit[pad:], count] for hit, count in tallies.values()]
            return [hit[pad:] for hit in out] if pad else out
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
