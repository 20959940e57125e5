import random
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orthlat import discform
from orthlat.discform import (
    class_of,
    discriminant_form,
    enumerate_orth_d,
    identity_automorphism,
    induced_map,
    is_stable,
)
from orthlat.errors import (
    NotIntegralError,
    NotIsometryError,
    NotPrimitiveError,
    TooLargeError,
)
from orthlat.eichler import standard_splitting
from orthlat.isometry import reflection
from orthlat.lattice import Lattice, build
from orthlat.linalg import Mat
from orthlat.sampling import integral_transvection_atom, mixed_word


def minus_identity(n):
    return Mat([[-1 if i == j else 0 for j in range(n)] for i in range(n)])


class TestForm:
    def test_unimodular_trivial(self):
        form = discriminant_form(build("U"))
        assert form.orders == ()
        assert len(form) == 1

    def test_cyclic_value(self):
        for d in (1, 2, 3, 5):
            form = discriminant_form(build(f"<-{2 * d}>"))
            assert form.orders == (2 * d,)
            q = form.q(form.element([1]))
            # q(gen) = -1/(2d) up to 2Z, stored in [0, 2)
            assert (q + Fraction(1, 2 * d)) % 2 == 0

    def test_u2(self):
        lat = build("U(2)")
        form = discriminant_form(lat)
        assert form.orders == (2, 2)
        x, y = form.element([1, 0]), form.element([0, 1])
        assert oracle_forms(lat)[1](x.coords, y.coords) == Fraction(1, 2)
        assert form.q(x) == 0 and form.q(y) == 0
        assert form.q(form.element([1, 1])) == 1

    def test_order_is_determinant(self):
        for spec in ("2U+<-6>", "U(2)", "A2(-3)", "2U+A2"):
            lat = build(spec)
            assert len(discriminant_form(lat)) == abs(lat.det())

    def test_q_is_quadratic(self):
        lat = build("A2(-3)+<-4>")
        form = discriminant_form(lat)
        ob = oracle_forms(lat)[1]
        rng = random.Random(0)
        els = form.elements()
        for _ in range(60):
            x, y = rng.choice(els), rng.choice(els)
            n = rng.randint(-3, 3)
            xy = form.element(map(add, x.coords, y.coords))
            nx = form.element(n * c for c in x.coords)
            assert (form.q(xy) - form.q(x) - form.q(y) - 2 * ob(x.coords, y.coords)) % 2 == 0
            assert (form.q(nx) - n * n * form.q(x)) % 2 == 0


class TestClassOf:
    def test_zero_class_examples(self):
        lat = build("2U+<-6>")
        zero = discriminant_form(lat).element([0])
        assert class_of(lat, [1, 0, 0, 0, 0]) == zero
        assert class_of(lat, [1, -1, 0, 0, 0]) == zero

    def test_generator_class(self):
        lat = build("2U+<-6>")
        cls = class_of(lat, [0, 0, 0, 0, 1])
        assert cls.order() == 6

    def test_order_equals_divisor(self):
        lat = build("2U+<-4>")
        for v in lat.enumerate_vectors(-2, 2)[::7]:
            assert class_of(lat, v).order() == gcd(*lat.gram_apply(v))

    def test_not_primitive(self):
        with pytest.raises(NotPrimitiveError):
            class_of(build("U"), [2, 0])


class TestInducedMap:
    def test_transvections_stable(self):
        lat = build("2U+<-6>")
        split = standard_splitting(lat)
        rng = random.Random(1)
        for _ in range(25):
            atom = integral_transvection_atom(split, rng)
            assert is_stable(lat, atom.to_isometry(lat).mat)

    def test_minus_id_not_stable(self):
        for d in (2, 3, 5):
            lat = build(f"2U+<-{2 * d}>")
            assert not is_stable(lat, minus_identity(5))

    def test_minus_id_stable_order_two(self):
        assert is_stable(build("2U+<-2>"), minus_identity(5))

    def test_root_reflection_stable(self):
        lat = build("2U+<-6>")
        assert is_stable(lat, reflection(lat, [1, -1, 0, 0, 0]).mat)

    def test_rejects_non_isometry(self):
        lat = build("U")
        with pytest.raises(NotIsometryError):
            induced_map(lat, Mat([[2, 0], [0, 1]]))
        with pytest.raises(NotIntegralError):
            induced_map(lat, Mat([[Fraction(1, 2), 0], [0, 2]]))

    def test_homomorphism(self):
        lat = build("2U+<-6>")
        split = standard_splitting(lat)
        rng = random.Random(2)
        for _ in range(15):
            g = integral_transvection_atom(split, rng).to_isometry(lat)
            h = reflection(lat, rng.choice(lat.enumerate_vectors(-2, 1)))
            lhs = induced_map(lat, (g * h).mat)
            rhs = induced_map(lat, g.mat).compose(induced_map(lat, h.mat))
            assert lhs == rhs

    def test_preserves_q_and_b(self):
        lat = build("2U+A2(-3)")
        form = discriminant_form(lat)
        ob = oracle_forms(lat)[1]
        rng = random.Random(9)
        split = standard_splitting(lat)
        maps = [minus_identity(lat.rank)]
        maps += [integral_transvection_atom(split, rng).to_isometry(lat).mat
                 for _ in range(5)]
        els = form.elements()
        for mat in maps:
            aut = induced_map(lat, mat)
            for _ in range(20):
                x, y = rng.choice(els), rng.choice(els)
                assert form.q(aut.apply(x)) == form.q(x)
                assert ob(aut.apply(x).coords, aut.apply(y).coords) == ob(x.coords, y.coords)


class TestEnumerate:
    def test_trivial(self):
        auts = enumerate_orth_d(discriminant_form(build("U")))
        assert len(auts) == 1
        assert auts[0].is_identity()

    def test_cyclic_counts_match_unit_oracle(self):
        for d in range(1, 13):
            form = discriminant_form(build(f"2U+<-{2 * d}>"))
            auts = enumerate_orth_d(form)
            units = [u for u in range(2 * d) if (u * u - 1) % (4 * d) == 0]
            assert len(auts) == len(units)
            # the automorphisms are exactly x -> u x for those units
            assert sorted(a.images[0].coords[0] for a in auts) == units

    def test_u2_order(self):
        form = discriminant_form(build("U(2)"))
        assert len(enumerate_orth_d(form)) == 2

    def test_group_closure(self):
        form = discriminant_form(build("2U+<-12>"))
        auts = enumerate_orth_d(form)
        keys = {a.key() for a in auts}
        for a in auts:
            for b in auts:
                assert a.compose(b).key() in keys

    def test_cap(self):
        with pytest.raises(TooLargeError):
            enumerate_orth_d(discriminant_form(build("<-100>")), cap=10)

    def test_pairing_budget_raises_before_any_automorphism(self, monkeypatch):
        form = discriminant_form(build("2U+3<-6>"))
        assert len(enumerate_orth_d(form)) == 288
        built = []
        monkeypatch.setattr(discform, "ORTH_D_PAIRING_BUDGET", 1000)
        monkeypatch.setattr(discform, "DiscAutomorphism", lambda *a: built.append(a))
        with pytest.raises(TooLargeError):
            enumerate_orth_d(form)
        assert built == []

    def test_budget_counts_multiply_adds(self, monkeypatch):
        # 2U+3<-6> has k = 3 generators; its search evaluates 4,068
        # pairings, each a 3-term dot product
        form = discriminant_form(build("2U+3<-6>"))
        monkeypatch.setattr(discform, "ORTH_D_PAIRING_BUDGET", 3 * 4068)
        assert len(enumerate_orth_d(form)) == 288
        monkeypatch.setattr(discform, "ORTH_D_PAIRING_BUDGET", 3 * 4068 - 1)
        with pytest.raises(TooLargeError):
            enumerate_orth_d(form)


# ---------------------------------------------------------------------
# property tests against the Fraction implementation the integer table
# replaced: generators from a Gauss-Jordan inverse, q and b summed over
# their Gram matrix and normalized with _mod

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def even_lattices(draw, max_det=None):
    r = draw(st.integers(1, 3))
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        rows[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    gram = Mat(rows)
    det = gram.det()
    assume(det != 0 and (max_det is None or abs(det) <= max_det))
    return Lattice(gram)


def _mod(x, modulus) -> Fraction:
    x = Fraction(x)
    return x - (x / modulus).__floor__() * modulus


def oracle_generators(lat):
    u, s, _ = lat.snf()
    w = (u @ lat.gram).inv().transpose()
    return [w.row(i) for i in range(lat.rank) if int(s[i, i]) != 1]


def oracle_forms(lat):
    """q and b on coordinate tuples, as the Fraction code computed them."""
    gens = oracle_generators(lat)
    gg = [[Fraction(lat.inner(a, b)) for b in gens] for a in gens]

    def q(cs):
        acc = Fraction(0)
        for i, ci in enumerate(cs):
            if ci:
                acc += ci * ci * gg[i][i]
                for j in range(i):
                    acc += 2 * ci * cs[j] * gg[i][j]
        return _mod(acc, 2)

    def b(xs, ys):
        acc = Fraction(0)
        for i, ci in enumerate(xs):
            for j, dj in enumerate(ys):
                acc += ci * dj * gg[i][j]
        return _mod(acc, 1)

    return q, b


def linear_image(form, imgs, c):
    """Coordinates of sum c_i x_i for the image coordinates x_i of the
    generators: the homomorphism g_i -> x_i at the element c."""
    return form.element([sum(ci * x[j] for ci, x in zip(c, imgs))
                         for j in range(len(form.orders))]).coords


def brute_force_orth_d(form, oracle_q):
    """Image tuples of every automorphism of (D, q), in lexicographic
    order: each tuple of elements with the generators' orders and
    q-values whose homomorphism preserves q everywhere and whose images
    generate D."""
    elements = [x.coords for x in form.elements()]
    qs = {c: oracle_q(c) for c in elements}
    choices = [[x.coords for x in form.elements()
                if x.order() == d and qs[x.coords] == qs[g.coords]]
               for g, d in zip(identity_automorphism(form).images, form.orders)]
    out = []
    for imgs in product(*choices):
        phi = {c: linear_image(form, imgs, c) for c in elements}
        generated = len(set(phi.values())) == len(form)
        if generated and all(qs[phi[c]] == qs[c] for c in elements):
            out.append(imgs)
    return out


class TestAgainstFractionOracle:
    @PROPERTY
    @given(st.data())
    def test_q_and_b(self, data):
        lat = data.draw(even_lattices())
        form = discriminant_form(lat)
        oq, ob = oracle_forms(lat)
        coords = st.tuples(*(st.integers(0, d - 1) for d in form.orders))
        n = form.exponent
        for _ in range(3):
            x, y = form.element(data.draw(coords)), form.element(data.draw(coords))
            assert form.q(x) == oq(x.coords) and 0 <= form.q(x) < 2
            assert type(form.q(x)) is Fraction
            # N b(x, y) off the table row T c, as the O(D) search reads it
            nb = sum(map(mul, form._row(x.coords), y.coords)) % n
            assert Fraction(nb, n) == ob(x.coords, y.coords)

    @PROPERTY
    @given(even_lattices())
    def test_generators(self, lat):
        assert list(discriminant_form(lat).generators) == oracle_generators(lat)

    @PROPERTY
    @given(even_lattices(max_det=64))
    @example(build("U(2)+<-4>"))
    @example(build("A2(-2)+<-2>"))
    def test_orth_d_is_brute_force(self, lat):
        form = discriminant_form(lat)
        got = [a.key() for a in enumerate_orth_d(form)]
        assert got == brute_force_orth_d(form, oracle_forms(lat)[0])

    @PROPERTY
    @given(even_lattices(max_det=64))
    @example(build("U"))
    @example(build("U(2)+<-4>"))
    def test_apply_and_compose_are_linear_combinations(self, lat):
        form = discriminant_form(lat)
        auts = enumerate_orth_d(form)
        auts = auts[::max(1, len(auts) // 4)]
        for a in auts:
            for x in form.elements():
                assert a.apply(x).coords == linear_image(form, a.key(), x.coords)
            for b in auts:
                assert a.compose(b).key() == tuple(linear_image(form, a.key(), y)
                                                   for y in b.key())


# ---------------------------------------------------------------------
# is_stable, read off the induced map, against (g - 1) L* in L

def stable_oracle(lat, mat):
    """Whether g acts trivially on D(L), as (g - 1) g_i in L for the
    generators g_i of D, that is (g - 1) L* in L."""
    lat.check_isometry(mat, integral=True)
    return all((mat.apply(g) - g).is_integral() for g in discriminant_form(lat).generators)


STABLE_SPLITS = {spec: standard_splitting(build(spec))
                 for spec in ("2U+<-6>", "2U+<-10>", "2U+A2(-3)+<-6>")}


def twisted_word(split, seed, length, twist, roots=None):
    """A seeded mixed word times the identity, -1, or the reflection in
    the last basis vector, the generator of <-2d>."""
    lat = split.lattice
    mat = mixed_word(split, random.Random(seed), length, roots).evaluate().mat
    if twist == "minus":
        mat = mat @ minus_identity(lat.rank)
    elif twist == "reflection":
        mat = mat @ reflection(lat, lat.basis_vector(lat.rank - 1)).mat
    return lat, mat


class TestStableAgainstInducedMap:
    @PROPERTY
    @given(st.sampled_from(sorted(STABLE_SPLITS)), st.integers(0, 2**32 - 1),
           st.integers(0, 5), st.sampled_from(("none", "minus", "reflection")))
    def test_matches_identity_on_d(self, spec, seed, length, twist):
        lat, mat = twisted_word(STABLE_SPLITS[spec], seed, length, twist)
        assert is_stable(lat, mat) == stable_oracle(lat, mat)

    def test_both_answers_occur(self):
        for split in STABLE_SPLITS.values():
            answers = {is_stable(*twisted_word(split, seed, 3, twist))
                       for seed in range(3) for twist in ("none", "minus", "reflection")}
            assert answers == {True, False}

    def test_rank_21(self):
        """2U+2E8(-1)+<-6>, whose box 1 is too large to give mixed_word
        its roots: the E8(-1) basis vectors are passed instead.  Seed 3
        draws two root reflections and two transvections."""
        split = standard_splitting(build("2U+2E8(-1)+<-6>"))
        roots = [split.lattice.basis_vector(i) for i in range(4, 20)]
        lat, stable = twisted_word(split, 3, 4, "none", roots)
        _, moved = twisted_word(split, 3, 4, "reflection", roots)
        assert is_stable(lat, stable) and stable_oracle(lat, stable)
        assert not is_stable(lat, moved) and not stable_oracle(lat, moved)
