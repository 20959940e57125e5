import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from orthlat.discform import class_of, discriminant_form
from orthlat.eichler import (
    HyperbolicSplitting,
    OrbitInvariant,
    _nearest_quotient,
    _PlaneReducer,
    _reduce_into_l1,
    _row_pass_bound,
    _solve_row,
    invariant_pair,
    orbit_invariant,
    rewrite_reflection,
    root_orbit_census,
    standard_splitting,
    transport_witness,
)
from orthlat.errors import (
    EquivalenceFailsError,
    InternalSolveFailureError,
    MissingSplittingError,
    NotPrimitiveError,
    NotRootError,
    TooLargeError,
)
from orthlat import eichler, kernels
from orthlat.isometry import GroupWord, TransvectionAtom, membership, reflection, transvection
from orthlat.jacobi import jacobi_lattice
from orthlat.lattice import Lattice, build
from orthlat.linalg import Mat, Vec
from orthlat.sampling import transvection_word
from orthlat.suite import IDENTITY_LATTICES
from test_linalg import solve_linear


@pytest.fixture(scope="module")
def l5():
    lat = build("2U+<-2>")
    return lat, standard_splitting(lat)


class TestSplitting:
    def test_standard(self, l5):
        lat, split = l5
        assert split.e == Vec([1, 0, 0, 0, 0])
        assert split.f1 == Vec([0, 0, 0, 1, 0])
        assert split.l0_indices == (4,)

    def test_requires_plane(self):
        with pytest.raises(MissingSplittingError):
            standard_splitting(build("A2"))
        with pytest.raises(MissingSplittingError, match="do not span a unimodular plane"):
            HyperbolicSplitting(build("U(2)+U"), (0, 1), (2, 3))
        with pytest.raises(MissingSplittingError, match="do not span a unimodular plane"):
            HyperbolicSplitting(build("U+U(2)"), (0, 1), (2, 3))

    @pytest.mark.parametrize("spec, detail", [
        ("A2", "lattice has no unimodular hyperbolic block"),
        ("U(2)+A2", "lattice has no unimodular hyperbolic block"),
        ("U+A2", "a second hyperbolic plane is required"),
        ("U+U(2)+A2", "a second hyperbolic plane is required"),
    ])
    def test_standard_needs_two_planes(self, spec, detail):
        with pytest.raises(MissingSplittingError) as got:
            standard_splitting(build(spec))
        assert str(got.value) == detail

    def test_rejects_overlapping_planes(self):
        lat = build("2U+<-2>")
        for u1 in ((1, 0), (0, 1), (1, 2)):
            with pytest.raises(MissingSplittingError):
                HyperbolicSplitting(lat, (0, 1), u1)
        assert HyperbolicSplitting(lat, (2, 3), (1, 0)).l0_indices == (4,)


class TestSo22Reduce:
    """The plane reduction as a word in the four plane transvections:
    it maps v to its image in L1, keeps the norm and is integral."""

    @staticmethod
    def reduce(split, v):
        atoms, image = _reduce_into_l1(split, Vec(v))
        return GroupWord(split.lattice, tuple(reversed(atoms))), image

    def test_already_in_u1(self, l5):
        _, split = l5
        word, image = self.reduce(split, [0, 0, 1, 0, 0])
        assert len(word) == 0
        assert image == Vec([0, 0, 1, 0, 0])

    def test_e_goes_isotropic(self, l5):
        lat, split = l5
        v = Vec([1, 0, 0, 0, 0])
        word, image = self.reduce(split, v)
        assert word.apply(v) == image
        assert lat.inner(image, split.e) == lat.inner(image, split.f) == 0
        # support stays inside the second plane
        assert all(image[i] == 0 for i in range(lat.rank)
                   if i not in split.u1_idx)
        assert lat.norm(image) == 0
        assert image.is_integral() and gcd(*image) == 1

    def test_norm_preserved(self, l5):
        lat, split = l5
        v = Vec([1, 0, 0, 1, 0])
        word, image = self.reduce(split, v)
        assert lat.norm(image) == 0
        assert word.apply(v) == image

    def test_random(self, l5):
        lat, split = l5
        rng = random.Random(50)
        for _ in range(100):
            v = Vec([rng.randint(-9, 9) for _ in range(4)] + [0])
            word, image = self.reduce(split, v)
            assert word.apply(v) == image
            assert lat.inner(image, split.e) == lat.inner(image, split.f) == 0
            assert lat.norm(image) == lat.norm(v)
            assert word.is_integral()


class TestNearestQuotient:
    """The q minimizing |a - q b| (ties to the smaller q), against a
    brute-force argmin over every q with |q| <= |a| + 1."""

    @staticmethod
    def brute(a, b):
        return min(range(-abs(a) - 1, abs(a) + 2), key=lambda q: (abs(a - q * b), q))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(a=st.integers(-300, 300), b=st.integers(-60, 60).filter(bool))
    def test_matches_brute_force(self, a, b):
        q = _nearest_quotient(a, b)
        assert q == self.brute(a, b)
        assert 2 * abs(a - q * b) <= abs(b)

    @pytest.mark.parametrize("a, b, q", [
        (3, 2, 1), (-3, 2, -2), (3, -2, -2), (-3, -2, 1),     # ties: smaller q
        (5, 2, 2), (5, -2, -3), (-5, 2, -3), (-5, -2, 2),
    ])
    def test_ties_and_signs(self, a, b, q):
        assert _nearest_quotient(a, b) == q == self.brute(a, b)

    def test_negative_divisor_far_from_floor(self):
        # floor quotient -3 leaves -243,261; the misdirected step gave -4
        q = _nearest_quotient(486816, -243359)
        assert (q, 486816 - q * -243359) == (-2, 98)


def adversarial_pair(n):
    """u, v on 2U+<-2> that took about 8 n reducer atoms with a quotient
    stepping the wrong way for negative divisors."""
    return [0, -n, 2 * n - 1, 1, 0], [0, 0, -1, -(2 * n - 1), 0]


class TestReducerBound:
    def test_never_reached_on_random_coordinates(self, l5):
        lat, split = l5
        rng = random.Random(2026)
        for _ in range(200):
            bits = rng.randint(1, 200)
            ents = [rng.choice((0, 1, 1, 1)) * rng.randint(-2 ** bits, 2 ** bits)
                    for _ in range(4)]
            if rng.random() < 0.3:
                v = Vec([Fraction(x, rng.randint(1, 2 ** bits)) for x in ents] + [0])
            else:
                v = Vec(ents + [0])
            red = _PlaneReducer(split, v)
            red.run()
            assert red.x == red.y == 0
            # a pass applies at most two quotient steps and one rotation
            assert len(red.applied) <= 5 * red.max_passes

    def test_old_quotient_rule_trips_the_bound(self, l5, monkeypatch):
        """The bound is a working self-check: with the misdirected step
        the adversarial pair needs linearly many passes and raises."""
        def misdirected(a, b):
            q = a // b
            if 2 * abs(a - q * b) > abs(b):
                q += 1 if b > 0 else -1
            return q

        _, split = l5
        monkeypatch.setattr(eichler, "_nearest_quotient", misdirected)
        u, v = adversarial_pair(10 ** 4)
        with pytest.raises(InternalSolveFailureError, match="exceeded its bound"):
            transport_witness(split, u, v)


def fibonacci(k):
    """F_k and F_(k+1)."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a, b


# rows with zeros, ties in |entry| and mixed signs, beside wide entries
ROW_ENTRIES = st.integers(-6, 6) | st.integers(-(1 << 80), 1 << 80)


class TestSolveRow:
    """The one-row Euclid gives exactly the vector of the Smith-form
    solver solve_linear, and None exactly where that gives None."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(row=st.lists(ROW_ENTRIES, min_size=1, max_size=19), d=st.integers(1, 12))
    def test_matches_smith_form_solver(self, row, d):
        want = solve_linear(Mat([row]), [d])
        got = _solve_row(row, d)
        assert got == (None if want is None else list(want))

    @pytest.mark.parametrize("row, d, solvable", [
        ([0], 1, False), ([0, 0, 0], 5, False), ([4, -6, 10], 1, False),
        ([4, -6, 10], 2, True), ([3, -3, 3, 0], 3, True), ([-3, 3], 4, False),
        ([-5], 10, True), ([0, 7, -7, 7], 7, True), ([6, 10, 15], 1, True),
    ])
    def test_pinned_cases(self, row, d, solvable):
        got = _solve_row(row, d)
        want = solve_linear(Mat([row]), [d])
        assert (got is not None) == solvable == (want is not None)
        if solvable:
            assert got == list(want) and sum(r * x for r, x in zip(row, got)) == d

    @pytest.mark.parametrize("k", [2, 10, 100, 476])
    def test_fibonacci_rows_within_the_proven_bound(self, k, monkeypatch):
        """Consecutive Fibonacci numbers make every floor quotient 1, the
        Euclid's worst case; they stay within 2 B passes, the bound the
        docstring proves, without its 2 passes of slack."""
        monkeypatch.setattr(eichler, "_row_pass_bound",
                            lambda row: 2 * max(map(abs, row)).bit_length())
        a, b = fibonacci(k)
        for row in ([b, a], [a, b, 0], [-b, 0, a]):
            for d in (1, 7):
                x = _solve_row(row, d)
                assert x == list(solve_linear(Mat([row]), [d]))

    def test_bound_trips(self, monkeypatch):
        """The bound is a working self-check: a row that needs more
        passes than it allows raises."""
        a, b = fibonacci(12)
        assert _row_pass_bound([b, a, 0]) > 3
        monkeypatch.setattr(eichler, "_row_pass_bound", lambda row: 3)
        with pytest.raises(InternalSolveFailureError, match="exceeded its bound of 3 passes"):
            _solve_row([b, a, 0], 1)


REDUCE_SPLITS = {
    "2U+A2": lambda: standard_splitting(build("2U+A2")),
    "2U+<-10>": lambda: standard_splitting(build("2U+<-10>")),
    "jacobi A2": lambda: jacobi_lattice(build("A2"))[1],
}
REDUCE_ENTRIES = {
    "integral": st.integers(-40, 40),
    "rational": st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
}


class TestReduceIntoL1:
    """The image read off the plane entries is the image of acting with
    every atom in turn, and it is orthogonal to U."""

    @staticmethod
    def replay(split, atoms, v):
        for atom in atoms:
            v = GroupWord(split.lattice, (atom,)).apply(v)
        return v

    @pytest.mark.parametrize("kind", sorted(REDUCE_ENTRIES))
    @pytest.mark.parametrize("name", sorted(REDUCE_SPLITS))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_image_is_the_replay(self, name, kind, data):
        split = REDUCE_SPLITS[name]()
        lat = split.lattice
        v = Vec(data.draw(st.lists(REDUCE_ENTRIES[kind], min_size=lat.rank, max_size=lat.rank)))
        atoms, image = _reduce_into_l1(split, v)
        assert image == self.replay(split, atoms, v)
        assert lat.inner(image, split.e) == lat.inner(image, split.f) == 0
        assert all(image[i] == v[i] for i in split.l0_indices)


def equivalent(split, u, v):
    """The answer `orbit equiv` prints: whether the orbit invariants of
    u and v have the same key."""
    iu, iv = invariant_pair(split, u, v)
    return iu.key() == iv.key()


class TestEquivalence:
    def test_reflexive(self, l5):
        _, split = l5
        assert equivalent(split, [1, 0, 0, 0, 0], [1, 0, 0, 0, 0])

    def test_e_and_f(self, l5):
        _, split = l5
        assert equivalent(split, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])

    def test_different_classes(self, l5):
        lat, split = l5
        # e - f has class 0; the rank-one generator has class of order 2
        assert not equivalent(split, [1, -1, 0, 0, 0], [0, 0, 0, 0, 1])

    def test_requires_primitive(self, l5):
        _, split = l5
        with pytest.raises(NotPrimitiveError):
            equivalent(split, [2, 0, 0, 0, 0], [1, 0, 0, 0, 0])


class TestTransport:
    def test_identity_case(self, l5):
        _, split = l5
        word = transport_witness(split, [1, 0, 0, 0, 0], [1, 0, 0, 0, 0])
        assert len(word) == 0

    def test_e_to_f(self, l5):
        _, split = l5
        u, v = Vec([1, 0, 0, 0, 0]), Vec([0, 1, 0, 0, 0])
        word = transport_witness(split, u, v)
        assert word.apply(u) == v
        assert word.is_integral()

    def test_refuses_unequal(self, l5):
        _, split = l5
        with pytest.raises(EquivalenceFailsError):
            transport_witness(split, [1, -1, 0, 0, 0], [0, 0, 0, 0, 1])

    def test_roots_pipeline(self, l5):
        lat, split = l5
        base = Vec([1, -1, 0, 0, 0])
        count = 0
        for r in lat.enumerate_vectors(-2, 1):
            if any(class_of(lat, r).coords):
                continue
            word = transport_witness(split, base, r)
            assert word.apply(base) == r
            assert word.is_integral()
            count += 1
        assert count >= 10

    def test_rational_image_refused_before_solving(self, l5, monkeypatch):
        # pair_to_d builds its row from the numerators of G x, so a G x
        # that is not integral must be refused, not solved
        _, split = l5
        reduce = eichler._reduce_into_l1

        def halved(s, v):
            atoms, image = reduce(s, v)
            return atoms, image / 2

        monkeypatch.setattr(eichler, "_reduce_into_l1", halved)
        with pytest.raises(InternalSolveFailureError, match="G x is not integral"):
            transport_witness(split, [1, 0, 0, 0, 0], [0, 0, 1, 0, 0])

    def test_atoms_are_stable_plus(self, l5):
        lat, split = l5
        word = transport_witness(split, Vec([1, 0, 0, 0, 0]), Vec([0, 0, 1, 0, 0]))
        for atom in word.atoms:
            mem = membership(lat, atom.to_isometry(lat).mat)
            assert mem.in_stable_so_plus

    def test_invariant_constant_along_words(self, l5):
        lat, split = l5
        rng = random.Random(51)
        roots = lat.enumerate_vectors(-2, 1)
        for _ in range(20):
            u = rng.choice(roots)
            w = transvection_word(split, rng, rng.randint(0, 4))
            assert orbit_invariant(lat, w.apply(u)).key() == orbit_invariant(lat, u).key()


class TestRewrite:
    def test_anchor_itself(self, l5):
        _, split = l5
        rho = rewrite_reflection(split, [1, -1, 0, 0, 0])
        assert len(rho) == 0

    def test_second_plane_root(self, l5):
        lat, split = l5
        r = Vec([0, 0, 1, -1, 0])
        rho = rewrite_reflection(split, r)
        assert rho.evaluate() * reflection(lat, split.e - split.f) == reflection(lat, r)
        assert rho.is_integral()

    def test_box_roots(self, l5):
        lat, split = l5
        anchor = reflection(lat, split.e - split.f)
        for r in lat.enumerate_vectors(-2, 1):
            rho = rewrite_reflection(split, r)
            assert rho.evaluate() * anchor == reflection(lat, r)
            assert rho.is_integral()

    def test_rejects_non_root(self, l5):
        _, split = l5
        with pytest.raises(NotRootError):
            rewrite_reflection(split, [1, 0, 0, 0, 0])


class TestTransvectionGroupClosure:
    def test_unimodular_base_conjugates_in(self, l5):
        # a transvection at any unimodular isotropic u is conjugate, by a
        # transport word, to one based at e
        lat, split = l5
        rng = random.Random(53)
        for _ in range(10):
            w = transvection_word(split, rng, rng.randint(1, 4))
            u = w.apply(split.e)
            a0 = Vec([rng.randint(-2, 2), 0, rng.randint(-2, 2),
                      rng.randint(-2, 2), rng.randint(-2, 2)])
            a = w.apply(a0)
            g = transport_witness(split, u, split.e).evaluate()
            assert g * transvection(lat, u, a) == transvection(lat, split.e, g.apply(a)) * g


class TestCensus:
    def test_2u_single_class(self):
        split = standard_splitting(build("2U"))
        rep = root_orbit_census(split, 2)
        assert rep.class_count() == 1
        # box-2 roots: coordinate pairs with xy + zw = -1, entries in [-2, 2]
        assert rep.entries[0].count == 52

    def test_partition_matches_nested_loop_oracle(self):
        for d, expected_counts in ((1, [74, 1060]), (2, [444]), (5, [40, 308])):
            lat = build(f"2U+<-{2 * d}>")
            rep = root_orbit_census(standard_splitting(lat), 3)
            assert sorted(e.count for e in rep.entries) == expected_counts
            # independent oracle: nested loops and reduction mod the divisor
            g = lat.gram.int_rows()
            n = lat.rank
            groups = {}
            for v in itertools.product(range(-3, 4), repeat=n):
                s = sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n))
                if s != -2:
                    continue
                gv = [sum(g[i][j] * v[j] for j in range(n)) for i in range(n)]
                dd = 0
                for x in gv:
                    dd = gcd(dd, x)
                key = (dd, tuple(c % dd for c in v))
                groups.setdefault(key, set()).add(v)
            oracle = sorted(sorted(grp) for grp in groups.values())
            census_groups = {}
            for v in lat.enumerate_vectors(-2, 3):
                census_groups.setdefault(orbit_invariant(lat, v).key(), set()).add(tuple(v))
            mine = sorted(sorted(grp) for grp in census_groups.values())
            assert mine == oracle

    def test_divisor_recorded(self, l5):
        lat, split = l5
        rep = root_orbit_census(split, 2)
        for entry in rep.entries:
            assert entry.invariant.divisor == gcd(*lat.gram_apply(entry.witness))
            assert lat.norm(entry.witness) == -2

    def test_over_budget_raises_before_enumerating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(kernels, "enum_norm_vectors", refuse)
        split = standard_splitting(build("2U+2E8(-1)+<-6>"))
        with pytest.raises(TooLargeError):
            root_orbit_census(split, 1)


def census_oracle(lat, box):
    """(invariant, count, witness) per class: a product loop over the
    box, orbit_invariant on every root, the first root seen as witness,
    sorted by divisor and then key."""
    g = lat.gram.int_rows()
    n = lat.rank
    buckets = {}
    for v in itertools.product(range(-box, box + 1), repeat=n):
        if sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n)) != -2:
            continue
        inv = orbit_invariant(lat, v)
        if inv.key() in buckets:
            buckets[inv.key()][1] += 1
        else:
            buckets[inv.key()] = [inv, 1, Vec(v)]
    return [tuple(val) for _, val in
            sorted(buckets.items(), key=lambda kv: (kv[1][0].divisor, kv[0]))]


@st.composite
def census_cases(draw):
    """U + U + G0 with G0 a random even nondegenerate form of rank 1 or
    2, its last basis vector isotropic or not, and a box in 0..2."""
    k = draw(st.integers(1, 2))
    g0 = [[0] * k for _ in range(k)]
    for i in range(k):
        g0[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i + 1, k):
            g0[i][j] = g0[j][i] = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        g0[k - 1][k - 1] = 0
    assume(Mat(g0).det() != 0)
    n = 4 + k
    rows = [[0] * n for _ in range(n)]
    rows[0][1] = rows[1][0] = rows[2][3] = rows[3][2] = 1
    for i in range(k):
        for j in range(k):
            rows[4 + i][4 + j] = g0[i][j]
    return Lattice(Mat(rows)), draw(st.integers(0, 2))


def check_census(lat, box):
    rep = root_orbit_census(HyperbolicSplitting(lat, (0, 1), (2, 3)), box)
    assert rep.box == box
    assert [(e.invariant, e.count, e.witness) for e in rep.entries] == census_oracle(lat, box)


class TestCensusOracle:
    """The half-space census, classified once per residue mod 2 with
    doubled counts, against the whole-box product loop."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(census_cases())
    def test_matches_oracle(self, case):
        check_census(*case)

    @pytest.mark.parametrize("spec", ["2U+<-2>", "2U+<-10>"])
    @pytest.mark.parametrize("box", [-1, 0, 1, 2])
    def test_fixed_lattices(self, spec, box):
        check_census(build(spec), box)

    @pytest.mark.parametrize("spec", [*IDENTITY_LATTICES, "2U+A2(-3)+<-6>"])
    def test_invariant_constant_on_residues_mod_2(self, spec):
        """The lemma the census rests on: (divisor, class) of a root is
        a function of the root mod 2."""
        lat = build(spec)
        seen = {}
        for v in lat.enumerate_vectors(-2, 2):
            inv = orbit_invariant(lat, v)
            key = seen.setdefault(tuple(x % 2 for x in v), (inv.divisor, inv.key()))
            assert key == (inv.divisor, inv.key()), v

    def test_divisor_two_and_two_classes(self):
        assert [e.invariant.divisor for e in
                root_orbit_census(standard_splitting(build("2U+<-2>")), 1).entries] == [1, 2]
        assert root_orbit_census(standard_splitting(build("2U+<-10>")), 2).class_count() == 2


# ---------------------------------------------------------------------
# the one-pass invariant against the Fraction path it replaced

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# 2U+A2 after a fixed unimodular change of basis, so that no block
# structure is left (the Gram of the benchmark's census lattice
# without blocks, before its seeded signed permutation).
HIDDEN_GRAM = [[8, 4, -3, -1, 3, -3],
               [4, 2, -1, 0, 2, -3],
               [-3, -1, 2, 1, -1, 0],
               [-1, 0, 1, 0, 0, 0],
               [3, 2, -1, 0, 2, -3],
               [-3, -3, 0, 0, -3, 6]]
INVARIANT_LATTICES = {
    "2U+A2(-3)+<-6>": build("2U+A2(-3)+<-6>"),
    "2U+<-6>+A2(-3)+<-4>": build("2U+<-6>+A2(-3)+<-4>"),
    "hidden 2U+A2": Lattice(Mat(HIDDEN_GRAM)),
}


def class_of_reference(lat, v):
    """Class of v/div(v): divide by div(v) = gcd(G v) in Fractions and
    reduce the dual vector through class_of_dual."""
    v = Vec(v)
    if not (v.is_integral() and gcd(*v) == 1):
        raise NotPrimitiveError("class_of needs a primitive vector")
    return discriminant_form(lat).class_of_dual(v / gcd(*lat.gram_apply(v)))


@st.composite
def primitive_vectors(draw):
    name = draw(st.sampled_from(sorted(INVARIANT_LATTICES)))
    lat = INVARIANT_LATTICES[name]
    v = draw(st.lists(st.integers(-7, 7), min_size=lat.rank, max_size=lat.rank))
    assume(gcd(*v) == 1)
    return lat, v


class TestOrbitInvariantOnePass:
    @PROPERTY
    @given(primitive_vectors())
    def test_matches_fraction_reference(self, case):
        lat, v = case
        ref = class_of_reference(lat, v)
        inv = orbit_invariant(lat, v)
        assert inv.disc_class == ref
        assert inv.divisor == gcd(*lat.gram_apply(v)) == ref.order()
        assert inv.norm == lat.norm(v)
        assert class_of(lat, v) == ref
        # built without __init__, yet the same value as the constructor's
        built = OrbitInvariant(inv.norm, ref, inv.divisor)
        assert inv == built and hash(inv) == hash(built) and repr(inv) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            inv.norm = 0

    def test_every_census_root(self):
        lat = INVARIANT_LATTICES["2U+A2(-3)+<-6>"]
        for r in lat.enumerate_vectors(-2, 1):
            assert orbit_invariant(lat, r).disc_class == class_of_reference(lat, r)

    @pytest.mark.parametrize("v", [
        [Fraction(1, 2), 0, 0, 0, 0],       # not a lattice vector
        [1, 0, 0, 0, Fraction(1, 3)],
        [0, 0, 0, 0, 0],
        [2, 0, 0, 0, 4],
        [2, 0, 0, 0],                       # not primitive before wrong length
        [],
    ])
    def test_not_primitive(self, l5, v):
        lat, _ = l5
        with pytest.raises(NotPrimitiveError):
            orbit_invariant(lat, v)
        with pytest.raises(NotPrimitiveError):
            class_of(lat, v)

    def test_wrong_length_after_primitivity(self, l5):
        lat, _ = l5
        for fn in (orbit_invariant, class_of):
            with pytest.raises(ValueError, match="shape mismatch"):
                fn(lat, [1, 0, 0, 0])


# ---------------------------------------------------------------------
# transport witnesses on random equivalent pairs

TRANSPORT_SPLITS = {spec: standard_splitting(build(spec))
                    for spec in [f"2U+<-{2 * d}>" for d in range(1, 6)] + ["2U+A2"]}


class TestTransportProperty:
    @PROPERTY
    @given(spec=st.sampled_from(sorted(TRANSPORT_SPLITS)), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_equivalent_pair(self, spec, seed, data):
        """v = g(u) for a seeded integral word g of transvections, so the
        pair is equivalent: the witness maps u to v, is integral, and is
        based at e or f only."""
        split = TRANSPORT_SPLITS[spec]
        lat = split.lattice
        u = data.draw(st.lists(st.integers(-5, 5), min_size=lat.rank, max_size=lat.rank))
        assume(gcd(*u) == 1)
        rng = random.Random(seed)
        v = transvection_word(split, rng, rng.randint(0, 6)).apply(u)
        word = transport_witness(split, u, v)
        assert word.apply(u) == v
        assert word.is_integral()
        assert all(isinstance(a, TransvectionAtom) and a.e in (split.e, split.f)
                   for a in word.atoms)


# ---------------------------------------------------------------------
# the criterion from one invariant pass per vector, against norm and
# class_of computed separately

class TestEquivalenceOracle:
    @PROPERTY
    @given(spec=st.sampled_from(sorted(TRANSPORT_SPLITS)), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_same_norm_and_class(self, spec, seed, data):
        """v is either a random primitive vector or the image of u under
        a seeded integral word, so that both answers occur."""
        split = TRANSPORT_SPLITS[spec]
        lat = split.lattice
        vectors = st.lists(st.integers(-4, 4), min_size=lat.rank, max_size=lat.rank)
        u = data.draw(vectors)
        assume(gcd(*u) == 1)
        if data.draw(st.booleans()):
            v = data.draw(vectors)
            assume(gcd(*v) == 1)
        else:
            rng = random.Random(seed)
            v = list(transvection_word(split, rng, rng.randint(0, 4)).apply(u))
        expected = lat.norm(u) == lat.norm(v) and class_of(lat, u) == class_of(lat, v)
        assert equivalent(split, u, v) == expected


# ---------------------------------------------------------------------
# transport witnesses pinned atom for atom

def pinned_pairs(lat, seed, count=30, box=2):
    """count seeded pairs of distinct equivalent roots in the box."""
    groups = {}
    for r in lat.enumerate_vectors(-2, box):
        groups.setdefault(orbit_invariant(lat, r).key(), []).append(r)
    pools = [groups[k] for k in sorted(groups) if len(groups[k]) > 1]
    rng = random.Random(seed)
    return [rng.sample(rng.choice(pools), 2) for _ in range(count)]


# sha256 of json.dumps([w.to_json() for w in words], sort_keys=True) for
# the 30 witnesses on 2U+<-2d> with seed d
TRANSPORT_DIGESTS = {
    1: "9a3196fe0119e24c44fed03d21bd059f465c7ebb38233ac69bb0602682de1345",
    2: "647464efb76412659193a984f97c7a9dbcc128d3d45ee21944f4101be29d3224",
    3: "1dd74c2305de8bf1f8bd86d0c22f8b027a54d7f3816ba883152884928f7dd931",
    4: "dd67650e1352dbd1fff57e0fdb19f9526a2d0c7194a4c2b3af3bef080def23a1",
    5: "18fd4faa02ae69454d72c5c561a3ac013e212baeb87190e90dde77876c6089ec",
}


@pytest.mark.parametrize("d", sorted(TRANSPORT_DIGESTS))
def test_transport_witnesses_pinned(d):
    split = TRANSPORT_SPLITS[f"2U+<-{2 * d}>"]
    words = [transport_witness(split, u, v) for u, v in pinned_pairs(split.lattice, d)]
    text = json.dumps([w.to_json() for w in words], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == TRANSPORT_DIGESTS[d]


K3_SPLIT = standard_splitting(build("2U+2E8(-1)+<-2>"))


def k3_pairs(seed, count=6, length=4):
    """Seeded pairs on the rank-21 K3 lattice 2U+2E8(-1)+<-2>: for the
    root e - f and for the generator h of <-2> (divisor 2), pairs (u, base)
    and (u, v) with u, v images of the base under seeded integral
    transvection words."""
    split, rng = K3_SPLIT, random.Random(seed)
    h = split.lattice.basis_vector(split.lattice.rank - 1)
    pairs = []
    for base in (split.e - split.f, h):
        for _ in range(count):
            u = transvection_word(split, rng, length).apply(base)
            v = transvection_word(split, rng, length).apply(base)
            pairs += [(u, base), (u, v)]
    return pairs


# sha256 of json.dumps([w.to_json() for w in words], sort_keys=True) for
# the 24 witnesses of k3_pairs(seed); pair_to_d solves a 1 x 19 row here
K3_TRANSPORT_DIGESTS = {
    1: "599c407b05d80ca07881f2664d8727c5d3797c61c08f39c8ac999178e6c56101",
    2: "1c1a5bee7c4d268ec064bf8ac5991f86d7322892f84f4ac42debd1c45014bc17",
    3: "a9943d4e1ddb60101ed1459f5122bd1f1cee88f07d5db6ae725c05cbf66ca244",
}


@pytest.mark.parametrize("seed", sorted(K3_TRANSPORT_DIGESTS))
def test_k3_transport_witnesses_pinned(seed):
    words = []
    for u, v in k3_pairs(seed):
        word = transport_witness(K3_SPLIT, u, v)
        assert word.apply(u) == v and word.is_integral()
        words.append(word)
    text = json.dumps([w.to_json() for w in words], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == K3_TRANSPORT_DIGESTS[seed]
