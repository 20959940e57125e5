"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line.  All comparisons are exact; the only tolerances are
wall-clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd

from orthlat import commutators, discform, eichler, jacobi, suite
from orthlat.cli import main as cli_main
from orthlat.isometry import membership, spinor_norm_q, squarefree_class
from orthlat.lattice import build
from orthlat.linalg import Vec
from orthlat.sampling import mixed_word, transvection_word


def report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


class Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def test_01_transvection_identity_suite():
    rng = random.Random(1001)
    with Timer() as t:
        checks = suite.run_identity_block("2U+A2", rng, 50)
        for d in range(1, 6):
            checks.extend(suite.run_identity_block(f"2U+<-{2 * d}>", rng, 10))
    ok = all(c["pass"] for c in checks) and t.elapsed < 5.0
    report(1, f"five transvection identities, {len(checks)} blocks, "
              f"{t.elapsed:.2f}s < 5s", ok)


def test_02_commutator_suite():
    split = eichler.standard_splitting(build("2U+A2"))
    lat = split.lattice
    rng = random.Random(1002)
    ok = True
    with Timer() as t:
        ran = 0
        while ran < 50:
            w = Vec([0, 0] + [Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                              for _ in range(4)])
            s = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
            if 1 - s * Fraction(lat.norm(w)) / 2 == 0:
                continue
            ran += 1
            ok = ok and commutators.verify_master_identity(split, w, s)
        certs = [commutators.certificate_p4(split)]
        for _ in range(20):
            u = Vec([0, 0] + [Fraction(rng.randint(-3, 3), rng.choice([1, 3]))
                              for _ in range(4)])
            certs.append(commutators.certificate_transvection(split, u))
        for _ in range(20):
            u = Vec([0, 0, 0, 0, rng.randint(-3, 3), rng.randint(-3, 3)])
            v = Vec([0, 0, 0, 0, rng.randint(-3, 3), rng.randint(-3, 3)])
            s = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            certs.append(commutators.heisenberg_commutator(split, s, u))
            certs.append(commutators.triple_product(split, s, u, v))
        for cert in certs:
            ok = ok and cert.verify()
            ok = ok and cert.target.det() == 1
            ok = ok and spinor_norm_q(cert.target) == 1
    ok = ok and t.elapsed < 10.0
    report(2, f"master identity x50 and {len(certs)} certificates, "
              f"{t.elapsed:.2f}s < 10s", ok)


def test_03_transport_witnesses():
    total = 0
    ok = True
    with Timer() as t:
        for d in range(1, 6):
            lat = build(f"2U+<-{2 * d}>")
            split = eichler.standard_splitting(lat)
            groups = {}
            for r in lat.enumerate_vectors(-2, 3):
                groups.setdefault(eichler.orbit_invariant(lat, r).key(), []).append(r)
            seen_atoms = set()
            for roots in groups.values():
                chain = list(zip(roots, roots[1:]))[:60]
                if len(roots) > 2:
                    chain.append((roots[0], roots[-1]))
                for u, v in chain:
                    word = eichler.transport_witness(split, u, v)
                    ok = ok and word.apply(u) == v
                    ok = ok and word.is_integral()
                    for atom in word.atoms:
                        key = (atom.e, atom.a)
                        if key in seen_atoms:
                            continue
                        seen_atoms.add(key)
                        mem = membership(lat, atom.to_isometry(lat).mat)
                        ok = ok and mem.in_stable_so_plus
                    total += 1
    ok = ok and total >= 200 and t.elapsed < 30.0
    report(3, f"{total} transported root pairs (>=200), atoms stable, "
              f"{t.elapsed:.2f}s < 30s", ok)


def test_04_kneser_fixtures():
    ok = True
    for t in (1, 2, 5, 7, 11):
        ok = ok and build(f"2U+<-{2 * t}>").rank_p(2) == 4
    ok = ok and build("2U+A2(-3)").rank_p(3) == 4
    ok = ok and build("U(2)+U+E8(-2)").rank_p(2) == 2
    for d in range(1, 7):
        ok = ok and build(f"2U+2E8(-1)+<-{2 * d}>").kneser_check().all_pass()
    report(4, "2-rank 4 family, 3-rank 4 example, 2-rank 2 example, "
              "full pass for the rank-21 family (d <= 6)", ok)


def test_05_spinor_norm_well_defined():
    lat = build("2U+<-2>")
    split = eichler.standard_splitting(lat)
    rng = random.Random(1005)
    ok = True
    words = [mixed_word(split, rng, rng.randint(0, 5)).evaluate() for _ in range(100)]
    for g in words:
        perm = list(range(lat.rank))
        rng.shuffle(perm)
        ok = ok and spinor_norm_q(g) == spinor_norm_q(g, order=perm)
    for _ in range(100):
        g, h = rng.choice(words), rng.choice(words)
        ok = ok and spinor_norm_q(g * h) == squarefree_class(spinor_norm_q(g) * spinor_norm_q(h))
    report(5, "spinor norm independent of decomposition (100 words) "
              "and multiplicative (100 pairs)", ok)


def test_06_stable_plus_words():
    from orthlat.isometry import reflection

    lat = build("2U+A2")
    assert lat.kneser_check().all_pass()
    split = eichler.standard_splitting(lat)
    rng = random.Random(1006)
    roots = lat.enumerate_vectors(-2, 1)
    ok = True
    for _ in range(100):
        g = transvection_word(split, rng, rng.randint(1, 5)).evaluate()
        for _ in range(rng.randint(0, 2)):  # paired root reflections
            g = g * reflection(lat, rng.choice(roots)) * reflection(lat, rng.choice(roots))
        mem = membership(lat, g.mat)
        ok = ok and mem.in_spinorial_kernel and mem.in_stable_so_plus
    report(6, "100 words in transvections and paired root reflections lie "
              "in the spinorial kernel and the stable special plus group", ok)


def test_07_jacobi_suite():
    ok = True
    rng = random.Random(1007)
    for spec in ("<-2>", "A2"):
        _, split = jacobi.jacobi_lattice(build(spec))
        n0 = len(split.l0_indices)
        vectors = [[rng.randint(-3, 3) for _ in range(n0)] for _ in range(10)]
        for c in jacobi.verify_plane_identities(split, vectors):
            ok = ok and c.holds
    for t in (1, 2, 5):
        for c in jacobi.paramodular_flip_check(t):
            ok = ok and c.holds
    report(7, "generator correspondences, S^2, both conjugation "
              "identities, and the 5x5 flip matrix for t in {1,2,5}", ok)


def test_08_root_census_oracle():
    ok = True
    rep = eichler.root_orbit_census(eichler.standard_splitting(build("2U")), 2)
    ok = ok and rep.class_count() == 1
    for d in range(1, 6):
        lat = build(f"2U+<-{2 * d}>")
        rep = eichler.root_orbit_census(eichler.standard_splitting(lat), 3)
        g = lat.gram.int_rows()
        n = lat.rank
        oracle_groups = {}
        for v in itertools.product(range(-3, 4), repeat=n):
            s = sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n))
            if s != -2:
                continue
            gv = [sum(g[i][j] * v[j] for j in range(n)) for i in range(n)]
            dd = 0
            for x in gv:
                dd = gcd(dd, x)
            key = (dd, tuple(c % dd for c in v))
            oracle_groups.setdefault(key, set()).add(v)
        oracle = sorted(sorted(grp) for grp in oracle_groups.values())
        mine_groups = {}
        for v in lat.enumerate_vectors(-2, 3):
            mine_groups.setdefault(
                eichler.orbit_invariant(lat, v).key(), set()).add(tuple(v))
        mine = sorted(sorted(grp) for grp in mine_groups.values())
        ok = ok and mine == oracle
    report(8, "census on 2U is a single class; censuses for d <= 5 equal "
              "the nested-loop grouping oracle", ok)


def test_09_disc_automorphism_counts():
    ok = True
    rows = []
    with Timer() as t:
        for d in range(1, 13):
            form = discform.discriminant_form(build(f"2U+<-{2 * d}>"))
            brute = len(discform.enumerate_orth_d(form))
            units = sum(1 for u in range(2 * d) if (u * u - 1) % (4 * d) == 0)
            divisors = sum(1 for k in range(1, d + 1) if d % k == 0)
            primes = len({p for p in range(2, d + 1) if d % p == 0
                          and all(p % q for q in range(2, p))})
            rows.append((d, brute, units, 2 ** divisors, 2 ** primes))
            ok = ok and brute == units
    ok = ok and t.elapsed < 5.0
    print("    d | brute | units(u^2=1 mod 4d) | 2^#divisors | 2^#primes")
    for r in rows:
        print("    {} | {} | {} | {} | {}".format(*r))
    report(9, f"automorphism counts equal the unit-solving oracle for "
              f"d <= 12, {t.elapsed:.2f}s < 5s "
              f"(2^#divisors over-counts, e.g. d=1)", ok)


def test_10_suite_determinism(capsys):
    code1 = cli_main(["suite", "run", "--seed", "42"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["suite", "run", "--seed", "42"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and json.loads(out1)["allPass"]
    with capsys.disabled():
        report(10, "suite run --seed 42 is byte-identical across runs", ok)
