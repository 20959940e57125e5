"""The four seeded workloads, driven through the public API of orthlat.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), lists the items of one pass, and runs one item per ``run``
call.  ``run`` does the work and the output checks, returns the number
of ops the item stands for and a small JSON-able summary of its output
(exact: integer hashes of exact values), and raises
``CheckFailed`` when an output is wrong.  The harness owns timing,
deadlines and tracing.

The orthlat modules are referenced through their module attributes
(``eichler.transport_witness``), never through names imported into
this file, so that the tracer's patched bindings are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from orthlat import cli, discform, eichler, isometry, lattice, linalg, sampling

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An output check failed: the op produced a wrong answer."""


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


class Workload:
    """Defaults for the hooks most workloads do not need."""

    def prepare_checks(self, state):
        """Compute, outside any timing, what the output checks compare to."""

    def start_pass(self, state):
        """Reset per-pass state before the first item of a pass."""

    def expected_ops(self, state, item) -> int:
        """Ops an item stands for, counted when it fails."""
        return 1


# ---------------------------------------------------------------------
# transport

class Transport(Workload):
    """Transport witnesses between equivalent roots of 2U+<-2d>, d = 1..5,
    in the acceptance-03 shape: roots in box 3 grouped by orbit
    invariant, up to 61 pairs per group (406 pairs), drawn by the seed."""

    name = "transport"
    deadline_s = {"pair": 10.0}
    BOX = 3
    PAIRS_PER_GROUP = 61

    def setup(self, seed: int):
        rng = random.Random(seed)
        state = {"lattices": [], "items": []}
        for d in range(1, 6):
            lat = lattice.build(f"2U+<-{2 * d}>")
            split = eichler.standard_splitting(lat)
            groups: dict = {}
            for r in lat.enumerate_vectors(-2, self.BOX):
                groups.setdefault(eichler.orbit_invariant(lat, r).key(), []).append(r)
            idx = len(state["lattices"])
            state["lattices"].append((lat, split))
            for roots in groups.values():
                if len(roots) < 2:
                    continue
                k = min(self.PAIRS_PER_GROUP - 1, len(roots) - 1) + (len(roots) > 2)
                for _ in range(k):
                    u, v = rng.sample(roots, 2)
                    state["items"].append(("pair", idx, u, v))
        return state

    def inputs(self, state):
        return [(i, [str(x) for x in u], [str(x) for x in v])
                for _, i, u, v in state["items"]]

    def start_pass(self, state):
        state["seen"] = [set() for _ in state["lattices"]]

    def run(self, state, item):
        _, idx, u, v = item
        lat, split = state["lattices"][idx]
        word = eichler.transport_witness(split, u, v)
        _require(word.apply(u) == v, "transport word does not map u to v")
        _require(word.is_integral(), "transport word is not integral")
        seen = state["seen"][idx]
        for atom in word.atoms:
            key = (atom.e, atom.a)
            if key in seen:
                continue
            seen.add(key)
            mem = isometry.membership(lat, atom.to_isometry(lat).mat)
            _require(mem.in_stable_so_plus, "transport atom outside the stable SO+")
        return 1, hash(word.atoms)


# ---------------------------------------------------------------------
# suite

class Suite(Workload):
    """``orthlat suite run --seed S`` in-process with stdout captured."""

    name = "suite"
    deadline_s = {"suite": 120.0}

    def setup(self, seed: int):
        argv = ["suite", "run", "--seed", str(seed)]
        return {"items": [("suite", argv)], "first": None}

    def inputs(self, state):
        return state["items"][0][1]

    def run(self, state, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(item[1])
        out = buf.getvalue()
        _require(code == 0, f"suite run exited with {code}")
        _require(json.loads(out)["allPass"] is True, "suite run reports a failing check")
        if state["first"] is None:
            state["first"] = out
        _require(out == state["first"], "suite output differs between runs of one seed")
        return 1, out


# ---------------------------------------------------------------------
# census

def nested_loop_census(gram: list[list[int]], box: int) -> tuple[int, int]:
    """Roots and root classes in the box by plain nested loops (the
    acceptance-08 oracle): two roots share a class of D(L) exactly when
    they have the same divisor d and agree modulo d."""
    from itertools import product
    from math import gcd

    n = len(gram)
    roots = 0
    classes = set()
    for v in product(range(-box, box + 1), repeat=n):
        gv = [sum(gram[i][j] * v[j] for j in range(n)) for i in range(n)]
        if sum(v[i] * gv[i] for i in range(n)) != -2:
            continue
        roots += 1
        d = 0
        for x in gv:
            d = gcd(d, x)
        classes.add((d, tuple(c % d for c in v)))
    return roots, len(classes)


def hidden_block_gram(base: str, steps: int) -> list[list[int]]:
    """Gram matrix of a built lattice after a fixed unimodular change of
    basis by elementary column operations, with no block structure left."""
    rng = random.Random(0)
    g = lattice.build(base).gram.int_rows()
    n = len(g)
    while True:
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            # basis vector j += c * basis vector i, i.e. G <- E^T G E
            for r in range(n):
                g[r][j] += c * g[r][i]
            for r in range(n):
                g[j][r] += c * g[i][r]
        if _connected(g):
            return g


def _connected(g: list[list[int]]) -> bool:
    """Whether the nonzero pattern of g links every basis vector."""
    reached, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j, x in enumerate(g[i]):
            if x and j not in reached:
                reached.add(j)
                todo.append(j)
    return len(reached) == len(g)


def signed_permutation(g: list[list[int]], seed: int) -> list[list[int]]:
    """P^T G P for a seeded signed permutation matrix P.  The box
    [-b, b]^n is mapped onto itself, so every seed has the same roots in
    it up to coordinates, and the same counts."""
    rng = random.Random(seed)
    n = len(g)
    perm = rng.sample(range(n), n)
    sign = [rng.choice((-1, 1)) for _ in range(n)]
    return [[sign[i] * sign[j] * g[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


class Census(Workload):
    """Roots in a box grouped by orbit invariant: root_orbit_census on
    three built lattices, and enumerate_vectors + orbit_invariant on a
    change of basis of 2U+A2 whose Gram matrix has no blocks, with its
    basis permuted and re-signed by the seed."""

    name = "census"
    deadline_s = {"census": 120.0, "hidden": 120.0}
    JOBS = (("2U+A2", 4), ("2U+<-2>", 5), ("2U+<-10>", 5))
    HIDDEN = ("2U+A2", 3, 8)     # base lattice, box, elementary steps

    @classmethod
    def hidden_label(cls) -> str:
        base, box, _ = cls.HIDDEN
        return f"{base} without blocks box {box}"

    def setup(self, seed: int):
        items = []
        for spec, box in self.JOBS:
            split = eichler.standard_splitting(lattice.build(spec))
            items.append(("census", f"{spec} box {box}", split, box))
        base, box, steps = self.HIDDEN
        gram = signed_permutation(hidden_block_gram(base, steps), seed)
        hidden = lattice.lattice_from_json({"gram": [[str(x) for x in row] for row in gram]})
        items.append(("hidden", self.hidden_label(), hidden, box))
        return {"items": items}

    def inputs(self, state):
        return [(item[1], item[2].gram.int_rows() if item[0] == "hidden" else None)
                for item in state["items"]]

    def prepare_checks(self, state):
        """Expected (roots, classes) per job, stored with the benchmark."""
        stored = json.loads((HERE / "census_oracle.json").read_text())
        state["expect"] = {k: tuple(v) for k, v in stored.items()}

    def expected_ops(self, state, item) -> int:
        return state["expect"][item[1]][0]

    def run(self, state, item):
        kind, label, obj, box = item
        if kind == "census":
            report = eichler.root_orbit_census(obj, box)
            roots = sum(e.count for e in report.entries)
            classes = report.class_count()
            out = [[str(e.invariant.norm), list(e.invariant.disc_class.coords),
                    e.invariant.divisor, e.count] for e in report.entries]
        else:
            keys: dict = {}
            for v in obj.enumerate_vectors(-2, box):
                key = eichler.orbit_invariant(obj, v).key()
                keys[key] = keys.get(key, 0) + 1
            roots = sum(keys.values())
            classes = len(keys)
            out = sorted([list(k[1]), c] for k, c in keys.items())
        _require((roots, classes) == state["expect"][label],
                 f"{label}: {roots} roots in {classes} classes, oracle says "
                 f"{state['expect'][label]}")
        return roots, out


# ---------------------------------------------------------------------
# group

class Group(Workload):
    """Seeded mixed words on 2U+A2 with lengths spread over 1..80 atoms,
    evaluated and passed through membership and spinor_norm_q; O(D) of
    three mid-size discriminant forms; SNF and signature at rank 21."""

    name = "group"
    # Words are bounded by CPU time; long words hit the trial-division
    # spinor norm and count as failed ops when they run past it.
    deadline_s = {"word": 0.3, "orth": 30.0, "snf": 30.0}
    WORDS = 32
    MAX_LEN = 80
    FORMS = (("2U+<-6>+A2(-3)+<-4>", 648, 288),
             ("2U+3<-6>", 216, 288),
             ("2U+A2(-3)+<-6>", 162, 144))
    SNF_SPEC = "2U+2E8(-1)+<-6>"

    def setup(self, seed: int):
        rng = random.Random(seed)
        lat = lattice.build("2U+A2")
        split = eichler.standard_splitting(lat)
        roots = lat.enumerate_vectors(-2, 1)
        items = []
        for i in range(self.WORDS):
            length = 1 + (self.MAX_LEN - 1) * i // (self.WORDS - 1)
            word = sampling.mixed_word(split, rng, length, roots=roots)
            reflections = sum(isinstance(a, isometry.ReflectionAtom) for a in word.atoms)
            items.append(("word", lat, word, reflections))
        for spec, size, count in self.FORMS:
            items.append(("orth", spec, size, count))
        items.append(("snf", self.SNF_SPEC, None, None))
        return {"items": items}

    def inputs(self, state):
        return [item[2].to_json() for item in state["items"] if item[0] == "word"]

    def run(self, state, item):
        kind = item[0]
        if kind == "word":
            return 1, self._word(*item[1:])
        if kind == "orth":
            _, spec, size, count = item
            form = discform.discriminant_form(lattice.build(spec))
            auts = discform.enumerate_orth_d(form)
            _require(len(form) == size, f"{spec}: |D| = {len(form)}, expected {size}")
            _require(len(auts) == count, f"{spec}: |O(D)| = {len(auts)}, expected {count}")
            return 1, [len(form), len(auts)]
        lat = lattice.build(item[1])
        u, s, v = linalg.smith_normal_form(lat.gram)
        factors = [int(s[i, i]) for i in range(lat.rank)]
        sig = linalg.signature_of(lat.gram)
        _require(u @ lat.gram @ v == s, "SNF transforms do not reproduce S")
        _require(factors == [1] * 20 + [6], f"invariant factors {factors}")
        _require(sig == (2, 19), f"signature {sig}")
        return 1, [factors, list(sig)]

    @staticmethod
    def _word(lat, word, reflections):
        g = word.evaluate()
        mem = isometry.membership(lat, g.mat)
        sn = isometry.spinor_norm_q(g)
        even = reflections % 2 == 0
        # closed-form flags: integral words of root reflections and
        # integral transvections are stable, in O+ and of spinor norm 1
        _require(mem.in_o and mem.in_stable and mem.in_o_plus, "word outside stable O+")
        _require(sn == 1, f"spinor norm {sn}, expected 1")
        _require(mem.in_so == even and mem.in_spinorial_kernel == even,
                 "SO / spinorial-kernel flag disagrees with the reflection count")
        return [mem.to_json(), sn, hash(g.mat)]


WORKLOADS = {w.name: w for w in (Transport(), Suite(), Census(), Group())}
