"""Per-layer spans for the traced benchmark run.

The tracer wraps public functions and methods of ``orthlat`` from the
outside: it replaces the module attribute and every other binding of
the same function object in the loaded ``orthlat`` modules (many
modules import names directly, e.g. ``suite.transvection``), plus the
class attribute for methods.  Each wrapped call is a span; a span's
self time is its duration minus the time covered by spans it caused.
``uninstall`` restores every binding it replaced.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _entry_bits(mat) -> int:
    """Largest bit-length among numerators and denominators of a matrix
    (read entrywise, so that no Vec is built and counted)."""
    bits = 0
    for i in range(mat.n):
        for j in range(mat.m):
            x = mat[i, j]
            bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return bits


class Tracer:
    """Span and counter store for one traced segment of a workload."""

    EXTRA = ("isometry.GroupWord.apply.atoms", "isometry.GroupWord.evaluate.atoms",
             "kernels.enum_norm_vectors.points", "kernels.enum_norm_vectors.hits",
             "eichler.transport_witness.atoms", "isometry.cartan_dieudonne.mirrors",
             "isometry.max_entry_bits", "discform.enumerate_orth_d.found")

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.extra: dict[str, int] = dict.fromkeys(self.EXTRA, 0)
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def settle(self):
        """Drop spans left open by an op that was interrupted between
        entering a span and its ``try``; ops start with no open span."""
        self._stack.clear()

    # -- recording -----------------------------------------------------
    def _add(self, key: str, n: int):
        self.extra[key] = self.extra.get(key, 0) + n

    def _max(self, key: str, n: int):
        self.extra[key] = max(self.extra.get(key, 0), n)

    def span(self, name: str, fn, after=None):
        """Wrap fn so that each call records a span under name; ``after``
        sees (result, args) to update counters."""
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dt - child
                total_s[name] += dt
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that each call only increments a count."""
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------
    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, after=None):
        """Replace every binding of module.attr in the orthlat modules."""
        orig = getattr(module, attr)
        wrapped = self.span(name, orig, after)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("orthlat"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, after=None):
        self._set(cls, attr, self.span(name, cls.__dict__[attr], after))

    def install(self):
        from orthlat import (cli, commutators, discform, eichler, isometry,
                             jacobi, kernels, lattice, linalg, sampling, suite)

        add, top = self._add, self._max

        def bits_of_mat(_res, args):
            top("isometry.max_entry_bits", _entry_bits(args[1]))

        def bits_of_isometry(_res, args):
            top("isometry.max_entry_bits", _entry_bits(args[0].mat))

        def mirrors(res, args):
            add("isometry.cartan_dieudonne.mirrors", len(res))
            bits_of_isometry(res, args)

        def enum_points(res, args):
            _gram, n, _target, box = args
            add("kernels.enum_norm_vectors.points", (2 * box + 1) ** n)
            add("kernels.enum_norm_vectors.hits", len(res))

        def atoms_of(key):
            def count(_res, args):
                add(key, len(args[0].atoms))
            return count

        def result_len(key):
            def count(res, _args):
                add(key, len(res))
            return count

        # order matters only for readability: every binding is found
        # by identity, wherever it was imported
        self.patch_function(isometry, "transvection", "isometry.transvection")
        self.patch_function(isometry, "reflection", "isometry.reflection")
        self.patch_function(isometry, "cartan_dieudonne", "isometry.cartan_dieudonne",
                            mirrors)
        self.patch_function(isometry, "spinor_norm_q", "isometry.spinor_norm_q",
                            bits_of_isometry)
        self.patch_function(isometry, "membership", "isometry.membership", bits_of_mat)
        self.patch_method(isometry.GroupWord, "apply", "isometry.GroupWord.apply",
                          atoms_of("isometry.GroupWord.apply.atoms"))
        self.patch_method(isometry.GroupWord, "evaluate", "isometry.GroupWord.evaluate",
                          atoms_of("isometry.GroupWord.evaluate.atoms"))

        self.patch_method(linalg.Mat, "__matmul__", "linalg.Mat.matmul")
        self.patch_method(linalg.Mat, "inv", "linalg.Mat.inv")
        self.patch_method(linalg.Mat, "apply", "linalg.Mat.apply")
        self.patch_function(linalg, "smith_normal_form", "linalg.smith_normal_form")
        self.patch_function(linalg, "congruence_diagonalize",
                            "linalg.congruence_diagonalize")
        vec_new = linalg.Vec.__dict__["__new__"].__func__
        self._set(linalg.Vec, "__new__",
                  staticmethod(self.counter("linalg.Vec.new", vec_new)))

        self.patch_function(kernels, "imat_mul", "kernels.imat_mul")
        self.patch_function(kernels, "enum_norm_vectors", "kernels.enum_norm_vectors",
                            enum_points)

        self.patch_method(lattice.Lattice, "inner", "lattice.Lattice.inner")
        self.patch_method(lattice.Lattice, "enumerate_vectors",
                          "lattice.Lattice.enumerate_vectors")

        self.patch_function(discform, "class_of", "discform.class_of")
        self.patch_function(discform, "discriminant_form", "discform.discriminant_form")
        self.patch_function(discform, "is_stable", "discform.is_stable")
        self.patch_function(discform, "enumerate_orth_d", "discform.enumerate_orth_d",
                            result_len("discform.enumerate_orth_d.found"))

        self.patch_function(eichler, "orbit_invariant", "eichler.orbit_invariant")
        self.patch_function(eichler, "root_orbit_census", "eichler.root_orbit_census")
        self.patch_function(eichler, "transport_witness", "eichler.transport_witness",
                            lambda res, _a: add("eichler.transport_witness.atoms",
                                                len(res.atoms)))

        self.patch_method(commutators.CommutatorCertificate, "verify",
                          "commutators.CommutatorCertificate.verify")
        self.patch_function(commutators, "verify_master_identity",
                            "commutators.verify_master_identity")
        self.patch_function(jacobi, "verify_plane_identities",
                            "jacobi.verify_plane_identities")
        self.patch_function(sampling, "integral_isometry", "sampling.integral_isometry")
        self.patch_function(suite, "run_suite", "suite.run_suite")
        self.patch_function(cli, "main", "cli.main")

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Flat per-layer figures: <layer>.calls, <layer>.self_s, the
        inclusive <layer>.total_s, and the extra counters."""
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            if name in self.self_s:
                out[f"{name}.self_s"] = self.self_s[name]
                out[f"{name}.total_s"] = self.total_s[name]
        out.update(self.extra)
        points = self.extra.get("kernels.enum_norm_vectors.points", 0)
        hits = self.extra.get("kernels.enum_norm_vectors.hits", 0)
        out["kernels.enum_norm_vectors.hit_ratio"] = hits / points if points else 0.0
        return out

    def covered_s(self) -> float:
        """Summed self time of all spans (the union of top-level spans)."""
        return sum(self.self_s.values())
