"""Command-line front end with JSON input and output.

Exit codes: 0 on success, 1 on a domain error (reported as
{"error": code, "detail": ...}), 2 on a usage error.  All big integers
are serialized as decimal strings and rationals as "p/q".
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction

from orthlat import discform, eichler
from orthlat.errors import OrthlatError
from orthlat.isometry import (
    Isometry,
    membership,
    reflection,
    spinor_norm_q,
    transvection,
)
from orthlat.lattice import (
    Lattice,
    build,
    lattice_from_json,
    lattice_to_json,
)
from orthlat.linalg import Mat, Vec, parse_scalar


class UsageError(Exception):
    pass


# -- scalar/vector/matrix (de)serialization ---------------------------

def _parse_scalar(s) -> int | Fraction:
    try:
        return parse_scalar(s)
    except ValueError as exc:
        raise UsageError(f"bad scalar {str(s)!r}") from exc


def _parse_vec(data) -> Vec:
    if not isinstance(data, list):
        raise UsageError("vector payload must be a JSON array")
    return Vec(_parse_scalar(x) for x in data)


def _parse_mat(data) -> Mat:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise UsageError("matrix payload must be a JSON array of arrays")
    return Mat([[_parse_scalar(x) for x in row] for row in data])


def _fmt_vec(v) -> list[str]:
    return [str(x) for x in v]


def _fmt_mat(m: Mat) -> list[list[str]]:
    return [_fmt_vec(m.row(i)) for i in range(m.n)]


def _load_lattice(args) -> Lattice:
    if getattr(args, "spec", None):
        return build(args.spec)
    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as fh:
            return lattice_from_json(json.load(fh))
    raise UsageError("a lattice is required: pass --spec or --file")


def _payload(args) -> dict:
    raw = None
    if getattr(args, "json", None) is not None:
        raw = args.json
    elif getattr(args, "payload_file", None):
        with open(args.payload_file, encoding="utf-8") as fh:
            raw = fh.read()
    if raw is None:
        raise UsageError("a JSON payload is required: pass --json or --payload-file")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("payload must be a JSON object")
    return data


def _need(data: dict, key: str):
    if key not in data:
        raise UsageError(f"payload is missing {key!r}")
    return data[key]


def _jacobi_context(args):
    from orthlat import jacobi

    l0 = build(args.spec) if args.spec else build("<-2>")
    return jacobi.jacobi_lattice(l0)


# -- subcommand handlers ----------------------------------------------

def cmd_lattice_info(args) -> dict:
    lat = _load_lattice(args)
    p, q = lat.signature()
    form = discform.discriminant_form(lat)
    return {
        "rank": lat.rank,
        "det": str(lat.det()),
        "signature": [p, q],
        "discOrders": [str(d) for d in form.orders],
        "labels": list(lat.labels),
        "gram": lattice_to_json(lat)["gram"],
    }


def cmd_lattice_kneser(args) -> dict:
    lat = _load_lattice(args)
    rep = lat.kneser_check(args.box)
    found = rep.minus2_vector
    return {
        "evenOK": True,  # Lattice() rejects odd Gram matrices
        "wittOK": rep.witt_ok,
        "rank2OK": rep.rank2_ok,
        "rank3OK": rep.rank3_ok,
        "representsMinus2": {
            "found": rep.represents_minus2,
            "vector": _fmt_vec(found) if found is not None else None,
            "searchBox": rep.search_box,
        },
        "allPass": rep.all_pass(),
    }


def _invariant_json(inv: eichler.OrbitInvariant) -> dict:
    return {
        "norm": str(inv.norm),
        "class": list(inv.disc_class.coords),
        "divisor": str(inv.divisor),
    }


def cmd_lattice_census(args) -> dict:
    lat = _load_lattice(args)
    split = eichler.standard_splitting(lat)
    rep = eichler.root_orbit_census(split, args.box)
    return {
        "box": rep.box,
        "classCount": rep.class_count(),
        "classes": [
            {**_invariant_json(entry.invariant), "count": entry.count,
             "witness": _fmt_vec(entry.witness)}
            for entry in rep.entries
        ],
    }


def _cap(args) -> int:
    if args.cap < 1:
        raise UsageError(f"--cap needs a bound >= 1, got {args.cap}")
    return args.cap


def cmd_disc_form(args) -> dict:
    cap = _cap(args)
    lat = _load_lattice(args)
    form = discform.discriminant_form(lat)
    gens = discform.identity_automorphism(form).images
    return {
        "orders": [str(d) for d in form.orders],
        "q": [str(form.q(g)) for g in gens],
        "autOrder": len(discform.enumerate_orth_d(form, cap)) if len(form) <= cap else None,
    }


def cmd_disc_autgroup(args) -> dict:
    cap = _cap(args)
    lat = _load_lattice(args)
    form = discform.discriminant_form(lat)
    auts = discform.enumerate_orth_d(form, cap)
    return {
        "orders": [str(d) for d in form.orders],
        "order": len(auts),
        "automorphisms": [[list(img.coords) for img in a.images] for a in auts],
    }


def cmd_elem_check(args) -> dict:
    lat = _load_lattice(args)
    mat = _parse_mat(_need(_payload(args), "matrix"))
    return membership(lat, mat).to_json()


def cmd_elem_spinor(args) -> dict:
    lat = _load_lattice(args)
    mat = _parse_mat(_need(_payload(args), "matrix"))
    g = Isometry(lat, mat)
    sn = spinor_norm_q(g)
    return {"snQ": str(sn), "snR": 1 if sn > 0 else -1, "det": g.det()}


def cmd_elem_reflect(args) -> dict:
    lat = _load_lattice(args)
    v = _parse_vec(_need(_payload(args), "vector"))
    return {"matrix": _fmt_mat(reflection(lat, v).mat)}


def cmd_elem_transvect(args) -> dict:
    lat = _load_lattice(args)
    data = _payload(args)
    t = transvection(lat, _parse_vec(_need(data, "e")), _parse_vec(_need(data, "a")))
    return {"matrix": _fmt_mat(t.mat)}


def cmd_orbit_equiv(args) -> dict:
    lat = _load_lattice(args)
    split = eichler.standard_splitting(lat)
    data = _payload(args)
    u = _parse_vec(_need(data, "u"))
    v = _parse_vec(_need(data, "v"))
    iu, iv = eichler.invariant_pair(split, u, v)
    return {
        "equivalent": iu.key() == iv.key(),
        "invariantU": _invariant_json(iu),
        "invariantV": _invariant_json(iv),
    }


def cmd_orbit_transport(args) -> dict:
    lat = _load_lattice(args)
    split = eichler.standard_splitting(lat)
    data = _payload(args)
    u = _parse_vec(_need(data, "u"))
    v = _parse_vec(_need(data, "v"))
    # transport_witness raises InternalSolveFailureError unless
    # word.apply(u) == v, so a returned word is verified
    word = eichler.transport_witness(split, u, v)
    return {
        "witness": word.to_json(),
        "atoms": len(word),
        "verified": True,
    }


def cmd_jacobi_embed(args) -> dict:
    from orthlat import jacobi

    lat, split = _jacobi_context(args)
    data = _payload(args)
    if "A" in data:
        iso = jacobi.jacobi_embed(split, _parse_mat(data["A"]))
    elif "u" in data or "v" in data or "z" in data:
        n0 = len(split.l0_indices)
        u = _parse_vec(data.get("u", ["0"] * n0))
        v = _parse_vec(data.get("v", ["0"] * n0))
        z = _parse_scalar(data.get("z", "0"))
        if not isinstance(z, int):
            raise UsageError("z must be an integer")
        iso = jacobi.heis_embed(split, u, v, z)
    else:
        raise UsageError('payload needs "A" or some of "u", "v", "z"')
    return {"matrix": _fmt_mat(iso.mat), "lattice": lattice_to_json(lat)}


def cmd_jacobi_verify(args) -> dict:
    import random

    from orthlat import jacobi

    for t in args.paramodular:
        if t < 1:
            raise UsageError(f"--paramodular needs levels t >= 1, got {t}")
    _, split = _jacobi_context(args)
    rng = random.Random(args.seed)
    n0 = len(split.l0_indices)
    vectors = [[rng.randint(-3, 3) for _ in range(n0)] for _ in range(8)]
    checks = [
        {"name": c.name, "holds": c.holds, "note": c.note}
        for c in jacobi.verify_plane_identities(split, vectors)
    ]
    generators = None
    for t in args.paramodular:
        checks.extend(
            {"name": c.name, "holds": c.holds, "note": c.note}
            for c in jacobi.paramodular_flip_check(t)
        )
        generators = jacobi.stable_group_generators(t)
    out = {"checks": checks, "allPass": all(c["holds"] for c in checks)}
    if generators is not None:
        out["stableGroupGenerators"] = generators
    return out


def cmd_witness_p4(args) -> dict:
    from orthlat import commutators

    _, split = _jacobi_context(args)
    data = _payload(args) if args.json is not None or args.payload_file is not None else {}
    v6 = _parse_vec(data["v6"]) if "v6" in data else None
    return commutators.certificate_p4(split, v6).to_json()


def cmd_witness_transvection(args) -> dict:
    from orthlat import commutators

    _, split = _jacobi_context(args)
    data = _payload(args)
    u = _parse_vec(_need(data, "u"))
    return commutators.certificate_transvection(split, u).to_json()


def cmd_witness_master(args) -> dict:
    from orthlat import commutators

    _, split = _jacobi_context(args)
    data = _payload(args)
    w = _parse_vec(_need(data, "w"))
    s = _parse_scalar(_need(data, "s"))
    holds = commutators.verify_master_identity(split, w, s)
    c = 1 - Fraction(s) * Fraction(split.lattice.norm(w)) / 2
    return {"holds": holds, "scale": str(c * c)}


def cmd_suite_run(args) -> dict:
    from orthlat import suite

    return suite.run_suite(args.seed)


# -- argument parsing --------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # keep argparse's exit code 2, but emit JSON like everything else
        print(json.dumps({"error": "usage", "detail": message}))
        raise SystemExit(2)


# (flag, argparse keyword arguments) of each option, grouped as the
# commands share them
_LATTICE = (("--spec", {"help": 'block spec, e.g. "2U+2E8(-1)+<-6>"'}),
            ("--file", {"help": "lattice JSON file"}))
_PAYLOAD = (("--json", {"help": "inline JSON payload"}),
            ("--payload-file", {"help": "file with the JSON payload"}))
_COMPLEMENT = (("--spec", {"help": "block spec of the small complement, default <-2>"}),)
_BOX = (("--box", {"type": int, "default": 2}),)
_CAP = (("--cap", {"type": int, "default": 10000}),)
_SEED = (("--seed", {"type": int, "default": 0}),)
_PARAMODULAR = (("--paramodular", {"type": int, "nargs": "*", "default": [1, 2, 5]}),)

# (group, command, handler, options), in the order the help lists them
COMMANDS = (
    ("lattice", "info", cmd_lattice_info, _LATTICE),
    ("lattice", "kneser", cmd_lattice_kneser, _LATTICE + _BOX),
    ("lattice", "census", cmd_lattice_census, _LATTICE + _BOX),
    ("disc", "form", cmd_disc_form, _LATTICE + _CAP),
    ("disc", "autgroup", cmd_disc_autgroup, _LATTICE + _CAP),
    ("elem", "check", cmd_elem_check, _LATTICE + _PAYLOAD),
    ("elem", "spinor", cmd_elem_spinor, _LATTICE + _PAYLOAD),
    ("elem", "reflect", cmd_elem_reflect, _LATTICE + _PAYLOAD),
    ("elem", "transvect", cmd_elem_transvect, _LATTICE + _PAYLOAD),
    ("orbit", "equiv", cmd_orbit_equiv, _LATTICE + _PAYLOAD),
    ("orbit", "transport", cmd_orbit_transport, _LATTICE + _PAYLOAD),
    ("jacobi", "embed", cmd_jacobi_embed, _COMPLEMENT + _PAYLOAD),
    ("jacobi", "verify", cmd_jacobi_verify, _COMPLEMENT + _SEED + _PARAMODULAR),
    ("witness", "p4", cmd_witness_p4, _COMPLEMENT + _PAYLOAD),
    ("witness", "transvection", cmd_witness_transvection, _COMPLEMENT + _PAYLOAD),
    ("witness", "master", cmd_witness_master, _COMPLEMENT + _PAYLOAD),
    ("suite", "run", cmd_suite_run, _SEED),
)


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="orthlat", description=__doc__)
    top = root.add_subparsers(dest="group", required=True)
    groups = {}
    for group, name, func, options in COMMANDS:
        if group not in groups:
            groups[group] = top.add_parser(group).add_subparsers(dest="cmd", required=True)
        p = groups[group].add_parser(name)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        result = args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}))
        return 2
    except OrthlatError as exc:
        print(json.dumps({"error": exc.code, "detail": str(exc)}))
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(json.dumps({"error": "invalid-input", "detail": str(exc)}))
        return 1
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
