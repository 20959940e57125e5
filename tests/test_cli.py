import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from orthlat import cli, eichler, isometry
from orthlat.cli import main
from orthlat.lattice import build, lattice_to_json
from orthlat.suite import IDENTITY_LATTICES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# the reflection in (1, -2, 0, 1, 1), of square -10, on 2U+<-6>
_RATIONAL_REFLECTION = json.dumps({"matrix": [
    ["3/5", "1/5", "1/5", "0", "-6/5"], ["4/5", "3/5", "-2/5", "0", "12/5"],
    ["0", "0", "1", "0", "0"], ["-2/5", "1/5", "1/5", "1", "-6/5"],
    ["-2/5", "1/5", "1/5", "0", "-1/5"]]})
# t(e, (0, 0, 1, 2, 1)) on 2U+<-2>
_INTEGRAL_TRANSVECTION = json.dumps({"matrix": [
    ["1", "-1", "-2", "-1", "2"], ["0", "1", "0", "0", "0"], ["0", "1", "1", "0", "0"],
    ["0", "2", "0", "1", "0"], ["0", "1", "0", "0", "1"]]})
_K3 = "2U+2E8(-1)+<-2>"


def _diagonal(*entries) -> str:
    """The diagonal matrix with these entries, as a matrix payload."""
    return json.dumps({"matrix": [[str(x) if i == j else "0" for j in range(len(entries))]
                                  for i, x in enumerate(entries)]})


# -I, and the reflection in the <-6> basis vector h (h -> -h): integral
# isometries that move the generator of D(L)
_MINUS_IDENTITY = _diagonal(*[-1] * 5)
_H_REFLECTION = _diagonal(*[1] * 6, -1)


def _k3_isometry() -> str:
    """An integral isometry of the rank-21 K3 lattice: reflections in
    e + f (spinor norm -1) and in the <-2> generator h, and transvections
    based at e and f, as a matrix payload."""
    lat = build(_K3)
    e, f, e1, f1, r1 = (lat.basis_vector(i) for i in range(5))
    h, r11 = lat.basis_vector(20), lat.basis_vector(12)
    word = isometry.GroupWord(lat, (
        isometry.ReflectionAtom(e + f), isometry.TransvectionAtom(e, e1 + 2 * r1 - h),
        isometry.ReflectionAtom(h), isometry.TransvectionAtom(f, f1 - r1 + r11)))
    return json.dumps({"matrix": [[str(x) for x in row] for row in word.evaluate().mat.int_rows()]})


_K3_ISOMETRY = _k3_isometry()


class TestLattice:
    def test_info(self, capsys):
        code, data = run_json(capsys, "lattice", "info", "--spec", "2U+<-6>")
        assert code == 0
        assert data["rank"] == 5
        assert data["det"] == "-6"
        assert data["signature"] == [2, 3]
        assert data["discOrders"] == ["6"]

    def test_kneser_rank21_family(self, capsys):
        code, data = run_json(capsys, "lattice", "kneser", "--spec", "2U+2E8(-1)+<-6>")
        assert code == 0
        assert data["rank2OK"] and data["rank3OK"] and data["wittOK"]
        assert data["representsMinus2"]["found"]
        assert data["allPass"]

    def test_kneser_paramodular(self, capsys):
        code, data = run_json(capsys, "lattice", "kneser", "--spec", "2U+<-4>")
        assert code == 0
        assert not data["rank2OK"]

    def test_kneser_every_key(self, capsys):
        code, data = run_json(capsys, "lattice", "kneser", "--spec", "2U+<-10>")
        assert code == 0
        assert data == {
            "evenOK": True,
            "wittOK": True,
            "rank2OK": False,
            "rank3OK": True,
            "representsMinus2": {
                "found": True,
                "vector": ["1", "-1", "0", "0", "0"],
                "searchBox": 0,
            },
            "allPass": False,
        }

    def test_census(self, capsys):
        code, data = run_json(capsys, "lattice", "census", "--spec", "2U+<-2>",
                              "--box", "2")
        assert code == 0
        assert data["classCount"] == 2
        assert sum(c["count"] for c in data["classes"]) == 358

    def test_census_negative_box_is_empty(self, capsys):
        code, data = run_json(capsys, "lattice", "census", "--spec", "2U+A2", "--box", "-1")
        assert code == 0
        assert data == {"box": -1, "classCount": 0, "classes": []}

    def test_census_box_zero(self, capsys):
        code, data = run_json(capsys, "lattice", "census", "--spec", "2U+<-2>", "--box", "0")
        assert code == 0
        assert data == {"box": 0, "classCount": 0, "classes": []}

    def test_census_rank21_too_large(self, capsys):
        code, data = run_json(capsys, "lattice", "census", "--spec", "2U+2E8(-1)+<-6>",
                              "--box", "1")
        assert code == 1
        assert data["error"] == "too-large"

    @pytest.mark.parametrize("cmd", ["form", "autgroup"])
    def test_disc_search_over_budget_too_large(self, capsys, cmd):
        # |D| = 256 passes --cap, but O(D) is O+(8, 2), of order 348,364,800
        code, data = run_json(capsys, "disc", cmd, "--spec", "2U+E8(-2)")
        assert code == 1
        assert data["error"] == "too-large"

    def test_kneser_rank21_file_too_large(self, capsys, tmp_path, skewed):
        # in this basis no two basis vectors span a plane and the diagonal
        # is -4, 0 and -6, so the root search has to enumerate the box
        path = tmp_path / "rank21.json"
        path.write_text(json.dumps(lattice_to_json(skewed(build("2U+2E8(-2)+<-6>"), "r1", "r2"))))
        code, data = run_json(capsys, "lattice", "kneser", "--file", str(path), "--box", "2")
        assert code == 1
        assert data["error"] == "too-large"

    def test_kneser_rank21_file_answers_from_its_plane(self, capsys, tmp_path):
        code, data = run_json(capsys, "lattice", "info", "--spec", "2U+2E8(-2)+<-6>")
        path = tmp_path / "rank21.json"
        path.write_text(json.dumps(data))
        code, data = run_json(capsys, "lattice", "kneser", "--file", str(path), "--box", "2")
        assert code == 0
        assert data["representsMinus2"] == {"found": True, "searchBox": 0,
                                            "vector": ["1", "-1"] + ["0"] * 19}

    def test_kneser_file_root_from_the_box_search(self, capsys, tmp_path):
        # no plane and no -2 on the diagonal: the root comes from the box
        path = tmp_path / "rank2.json"
        path.write_text(json.dumps({"gram": [["2", "3"], ["3", "2"]]}))
        code, data = run_json(capsys, "lattice", "kneser", "--file", str(path), "--box", "1")
        assert code == 0
        assert data["representsMinus2"] == {"found": True, "searchBox": 1,
                                            "vector": ["-1", "1"]}

    def test_census_file_planes_off_the_basis_missing_splitting(self, capsys, tmp_path,
                                                                skewed):
        # finding a plane that no two basis vectors span is left open
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(lattice_to_json(skewed(build("2U+A2"), "a", "b"))))
        code, data = run_json(capsys, "lattice", "census", "--file", str(path), "--box", "1")
        assert code == 1
        assert data == {"error": "missing-splitting",
                        "detail": "lattice has no unimodular hyperbolic block"}

    def test_round_trip_through_file(self, capsys, tmp_path):
        code, data = run_json(capsys, "lattice", "info", "--spec", "2U+A2(-1)")
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(data))
        code2, data2 = run_json(capsys, "lattice", "info", "--file", str(path))
        assert code2 == 0
        assert data2 == data


    @pytest.mark.parametrize("payload", [
        [[0, 1], [1, 0]],
        {"gram": 5},
        {"gram": [5, 6]},
        {"gram": [[None, "1"], ["1", "0"]]},
        {"gram": [[0.9, "1"], ["1", "0"]]},
        {"gram": [["0", "1/2"], ["1/2", "0"]]},
        {"gram": [["0", "1/0"], ["1/0", "0"]]},
        {"gram": [["0", "1"], ["1", "0"]], "labels": 7},
        {"gram": [["0", "1"], ["1", "0"]], "labels": ["a"]},
        {"gram": [["0", "1"], ["1", "0"]], "labels": ["a", 3]},
    ], ids=["top-level-list", "gram-int", "gram-rows-int", "entry-null", "entry-float",
            "entry-non-integral", "entry-zero-denominator",
            "labels-int", "labels-short", "labels-not-strings"])
    def test_malformed_file_is_invalid_input(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, "lattice", "info", "--file", str(path))
        assert code == 1
        assert data["error"] == "invalid-input"

    @pytest.mark.parametrize("command", ["info", "kneser", "census"])
    def test_empty_gram_is_invalid_input(self, capsys, tmp_path, command):
        """A rank-0 lattice is refused when the file is read, before the
        command runs on it."""
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"gram": []}))
        code, data = run_json(capsys, "lattice", command, "--file", str(path))
        assert code == 1
        assert data == {"error": "invalid-input", "detail": "Gram matrix must not be empty"}

    def test_file_labels_null_means_default(self, capsys, tmp_path):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"gram": [["0", "1"], ["1", "0"]], "labels": None}))
        code, data = run_json(capsys, "lattice", "info", "--file", str(path))
        assert code == 0
        assert data["labels"] == ["b0", "b1"]

class TestDisc:
    def test_form(self, capsys):
        code, data = run_json(capsys, "disc", "form", "--spec", "2U+<-6>")
        assert code == 0
        assert data == {"orders": ["6"], "q": ["11/6"], "autOrder": 2}

    def test_autgroup(self, capsys):
        code, data = run_json(capsys, "disc", "autgroup", "--spec", "2U+<-12>")
        assert code == 0
        assert data["order"] == 4

    @pytest.mark.parametrize("cmd", ["form", "autgroup"])
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_usage_error(self, capsys, cmd, cap):
        # a cap below 1 used to answer "autOrder": null, as if the search had hit it
        code, data = run_json(capsys, "disc", cmd, "--spec", "2U+<-6>", "--cap", cap)
        assert (code, data) == (2, {"error": "usage",
                                    "detail": f"--cap needs a bound >= 1, got {cap}"})

    def test_form_respects_cap(self, capsys):
        code, data = run_json(capsys, "disc", "form", "--spec", "<-2000>",
                              "--cap", "100")
        assert code == 0
        assert data["orders"] == ["2000"]
        assert data["autOrder"] is None


class TestElem:
    def test_check_identity(self, capsys):
        code, data = run_json(capsys, "elem", "check", "--spec", "U",
                              "--json", '{"matrix": [["1","0"],["0","1"]]}')
        assert code == 0
        assert all(data.values())

    def test_check_non_isometry(self, capsys):
        code, data = run_json(capsys, "elem", "check", "--spec", "U",
                              "--json", '{"matrix": [["2","0"],["0","1"]]}')
        assert code == 0
        assert not any(data.values())

    def test_spinor(self, capsys):
        code, data = run_json(capsys, "elem", "spinor", "--spec", "2U+<-2>",
                              "--json", json.dumps({"matrix": [
                                  ["0", "1", "0", "0", "0"],
                                  ["1", "0", "0", "0", "0"],
                                  ["0", "0", "1", "0", "0"],
                                  ["0", "0", "0", "1", "0"],
                                  ["0", "0", "0", "0", "1"]]}))
        assert code == 0
        assert data == {"snQ": "1", "snR": 1, "det": -1}

    def test_reflect_and_transvect_round_trip(self, capsys):
        code, data = run_json(capsys, "elem", "reflect", "--spec", "U",
                              "--json", '{"vector": ["1","-1"]}')
        assert code == 0
        assert data["matrix"] == [["0", "1"], ["1", "0"]]
        code, data = run_json(capsys, "elem", "transvect", "--spec", "2U",
                              "--json", '{"e": ["1","0","0","0"], "a": ["0","0","1","0"]}')
        assert code == 0
        code2, flags = run_json(capsys, "elem", "check", "--spec", "2U",
                                "--json", json.dumps({"matrix": data["matrix"]}))
        assert code2 == 0 and flags["inStableSOplus"]

    def test_rational_matrix_input(self, capsys):
        code, data = run_json(capsys, "elem", "check", "--spec", "U",
                              "--json", '{"matrix": [["1/2","0"],["0","2"]]}')
        assert code == 0
        assert not any(data.values())

    def test_spinor_decomposes_once(self, capsys, monkeypatch):
        calls = []
        real = isometry.cartan_dieudonne

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(isometry, "cartan_dieudonne", counted)
        code, data = run_json(capsys, "elem", "spinor", "--spec", "2U+<-6>",
                              "--json", _RATIONAL_REFLECTION)
        assert code == 0
        assert data == {"snQ": "5", "snR": 1, "det": -1}
        assert len(calls) == 1

    def test_spinor_rejects_non_isometry(self, capsys):
        code, data = run_json(capsys, "elem", "spinor", "--spec", "U",
                              "--json", '{"matrix": [["2","0"],["0","1"]]}')
        assert code == 1
        assert data["error"] == "not-isometry"


class TestOrbit:
    def test_equiv(self, capsys):
        code, data = run_json(capsys, "orbit", "equiv", "--spec", "2U+<-2>",
                              "--json", '{"u": ["1","0","0","0","0"], "v": ["0","1","0","0","0"]}')
        assert code == 0
        assert data["equivalent"] is True
        assert data["invariantU"]["divisor"] == "1"

    def test_equiv_computes_each_invariant_once(self, capsys, monkeypatch):
        calls = []
        real = eichler.orbit_invariant

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(eichler, "orbit_invariant", counted)
        code, data = run_json(capsys, "orbit", "equiv", "--spec", "2U+A2",
                              "--json", '{"u": ["1","-1","0","0","0","0"], '
                                        '"v": ["0","0","1","-1","0","0"]}')
        assert code == 0
        assert data["equivalent"] is True
        assert len(calls) == 2

    def test_transport(self, capsys):
        code, data = run_json(capsys, "orbit", "transport", "--spec", "2U+<-2>",
                              "--json", '{"u": ["1","-1","0","0","0"], "v": ["0","0","1","-1","0"]}')
        assert code == 0
        assert data["verified"] is True
        assert all(atom["type"] == "transvection" for atom in data["witness"])

    @pytest.mark.parametrize("n", [10 ** 5, int("1234567890" * 10)])
    def test_transport_adversarial_plane_entries(self, capsys, n):
        """Plane entries (-n, 2n - 1) once drove the reducer's Euclid one
        step at a time, about 8 n atoms; it is logarithmic in n."""
        pair = {"u": [str(x) for x in (0, -n, 2 * n - 1, 1, 0)],
                "v": [str(x) for x in (0, 0, -1, -(2 * n - 1), 0)]}
        code, data = run_json(capsys, "orbit", "transport", "--spec", "2U+<-2>",
                              "--json", json.dumps(pair))
        assert code == 0
        assert data["verified"] is True
        assert data["atoms"] == 12

    @pytest.mark.parametrize("cmd", ["equiv", "transport"])
    def test_rational_vector_not_primitive(self, capsys, cmd):
        code, data = run_json(capsys, "orbit", cmd, "--spec", "2U+<-2>",
                              "--json", '{"u": ["1/2","0","0","0","0"], "v": ["1","0","0","0","0"]}')
        assert code == 1
        assert data == {"error": "not-primitive",
                        "detail": "equivalence applies to primitive vectors"}

    @pytest.mark.parametrize("cmd", ["equiv", "transport"])
    @pytest.mark.parametrize("v", [["2", "0", "0", "0", "2"], ["0", "0", "0", "0", "0"]],
                             ids=["imprimitive", "zero"])
    def test_integral_vector_not_primitive(self, capsys, cmd, v):
        code, data = run_json(capsys, "orbit", cmd, "--spec", "2U+<-2>",
                              "--json", json.dumps({"u": ["1", "0", "0", "0", "0"], "v": v}))
        assert code == 1
        assert data == {"error": "not-primitive",
                        "detail": "equivalence applies to primitive vectors"}

    def test_transport_refuses(self, capsys):
        code, data = run_json(capsys, "orbit", "transport", "--spec", "2U+<-2>",
                              "--json", '{"u": ["1","-1","0","0","0"], "v": ["0","0","0","0","1"]}')
        assert code == 1
        assert data["error"] == "equivalence-fails"

    @pytest.mark.parametrize("spec, detail", [
        ("U+A2", "a second hyperbolic plane is required"),
        ("A2", "lattice has no unimodular hyperbolic block"),
    ])
    @pytest.mark.parametrize("argv", [
        ["lattice", "census", "--box", "2"],
        ["orbit", "equiv", "--json", '{"u": ["1","-1","0","0"], "v": ["1","-1","0","0"]}'],
        ["orbit", "transport", "--json", '{"u": ["1","-1","0","0"], "v": ["1","-1","0","0"]}'],
        ["orbit", "equiv", "--json", "{not json"],
        ["orbit", "transport", "--json", '{"u": ["1","-1","0","0"]}'],
    ], ids=["census", "equiv", "transport", "equiv-malformed", "transport-missing-v"])
    def test_splitting_checked_before_payload(self, capsys, argv, spec, detail):
        # a splitting needs two planes, and is built before the payload is read
        code, data = run_json(capsys, *argv, "--spec", spec)
        assert code == 1
        assert data == {"error": "missing-splitting", "detail": detail}


class TestJacobiWitness:
    def test_embed_a(self, capsys):
        code, data = run_json(capsys, "jacobi", "embed", "--spec", "<-2>",
                              "--json", '{"A": [["1","1"],["0","1"]]}')
        assert code == 0
        assert len(data["matrix"]) == 5

    def test_embed_heisenberg(self, capsys):
        code, data = run_json(capsys, "jacobi", "embed", "--spec", "A2",
                              "--json", '{"u": ["1","0"], "v": ["0","-1"], "z": "2"}')
        assert code == 0
        assert len(data["matrix"]) == 6

    def test_embed_integral_fraction_z(self, capsys):
        # "4/2" is the integer 2, not a non-integral z
        argv = ["jacobi", "embed", "--spec", "A2", "--json"]
        want = run_cli(capsys, *argv, '{"u": ["1","0"], "v": ["0","1"], "z": "2"}')
        got = run_cli(capsys, *argv, '{"u": ["1","0"], "v": ["0","1"], "z": "4/2"}')
        assert want[0] == 0
        assert got == want

    def test_embed_output_round_trips_into_check(self, capsys, tmp_path):
        code, data = run_json(capsys, "jacobi", "embed", "--spec", "A2",
                              "--json", '{"u": ["2","-1"], "v": ["0","1"], "z": "-1"}')
        assert code == 0
        lat_file = tmp_path / "jacobi.json"
        lat_file.write_text(json.dumps(data["lattice"]))
        code2, flags = run_json(capsys, "elem", "check", "--file", str(lat_file),
                                "--json", json.dumps({"matrix": data["matrix"]}))
        assert code2 == 0
        assert flags["inStableSOplus"]

    @pytest.mark.parametrize("payload", [
        '{"A": [["1","1"],["0","1"]], "z": "1"}',
        '{"A": [["1","1"],["0","1"]], "u": ["1"], "v": ["0"]}',
        "{}"])
    def test_embed_needs_one_payload_form(self, capsys, payload):
        code, data = run_json(capsys, "jacobi", "embed", "--spec", "<-2>", "--json", payload)
        assert code == 2
        assert data == {"error": "usage",
                        "detail": 'payload needs either "A" or some of "u", "v", "z", not both'}

    def test_verify(self, capsys):
        code, data = run_json(capsys, "jacobi", "verify", "--spec", "<-2>",
                              "--paramodular", "1", "5")
        assert code == 0
        assert data["allPass"]
        assert data["stableGroupGenerators"]["extra"] == "sigma_(e1-f1)"

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_verify_refuses_level_below_one(self, capsys, t):
        # t = -1 would build 2U+<2>, which is not in the family 2U+<-2t>
        code, data = run_json(capsys, "jacobi", "verify", "--paramodular", "1", t)
        assert (code, data) == (2, {"error": "usage",
                                    "detail": f"--paramodular needs levels t >= 1, got {t}"})

    def test_witness_p4(self, capsys):
        code, data = run_json(capsys, "witness", "p4", "--spec", "<-2>")
        assert code == 0
        assert data["verified"] is True
        assert len(data["word"]) == 4

    def test_witness_transvection(self, capsys):
        code, data = run_json(capsys, "witness", "transvection", "--spec", "<-2>",
                              "--json", '{"u": ["0","1","0","0","0"]}')
        assert code == 0
        assert data["verified"] is True
        assert len(data["commutators"]) == 1

    @pytest.mark.parametrize("argv, error, detail", [
        # square 6, but pairs 1 with e
        (["p4", "--json", '{"v6": ["1","1","0","2","1"]}'],
         "not-orthogonal", "the vector must be orthogonal to U"),
        (["transvection", "--json", '{"u": ["0","1","0","0","1"]}'],
         "not-orthogonal", "u must be orthogonal to e"),
        # square 8 and not orthogonal to U: the square is checked first
        (["p4", "--json", '{"v6": ["1","1","0","2","2"]}'],
         "wrong-norm", "the certificate needs a vector of square 6")])
    def test_witness_refuses(self, capsys, argv, error, detail):
        code, data = run_json(capsys, "witness", *argv[:1], "--spec", "<-2>", *argv[1:])
        assert code == 1
        assert data == {"error": error, "detail": detail}

    @pytest.mark.parametrize("argv", [
        ["witness", "p4"], ["witness", "transvection", "--json", '{"u": ["0","1","0","0","0"]}']])
    def test_witness_evaluates_its_word_once(self, capsys, evaluations, argv):
        code, data = run_json(capsys, *argv)
        assert code == 0 and data["verified"] is True
        assert evaluations == {"verify": 1, "evaluate": 1}

    def test_witness_master(self, capsys):
        code, data = run_json(capsys, "witness", "master", "--spec", "<-2>",
                              "--json", '{"w": ["0","1","1","0","0"], "s": "1"}')
        assert code == 0
        assert data["holds"] is True

    def test_witness_master_singular_scale(self, capsys):
        # w = e1 + f1 has square 2, so s = 1 makes the scale vanish
        code, data = run_json(capsys, "witness", "master", "--spec", "<-2>",
                              "--json", '{"w": ["0","1","0","1","0"], "s": "1"}')
        assert code == 1
        assert data["error"] == "singular-scale"


class TestSuiteAndErrors:
    def test_suite_deterministic(self, capsys):
        code1, out1 = run_cli(capsys, "suite", "run", "--seed", "42")
        code2, out2 = run_cli(capsys, "suite", "run", "--seed", "42")
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["allPass"]

    def test_domain_error_exit_1(self, capsys):
        code, data = run_json(capsys, "elem", "reflect", "--spec", "U",
                              "--json", '{"vector": ["1","0"]}')
        assert code == 1
        assert data["error"] == "isotropic-mirror"

    def test_bad_spec_exit_1(self, capsys):
        code, data = run_json(capsys, "lattice", "info", "--spec", "wat")
        assert code == 1
        assert data["error"] == "bad-spec"

    def test_malformed_payload_exit_2(self, capsys):
        code, data = run_json(capsys, "elem", "check", "--spec", "U",
                              "--json", "{not json")
        assert code == 2
        assert data["error"] == "usage"

    @pytest.mark.parametrize("command", ["p4", "transvection"])
    def test_empty_payload_exit_2(self, capsys, command):
        """An empty --json is a malformed payload, not an absent one."""
        code, data = run_json(capsys, "witness", command, "--json", "")
        assert code == 2
        assert data["error"] == "usage"
        assert data["detail"].startswith("malformed JSON payload")

    def test_missing_payload_exit_2(self, capsys):
        code, data = run_json(capsys, "elem", "check", "--spec", "U")
        assert code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        code, _ = run_cli(capsys, "lattice", "frobnicate")
        assert code == 2

    def test_missing_payload_key_exit_2(self, capsys):
        code, data = run_json(capsys, "orbit", "equiv", "--spec", "2U+<-2>",
                              "--json", '{"u": ["1","0","0","0","0"]}')
        assert code == 2


# -- golden stdout ------------------------------------------------------
#
# Exit code and sha256 of stdout for a fixed command list, recorded
# before vectors took the numerator/denominator representation of
# matrices; any change to a printed byte fails here.

GOLDEN = [
    pytest.param(["suite", "run", "--seed", "42"], 0,
                 "4131d9af075bec3a79835287f94b8548cf6792176ab92fa0ffbf3d9244dcaed3",
                 id="suite-run"),
    # recorded before the suite's relations shared one trial runner and
    # the commutator certificates one constructor
    pytest.param(["suite", "run", "--seed", "1"], 0,
                 "f6f3e0f7b1c25cb12f62c7351fd1735c0c7118310e6996c0c341b0fc621855c8",
                 id="suite-run-seed-1"),
    pytest.param(["suite", "run", "--seed", "7"], 0,
                 "1b9d2bdf1e9ee06200754d17175fb00b4af0e8dd3070bcedf38a6479cae08c8f",
                 id="suite-run-seed-7"),
    pytest.param(["witness", "p4"], 0,
                 "300f73ef07a8af6aa018ec513c59e50ec536c228625af2f970dfed932ae07e34",
                 id="witness-p4"),
    pytest.param(["witness", "transvection", "--json", '{"u": ["0","1","0","0","0"]}'], 0,
                 "f2997438c80a432a4ffdedbd466eb0e720a987fcb1df5bc8dc0994378280c905",
                 id="witness-transvection"),
    pytest.param(["jacobi", "verify"], 0,
                 "82a4acabd705af59ced85c31c136b24346e23825a0b76535e28cefa4e362dad0",
                 id="jacobi-verify"),
    pytest.param(["lattice", "census", "--spec", "2U+A2", "--box", "3"], 0,
                 "02669fe26aa22d22edddaab6e1c81e6dd966864c53df127ad72d3a2b5ad986e0",
                 id="census-2U+A2"),
    pytest.param(["lattice", "census", "--spec", "2U+A2(-3)+<-6>", "--box", "2"], 0,
                 "4069253c4f8cfc639fd9c71c409a95ca6d870e4ab1235aca42381977c0570be5",
                 id="census-2U+A2(-3)+<-6>"),
    pytest.param(["lattice", "info", "--spec", "2U+A2(-3)+<-6>"], 0,
                 "3c982638647fefaf42a9f104cfc72b718e5e7eaa82b19a2513a68ad08c40f6c9",
                 id="info"),
    pytest.param(["lattice", "kneser", "--spec", "2U+<-10>"], 0,
                 "16d5e3eec8752f717c9efbe8d80d5fc3fd45d88840319c462108d881c1cf745d",
                 id="kneser"),
    pytest.param(["disc", "form", "--spec", "2U+<-6>+A2"], 0,
                 "cf51a5092c7e0180eb2f8509908ab5077f99e99848c312d98d4168241f71388e",
                 id="disc-form"),
    pytest.param(["disc", "autgroup", "--spec", "2U+<-12>"], 0,
                 "4e93da5501ac30d47359327646218863df33de0e80715f9ea160e812c5f30aa6",
                 id="autgroup-2U+<-12>"),
    pytest.param(["disc", "autgroup", "--spec", "2U+A2"], 0,
                 "b1201b492c232d21137a2ac08aa8fa68bd78259882269570e58c334732127672",
                 id="autgroup-2U+A2"),
    pytest.param(["disc", "form", "--spec", "2U+2A2(-3)"], 0,
                 "320d96d092224e22ce6a8837358f77a9657c057617fa287902d08243cca8d08e",
                 id="disc-form-2U+2A2(-3)"),
    pytest.param(["disc", "autgroup", "--spec", "2U+A2(-3)+<-6>"], 0,
                 "79585154417415a454c8fc992f1b2d51d86b2aefb32e6f44b42aea7be1bb388a",
                 id="autgroup-2U+A2(-3)+<-6>"),
    pytest.param(["disc", "autgroup", "--spec", "2U+<-6>+A2(-3)+<-4>"], 0,
                 "c8a6654ee963d238e7475ede990e51741b9c1a92851773652a1196f08c978b1c",
                 id="autgroup-2U+<-6>+A2(-3)+<-4>"),
    pytest.param(["orbit", "transport", "--spec", "2U+<-2>", "--json",
                  '{"u": ["1","-1","0","0","0"], "v": ["0","0","1","-1","0"]}'], 0,
                 "ccf9ece8183b6f93a9b03dc34d6efdfbee1ce6b3f475f1ec74a6c93170f1f566",
                 id="transport-2U+<-2>"),
    pytest.param(["orbit", "transport", "--spec", "2U+<-10>", "--json",
                  '{"u": ["-3","-2","1","-2","1"], "v": ["3","2","1","-2","1"]}'], 0,
                 "570db98d37361b98a26b2dd61bd5dd963dd8de6502f285ca2a5cda570e0bdc87",
                 id="transport-2U+<-10>"),
    pytest.param(["orbit", "transport", "--spec", "2U+<-10>", "--json",
                  '{"u": ["3","-2","5","1","1"], "v": ["1","-1","0","0","0"]}'], 1,
                 "53c2bc11c6052d412689dfc8c3257c7610057587f0706d732fe79c93241b152d",
                 id="transport-refused"),
    pytest.param(["elem", "transvect", "--spec", "2U+A2", "--json",
                  '{"e": ["1","0","0","0","0","0"], "a": ["1/3","0","1/2","-2/3","1","0"]}'], 0,
                 "850f7ff333efe499806b225fc986b340b403657b777b0d514a3d46191ef0cb08",
                 id="transvect-rational"),
    pytest.param(["elem", "reflect", "--spec", "2U+<-6>", "--json",
                  '{"vector": ["1","-2","0","1","1"]}'], 0,
                 "f7c195d1dff7ee64532729e42a86e166072557c7d015d62cd44a78c35d0d1441",
                 id="reflect-rational"),
    pytest.param(["elem", "reflect", "--spec", "U", "--json", '{"vector": ["1","-1"]}'], 0,
                 "47e90f9b761bdfecde9a8c3b5f6fd0e178c18315ad12b532b0c7f8c55005641c",
                 id="reflect-U"),
    pytest.param(["witness", "master", "--spec", "<-2>", "--json",
                  '{"w": ["0","1","1","0","0"], "s": "2/3"}'], 0,
                 "206ee9aae9f9d1026228d6cd68ea10f00db02f7311ab29564f42ca12ea6f7d2a",
                 id="master-s=2/3"),
    pytest.param(["jacobi", "embed", "--spec", "A2", "--json",
                  '{"u": ["2","-1"], "v": ["0","1"], "z": "-1"}'], 0,
                 "b01d122aa1862e7ccc806812958ada76911d93d645807e47b84ebc38bd945440",
                 id="jacobi-embed"),
    pytest.param(["jacobi", "embed", "--spec", "A2", "--json",
                  '{"u": ["1/2","0"], "v": ["0","1"], "z": "0"}'], 1,
                 "4306fbe5b7215c596e96e0f4f8b8df7c33f2ad5f936d116c15d03fa383b8c57a",
                 id="jacobi-embed-non-integral"),
    pytest.param(["elem", "spinor", "--spec", "2U+<-6>", "--json", _RATIONAL_REFLECTION], 0,
                 "262c93fb0a6e055aeefb1b8958f46f3cd3495a1519d3144ea53d9e0c360906d9",
                 id="spinor-rational"),
    pytest.param(["elem", "spinor", "--spec", "2U+<-2>", "--json", _INTEGRAL_TRANSVECTION], 0,
                 "64f77f4ba50a7f9a78e968ce5c576c99fcca3d4f5388a0ecce6658e8fd0852a1",
                 id="spinor-integral"),
    pytest.param(["elem", "check", "--spec", "2U+<-2>", "--json", _INTEGRAL_TRANSVECTION], 0,
                 "34939e415f70ae20338d267bb4ba5ffbc158f53b7ff660d906e84e3c81939234",
                 id="check-integral"),
    pytest.param(["elem", "check", "--spec", "2U+<-6>", "--json", _RATIONAL_REFLECTION], 0,
                 "286256ae4c3a5ca441df6fa651ff7f6996fddf8af1b36ee7c3e26a71f5c544b2",
                 id="check-rational"),
    # recorded before is_stable read the induced map on D(L): in O(L)
    # and not in the stable group
    pytest.param(["elem", "check", "--spec", "2U+<-6>", "--json", _MINUS_IDENTITY], 0,
                 "3cf0a684502df23252545a82fcc308e71d797bb01e4d8607ed16fa7fc74e70cb",
                 id="check-minus-identity"),
    pytest.param(["elem", "check", "--spec", "2U+A2(-3)+<-6>", "--json", _H_REFLECTION], 0,
                 "3cf0a684502df23252545a82fcc308e71d797bb01e4d8607ed16fa7fc74e70cb",
                 id="check-h-reflection"),
    # recorded before cartan_dieudonne folded its mirrors in by rank updates
    pytest.param(["elem", "check", "--spec", _K3, "--json", _K3_ISOMETRY], 0,
                 "5b9a6080f8888ce75b7fdfd6f57ce904bbe2aedd4ce5c9de2e606014948312bd",
                 id="check-k3"),
    pytest.param(["elem", "spinor", "--spec", _K3, "--json", _K3_ISOMETRY], 0,
                 "8f51ea49f029a2ffdf2fba980c9e71da19b8821aa99b3beb5e411d16c0e31e5d",
                 id="spinor-k3"),
    # recorded before congruence_diagonalize ran on Vec columns: the
    # signature at rank 21, and a Gram matrix with no nonzero diagonal
    # entry, where every pivot comes from the hyperbolic step
    pytest.param(["lattice", "info", "--spec", "2U+2E8(-1)+<-2>"], 0,
                 "f17c2378cccb4f56b33e0413fd33798a3432a8a325a4c1abadbdd4040e488ca4",
                 id="info-k3"),
    pytest.param(["lattice", "info", "--spec", "2U+U(3)"], 0,
                 "b26099d1a2d56fa6ca8613d15ab31e2f77e9d9586b7538c5024f81c0247e16f3",
                 id="info-2U+U(3)"),
    pytest.param(["lattice", "kneser", "--spec", "2U+2E8(-1)+<-6>"], 0,
                 "a52d5a1ef0831a13fe0eb00db4b4f95c13a8c4cb861c9610994fd2d8c5aac3b8",
                 id="kneser-k3-<-6>"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN)
def test_golden_stdout(capsys, argv, code, digest):
    got, out = run_cli(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# -- --file round trip --------------------------------------------------
#
# The lattice info output of a spec, read back with --file, is the same
# Gram matrix, so every command that reads the lattice prints the same
# bytes: its hyperbolic planes come from the Gram matrix either way.

ROUND_TRIP_SPECS = sorted({argv[argv.index("--spec") + 1] for argv, _, _ in
                           (p.values for p in GOLDEN) if "--spec" in argv}
                          | set(IDENTITY_LATTICES))


def _round_trip_commands(spec):
    n = build(spec).rank
    pair = json.dumps({"u": [str(x) for x in ([1, -1] + [0] * n)[:n]],
                       "v": [str(x) for x in ([0, 0, 1, -1] + [0] * n)[:n]]})
    return [["lattice", "census", "--box", "2"], ["lattice", "kneser", "--box", "1"],
            ["orbit", "equiv", "--json", pair], ["orbit", "transport", "--json", pair]]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
def test_file_round_trip_byte_identical(capsys, tmp_path, spec):
    code, info = run_cli(capsys, "lattice", "info", "--spec", spec)
    assert code == 0
    path = tmp_path / "lat.json"
    path.write_text(info)
    for argv in _round_trip_commands(spec):
        assert run_cli(capsys, *argv, "--spec", spec) == run_cli(capsys, *argv, "--file", str(path))


# -- the command table ----------------------------------------------------
#
# Each command's option flags with their defaults and its handler, as the
# hand-built parser had them; help bytes differ across Python versions,
# so the parsed structure is compared instead.

_LATTICE_OPTS = {"--spec": None, "--file": None}
_PAYLOAD_OPTS = {"--json": None, "--payload-file": None}
_COMPLEMENT_OPTS = {"--spec": None}
PARSER_COMMANDS = [
    ("lattice", "info", "cmd_lattice_info", _LATTICE_OPTS),
    ("lattice", "kneser", "cmd_lattice_kneser", {**_LATTICE_OPTS, "--box": 2}),
    ("lattice", "census", "cmd_lattice_census", {**_LATTICE_OPTS, "--box": 2}),
    ("disc", "form", "cmd_disc_form", {**_LATTICE_OPTS, "--cap": 10000}),
    ("disc", "autgroup", "cmd_disc_autgroup", {**_LATTICE_OPTS, "--cap": 10000}),
    ("elem", "check", "cmd_elem_check", {**_LATTICE_OPTS, **_PAYLOAD_OPTS}),
    ("elem", "spinor", "cmd_elem_spinor", {**_LATTICE_OPTS, **_PAYLOAD_OPTS}),
    ("elem", "reflect", "cmd_elem_reflect", {**_LATTICE_OPTS, **_PAYLOAD_OPTS}),
    ("elem", "transvect", "cmd_elem_transvect", {**_LATTICE_OPTS, **_PAYLOAD_OPTS}),
    ("orbit", "equiv", "cmd_orbit_equiv", {**_LATTICE_OPTS, **_PAYLOAD_OPTS}),
    ("orbit", "transport", "cmd_orbit_transport", {**_LATTICE_OPTS, **_PAYLOAD_OPTS}),
    ("jacobi", "embed", "cmd_jacobi_embed", {**_COMPLEMENT_OPTS, **_PAYLOAD_OPTS}),
    ("jacobi", "verify", "cmd_jacobi_verify",
     {**_COMPLEMENT_OPTS, "--seed": 0, "--paramodular": [1, 2, 5]}),
    ("witness", "p4", "cmd_witness_p4", {**_COMPLEMENT_OPTS, **_PAYLOAD_OPTS}),
    ("witness", "transvection", "cmd_witness_transvection",
     {**_COMPLEMENT_OPTS, **_PAYLOAD_OPTS}),
    ("witness", "master", "cmd_witness_master", {**_COMPLEMENT_OPTS, **_PAYLOAD_OPTS}),
    ("suite", "run", "cmd_suite_run", {"--seed": 0}),
]


@pytest.mark.parametrize("group, command, handler, options", PARSER_COMMANDS,
                         ids=[f"{g}-{c}" for g, c, _, _ in PARSER_COMMANDS])
def test_command_table(capsys, group, command, handler, options):
    args = cli.build_parser().parse_args([group, command])
    assert vars(args) == {"group": group, "cmd": command, "func": getattr(cli, handler),
                          **{flag[2:].replace("-", "_"): d for flag, d in options.items()}}
    code, out = run_cli(capsys, group, command, "-h")
    assert code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == {"--help", *options}


# main reuses one parser per process; a call leaves nothing in it that
# the next call sees, a usage error included
REPEATED_CALLS = [
    (["lattice", "census", "--spec", "2U+<-2>", "--box", "1"], 0),
    (["lattice", "census", "--spec", "2U+<-2>"], 0),
    (["lattice", "census", "--box", "x"], 2),
    (["witness"], 2),
    (["suite", "run", "--seed", "3", "--cap", "1"], 2),
    (["disc", "form", "--spec", "2U+<-6>", "--cap", "0"], 2),
]


def test_parser_is_built_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    first = [run_cli(capsys, *argv) for argv, _ in REPEATED_CALLS]
    assert [code for code, _ in first] == [code for _, code in REPEATED_CALLS]
    assert first[0] != first[1]
    assert [run_cli(capsys, *argv) for argv, _ in reversed(REPEATED_CALLS)] == first[::-1]


# -- cold start -------------------------------------------------------------
#
# Each command imports only what it runs: the jacobi, witness and suite
# commands load their modules on first use, and no record class pulls
# in dataclasses (and with it inspect). The interpreters run with -S, so
# that no .pth file of the site packages preloads a module.

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY_MODULES = ("dataclasses", "orthlat.commutators", "orthlat.jacobi", "orthlat.suite")


def test_cold_import_loads_no_command_only_module(capsys):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, orthlat.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-S", "-c", probe, *LAZY_MODULES], env=env,
                            capture_output=True, text=True, check=True)
    assert loaded.stdout == "[]\n"
    argv = ["lattice", "info", "--spec", "U"]
    cold = subprocess.run([sys.executable, "-S", "-m", "orthlat", *argv], env=env,
                          capture_output=True, check=True)
    code, out = run_cli(capsys, *argv)
    assert code == 0 and cold.stdout == out.encode()
