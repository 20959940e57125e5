import json

import pytest

from orthlat.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


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

    def test_kneser_rank21_file_too_large(self, capsys, tmp_path):
        # a --file lattice has no blocks, and this one no -2 on the
        # diagonal, so the root search has to enumerate the box
        code, data = run_json(capsys, "lattice", "info", "--spec", "2U+2E8(-2)+<-6>")
        path = tmp_path / "rank21.json"
        path.write_text(json.dumps(data))
        code, data = run_json(capsys, "lattice", "kneser", "--file", str(path), "--box", "2")
        assert code == 1
        assert data["error"] == "too-large"

    def test_round_trip_through_file(self, capsys, tmp_path):
        code, data = run_json(capsys, "lattice", "info", "--spec", "2U+A2(-1)")
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(data))
        code2, data2 = run_json(capsys, "lattice", "info", "--file", str(path))
        assert code2 == 0
        assert data2 == data


class TestDisc:
    def test_form(self, capsys):
        code, data = run_json(capsys, "disc", "form", "--spec", "2U+<-6>")
        assert code == 0
        assert data == {"orders": ["6"], "q": ["11/6"], "autOrder": 2}

    def test_autgroup(self, capsys):
        code, data = run_json(capsys, "disc", "autgroup", "--spec", "2U+<-12>")
        assert code == 0
        assert data["order"] == 4

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

    def test_transport(self, capsys):
        code, data = run_json(capsys, "orbit", "transport", "--spec", "2U+<-2>",
                              "--json", '{"u": ["1","-1","0","0","0"], "v": ["0","0","1","-1","0"]}')
        assert code == 0
        assert data["verified"] is True
        assert all(atom["type"] == "transvection" for atom in data["witness"])

    @pytest.mark.parametrize("cmd", ["equiv", "transport"])
    def test_rational_vector_not_primitive(self, capsys, cmd):
        code, data = run_json(capsys, "orbit", cmd, "--spec", "2U+<-2>",
                              "--json", '{"u": ["1/2","0","0","0","0"], "v": ["1","0","0","0","0"]}')
        assert code == 1
        assert data["error"] == "not-primitive"

    def test_transport_refuses(self, capsys):
        code, data = run_json(capsys, "orbit", "transport", "--spec", "2U+<-2>",
                              "--json", '{"u": ["1","-1","0","0","0"], "v": ["0","0","0","0","1"]}')
        assert code == 1
        assert data["error"] == "equivalence-fails"


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

    def test_verify(self, capsys):
        code, data = run_json(capsys, "jacobi", "verify", "--spec", "<-2>",
                              "--paramodular", "1", "5")
        assert code == 0
        assert data["allPass"]
        assert data["stableGroupGenerators"]["extra"] == "sigma_(e1-f1)"

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
