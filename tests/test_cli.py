import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from gracelab import cli
from gracelab.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLabels:
    def test_six_vertex_tree(self, capsys):
        code, out, _ = invoke(capsys, "labels", "--graph", "6:0,0,0,0,3,3")
        assert code == 0
        assert out == "0,1,1,2,2,3\n"

    def test_malformed_graph_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "labels", "--graph", "3:0,9,1")
        assert code == 2
        assert "vertex 1 maps to 9" in err


class TestGraceful:
    def test_two_cycle(self, capsys):
        code, out, _ = invoke(capsys, "graceful", "--graph", "2:1,0")
        assert code == 0
        assert out == "gracefully_labeled: false\ngraceful: false\n"

    def test_out_of_range_n(self, capsys):
        graph = "11:" + ",".join("0" for _ in range(11))
        code, _, err = invoke(capsys, "graceful", "--graph", graph)
        assert code == 2
        assert "feasible range" in err


class TestGammas:
    def test_n5_listing_and_count_line(self, capsys):
        code, out, _ = invoke(capsys, "gammas", "--n", "5")
        assert code == 0
        assert out.splitlines() == [
            "0,1,2,3,4",
            "0,2,1,3,4",
            "0,3,1,2,4",
            "0,3,2,1,4",
            "4 = 2!*2!",
        ]

    def test_limit_truncates_listing_only(self, capsys):
        code, out, _ = invoke(capsys, "gammas", "--n", "5", "--limit", "1")
        assert code == 0
        assert out.splitlines() == ["0,1,2,3,4", "4 = 2!*2!"]

    def test_n_too_large(self, capsys):
        code, _, err = invoke(capsys, "gammas", "--n", "14")
        assert code == 2
        assert "feasible range" in err

    @pytest.mark.parametrize("limit", [0, 1, 5, 10**6])
    def test_limit_prints_a_prefix_of_the_listing(self, capsys, limit):
        _, full, _ = invoke(capsys, "gammas", "--n", "8")
        code, out, _ = invoke(capsys, "gammas", "--n", "8", "--limit", str(limit))
        listing = full.splitlines()
        assert listing[-1] == "144 = 3!*4!"
        assert code == 0
        assert out.splitlines() == listing[:-1][:limit] + [listing[-1]]

    def test_structured_list_is_the_text_listing(self, capsys):
        _, text, _ = invoke(capsys, "gammas", "--n", "8")
        code, out, _ = invoke(capsys, "gammas", "--n", "8", "--format", "structured")
        assert code == 0
        assert json.loads(out)["gammas"] == text.splitlines()[:-1]

    def test_every_printed_gamma_passes_the_permutation_check(self, capsys, monkeypatch):
        from gracelab import expansion

        # a kernel that never takes value 1 out of the values left repeats it
        values = expansion._values
        monkeypatch.setattr(expansion, "_values", lambda mask: values(mask | 0b10))
        with pytest.raises(ValueError, match="not a permutation"):
            run(["gammas", "--n", "5", "--limit", "0"])
        assert capsys.readouterr().out == ""


class TestTermRenderers:
    """The %-template term renderers write what json.dumps writes."""

    @staticmethod
    def polys():
        from gracelab.polyring import SparsePoly
        from gracelab.whitty import symbolic_matrix, whitty_lhs

        # the Whitty determinant has negative coefficients
        return [whitty_lhs(symbolic_matrix(n)) for n in (3, 5)] + [
            SparsePoly({}),
            SparsePoly({0: -1, 2**70: 3**50}),
        ]

    def test_compact_form(self):
        from gracelab.cli import _poly_json

        for poly in self.polys():
            assert _poly_json(poly) == json.dumps(poly.to_pairs(), separators=(",", ":"))

    def test_indent_two_terms_field(self):
        from gracelab.cli import _document, _terms_field

        for poly in self.polys():
            doc = {"n": 5, "terms": poly.to_pairs(), "status": "pass"}
            spliced = {**doc, "terms": _terms_field(poly)}
            assert "".join(_document(spliced)) == json.dumps(doc, indent=2) + "\n"

    def test_document_writes_nested_fields_as_json_dumps(self):
        from gracelab.cli import _document

        doc = {"a": [], "b": {}, "c": [{"x": [1, [2]], "y": None}], "d": "\n\"", "e": 1.5}
        assert "".join(_document(doc)) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("n", range(2, 11))
    def test_gammas_field(self, n):
        from argparse import Namespace

        from gracelab.cli import _cmd_gammas, _document
        from gracelab.expansion import enumerate_valid_gammas

        agree, doc = _cmd_gammas(Namespace(n=n, format="structured", limit=None))
        gammas = [g.format() for g in enumerate_valid_gammas(n)]
        plain = {**doc, "gammas": gammas}
        assert agree and "".join(_document(doc)) == json.dumps(plain, indent=2) + "\n"


class TestGenfun:
    def test_p3_with_oracle(self, capsys):
        code, out, _ = invoke(
            capsys, "genfun", "--which", "p", "--n", "3", "--oracle"
        )
        assert code == 0
        assert out.splitlines() == [
            '[["7","3"],["13","6"]]',
            "oracle: identical",
        ]

    def test_f2_terms(self, capsys):
        code, out, _ = invoke(capsys, "genfun", "--which", "f", "--n", "2")
        assert code == 0
        assert out == '[["2","1"],["4","2"],["6","1"]]\n'

    def test_p_past_the_ceiling_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "genfun", "--which", "p", "--n", "13")
        assert code == 2 and out == ""
        assert "genfun-p: n=13 outside feasible range [2, 12]" in err

    def test_oracle_gate(self, capsys):
        code, _, err = invoke(
            capsys, "genfun", "--which", "f", "--n", "9", "--oracle"
        )
        assert code == 2
        assert "genfun-oracle: n=9 outside feasible range [1, 8]" in err


class TestCoeff:
    def test_graceful_coefficient(self, capsys):
        code, out, _ = invoke(
            capsys, "coeff", "--which", "f", "--sequence", "0,1,2"
        )
        assert code == 0
        assert out == "exponent: 21\ncoefficient: 6\n"

    def test_p_path_sequence_one_below_the_ceiling(self, capsys):
        # one below the coeff-p ceiling: one loop and n-1 label-1 edges, the
        # path rooted at any of its n vertices
        n = cli.MAX_N["coeff-p"] - 1
        sequence = ",".join(["0"] + ["1"] * (n - 1))
        code, out, _ = invoke(capsys, "coeff", "--which", "p", "--sequence", sequence)
        assert code == 0
        assert out.splitlines()[1] == f"coefficient: {n}"

    def test_p_graceful_sequence_at_thirteen(self, capsys):
        # 13 * G(13): 8,733,628 graceful trees rooted at 0, each rooted anywhere
        sequence = ",".join(map(str, range(13)))
        code, out, _ = invoke(capsys, "coeff", "--which", "p", "--sequence", sequence)
        assert code == 0
        assert out.splitlines()[1] == "coefficient: 113537164"

    def test_p_past_the_ceiling_is_usage_error(self, capsys):
        sequence = ",".join(["0"] + ["1"] * 17)
        code, out, err = invoke(capsys, "coeff", "--which", "p", "--sequence", sequence)
        assert code == 2 and out == ""
        assert "coeff-p: n=18 outside feasible range [2, 17]" in err

    def test_f_past_the_ceiling_is_usage_error(self, capsys):
        sequence = ",".join(map(str, range(21)))
        code, out, err = invoke(capsys, "coeff", "--which", "f", "--sequence", sequence)
        assert code == 2 and out == ""
        assert "coeff-f: n=21 outside feasible range [1, 20]" in err


class TestCountInvariant:
    """F(1) = n^n and P(1) = n^(n-1) are asserted on every polynomial the
    CLI builds, and coeff asserts them on its construction at x = 1; a
    perturbed polynomial exits 1 and names the failure.

    The fault goes into the construction behind compute_P / compute_F,
    which genfun runs through those functions and coeff runs in the
    truncated ring, so one fault is seen by both commands."""

    CONSTRUCTION = {"compute_P": "matrix_tree_sum", "compute_F": "row_sum_product"}

    CASES = [
        (("genfun", "--which", "p", "--n", "4"), "compute_P", "P(1) = 65 != 4^3 = 64"),
        (("genfun", "--which", "f", "--n", "3"), "compute_F", "F(1) = 28 != 3^3 = 27"),
        (("coeff", "--which", "p", "--sequence", "0,1,1,2"), "compute_P", "P(1) = 65 != 4^3 = 64"),
        (("coeff", "--which", "f", "--sequence", "0,1,2"), "compute_F", "F(1) = 28 != 3^3 = 27"),
    ]

    @pytest.mark.parametrize(("argv", "name", "violation"), CASES)
    def test_perturbed_polynomial_exits_one(self, capsys, monkeypatch, argv, name, violation):
        from gracelab import genfun
        from gracelab.polyring import SparsePoly

        _, passing, _ = invoke(capsys, *argv)
        construction = self.CONSTRUCTION[name]
        original = getattr(genfun, construction)
        monkeypatch.setattr(
            genfun, construction, lambda *args: original(*args) + SparsePoly({0: 1})
        )
        code, out, _ = invoke(capsys, *argv)
        assert code == 1
        assert out.splitlines()[-1] == f"invariant failed: {violation}"
        # the constant term is not a label sequence, so no printed
        # coefficient moves; only the failure line is added
        if argv[0] == "coeff":
            assert out.splitlines()[:-1] == passing.splitlines()
        code, out, _ = invoke(capsys, *argv, "--format", "structured")
        doc = json.loads(out)
        assert code == 1 and doc["violations"] == [violation]
        assert doc.get("status", "fail") == "fail"


class TestStructuredOutput:
    def test_labels_document(self, capsys):
        code, out, _ = invoke(
            capsys, "labels", "--graph", "6:0,0,0,0,3,3", "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "command": "labels",
            "graph": "6:0,0,0,0,3,3",
            "labels": [0, 1, 1, 2, 2, 3],
        }

    def test_field_order_is_stable(self, capsys):
        _, out1, _ = invoke(capsys, "tau", "--n", "4", "--format", "structured")
        _, out2, _ = invoke(capsys, "tau", "--n", "4", "--format", "structured")
        assert out1 == out2
        assert list(json.loads(out1)) == ["command", "n", "lower", "tau", "upper", "status"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sp", "--n", "4", "--seed", "7"),
            ("tdmtt", "--n", "4", "--seed", "3"),
            ("whitty", "--n", "3", "--seed", "5"),
            ("neighbors", "--graph", "4:0,0,0,0"),
            ("conjecture", "--n", "4"),
        ],
    )
    def test_identical_config_gives_identical_bytes(self, capsys, argv):
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert (code1, out1) == (code2, out2)


class TestChecksExitZero:
    def test_sp(self, capsys):
        code, out, _ = invoke(capsys, "sp", "--n", "3", "--seed", "1")
        assert code == 0
        assert "equal=true" in out

    def test_tau(self, capsys):
        code, out, _ = invoke(capsys, "tau", "--n", "4")
        assert code == 0
        assert "within_bounds: true" in out

    def test_tdmtt(self, capsys):
        code, out, _ = invoke(capsys, "tdmtt", "--n", "5", "--seed", "2")
        assert code == 0
        assert "equal: true" in out

    def test_whitty_numeric(self, capsys):
        code, out, _ = invoke(capsys, "whitty", "--n", "4", "--seed", "1")
        assert code == 0
        assert "pass: true" in out
        assert "epsilon: +1" in out

    def test_whitty_symbolic(self, capsys):
        code, out, _ = invoke(capsys, "whitty", "--n", "3", "--symbolic")
        assert code == 0
        assert "pass: true" in out

    def test_whitty_past_the_ceiling_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "whitty", "--n", "12", "--symbolic")
        assert code == 2 and out == ""
        assert "whitty: n=12 outside feasible range [2, 11]" in err

    def test_props(self, capsys):
        code, out, _ = invoke(capsys, "props", "--n", "3")
        assert code == 0
        assert "status=discrepancy" in out  # printed degree formulas differ
        assert "status=fail" not in out

    def test_conjecture(self, capsys):
        code, out, _ = invoke(capsys, "conjecture", "--n", "4")
        assert code == 0
        assert "holds: true" in out
        assert "classes: 4" in out

    def test_conjecture_past_the_old_ceiling(self, capsys):
        code, out, _ = invoke(capsys, "conjecture", "--n", "8")
        assert code == 0
        assert out.endswith("classes: 115\nclass_size_total: 2097152\nholds: true\n")

    def test_conjecture_past_the_ceiling_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "conjecture", "--n", "13")
        assert code == 2 and out == ""
        assert "conjecture: n=13 outside feasible range [1, 12]" in err

    def test_tdmtt_past_the_ceiling_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "tdmtt", "--n", "10", "--seed", "1")
        assert code == 2 and out == ""
        assert "tdmtt: n=10 outside feasible range [1, 9]" in err

    def test_props_past_the_ceiling_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "props", "--n", "9")
        assert code == 2 and out == ""
        assert "props: n=9 outside feasible range [2, 8]" in err

    def test_conjecture_invariant_failure_exits_one(self, capsys, monkeypatch):
        from gracelab import conjecture

        shapes = conjecture.tree_shapes(4)
        monkeypatch.setattr(conjecture, "tree_shapes", lambda n: shapes[:-1])
        code, out, _ = invoke(capsys, "conjecture", "--n", "4")
        assert code == 1
        assert "invariant failed: classes 3 != A000081(4) = 4" in out.splitlines()
        code, out, _ = invoke(capsys, "conjecture", "--n", "4", "--format", "structured")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "fail"
        assert doc["violations"][0] == "classes 3 != A000081(4) = 4"

    def test_conjecture_wrong_free_tree_key_exits_one(self, capsys, monkeypatch):
        from gracelab import conjecture

        # one key per rooted shape: the sweep finds 4 free trees, not 2
        monkeypatch.setattr(conjecture, "_free_tree_key", lambda values, ids: values)
        code, out, _ = invoke(capsys, "conjecture", "--n", "4")
        assert code == 1
        assert "invariant failed: free trees 4 != A000055(4) = 2" in out.splitlines()
        code, out, _ = invoke(capsys, "conjecture", "--n", "4", "--format", "structured")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "fail"
        assert doc["violations"] == ["free trees 4 != A000055(4) = 2"]

    def test_grl(self, capsys):
        code, out, _ = invoke(capsys, "grl", "--graph", "5:0,0,0,0,0")
        assert code == 0
        assert out.splitlines() == ["5:0,0,0,0,0", "5:4,4,4,4,4", "count: 2"]


class TestFailureRenderings:
    """The lines and fields each subcommand writes when its check fails,
    with the library call behind it patched to fail, in both formats."""

    def test_conjecture_missing_pair(self, capsys, monkeypatch):
        from gracelab import conjecture

        real = conjecture.realizes

        # the sweep decides each star sequence once per free tree, so the
        # fake refuses the star K_{1,3}: rooted at its centre (4:0,0,0,0) and
        # at a leaf (4:0,0,1,1)
        star = {(0, 0, 0, 0), (0, 0, 1, 1)}

        def realizes(g, target):
            refused = g.values in star and tuple(target) == (0, 1, 1, 2)
            return not refused and real(g, target)

        monkeypatch.setattr(conjecture, "realizes", realizes)
        code, out, _ = invoke(capsys, "conjecture", "--n", "4")
        assert code == 1
        assert out.splitlines() == [
            "class 4:0,0,0,0: missing 0,1,1,2",
            "class 4:0,0,0,1: ok",
            "class 4:0,0,1,1: missing 0,1,1,2",
            "class 4:0,0,1,2: ok",
            "classes: 4",
            "class_size_total: 64",
            "holds: false",
        ]
        code, out, _ = invoke(capsys, "conjecture", "--n", "4", "--format", "structured")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "fail"
        assert doc["missing"] == [
            {"class": "4:0,0,0,0", "sequence": [0, 1, 1, 2]},
            {"class": "4:0,0,1,1", "sequence": [0, 1, 1, 2]},
        ]
        assert "violations" not in doc

    def test_genfun_oracle_mismatch(self, capsys, monkeypatch):
        # the brute-force polynomial, the counterexample, is written in both
        # formats: oracle_poly in text, oracle_terms in the document
        from gracelab import genfun
        from gracelab.polyring import SparsePoly

        cases = {
            "p": [["7", "3"], ["13", "6"]],
            "f": [["3", "1"], ["6", "4"], ["9", "5"], ["12", "2"], ["18", "2"]]
            + [["21", "6"], ["24", "4"], ["33", "1"], ["36", "2"]],
        }
        for which, terms in cases.items():
            name = f"compute_{which.upper()}_bruteforce"
            real = getattr(genfun, name)
            monkeypatch.setattr(
                genfun, name, lambda n, real=real: real(n) + SparsePoly({1: 1})
            )
            oracle_terms = [["1", "1"], *terms]
            argv = ("genfun", "--which", which, "--n", "3", "--oracle")
            code, out, _ = invoke(capsys, *argv)
            assert code == 1
            assert out.splitlines() == [
                json.dumps(terms, separators=(",", ":")),
                "oracle: MISMATCH",
                "oracle_poly: " + json.dumps(oracle_terms, separators=(",", ":")),
            ]
            code, out, _ = invoke(capsys, *argv, "--format", "structured")
            doc = json.loads(out)
            assert code == 1
            assert doc["terms"] == terms
            assert (doc["status"], doc["oracle"]) == ("fail", "mismatch")
            assert doc["oracle_terms"] == oracle_terms
            assert list(doc)[-2:] == ["oracle", "oracle_terms"]

    def test_gammas_count_mismatch(self, capsys, monkeypatch):
        from gracelab import expansion

        monkeypatch.setattr(expansion, "count_valid_gammas", lambda n: 5)
        code, out, _ = invoke(capsys, "gammas", "--n", "5")
        assert code == 1
        assert out.splitlines()[-2:] == ["4 = 2!*2!", "MISMATCH: enumerated 4, formula 5"]
        code, out, _ = invoke(capsys, "gammas", "--n", "5", "--format", "structured")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "fail"
        assert (doc["enumerated"], doc["formula"]) == (4, 5)

    @pytest.mark.parametrize(
        "sequence, message",
        [("0,x", "malformed sequence: '0,x'"), ("0,5", "label 5 outside [0, 2)")],
    )
    @pytest.mark.parametrize("which", ["f", "p"])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_coeff_bad_sequence_is_usage_error(self, capsys, sequence, message, which, fmt):
        argv = ("coeff", "--which", which, "--sequence", sequence, "--format", fmt)
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSpEnumeratesOnce:
    def test_one_run_calls_enumerate_sp_once(self, capsys, monkeypatch):
        from gracelab import expansion

        real = expansion.enumerate_sp
        calls = []

        def enumerate_sp(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(expansion, "enumerate_sp", enumerate_sp)
        code, out, _ = invoke(capsys, "sp", "--n", "4", "--seed", "1")
        assert code == 0 and "equal=true" in out
        assert calls == [4]


class TestNeighborsCommand:
    def test_plain_listing(self, capsys):
        code, out, _ = invoke(capsys, "neighbors", "--graph", "5:0,0,0,0,0")
        assert code == 0
        assert out.splitlines() == [
            "5:0,0,0,0,0",
            "5:0,0,4,0,0",
            "5:0,2,0,0,0",
            "5:4,4,0,4,4",
            "5:4,4,4,2,4",
            "5:4,4,4,4,4",
        ]

    def test_oracle_emits_missing_verbatim_and_fails(self, capsys):
        # the flip generator misses two star neighbors; the diff is emitted
        # and the exit status reports the counterexample
        code, out, _ = invoke(
            capsys, "neighbors", "--graph", "4:0,0,0,0", "--oracle"
        )
        assert code == 1
        lines = out.splitlines()
        start = lines.index("missing:")
        end = lines.index("extra:")
        assert lines[start + 1 : end] == ["4:2,2,2,0", "4:3,1,1,1"]
        assert lines[end + 1 :] == ["complete: false"]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gammas"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("coeff", "--which", "f", "--sequence", "-1,3"), "label -1 outside [0, 2)"),
            (
                ("coeff", "--format", "structured", "--which", "p", "--sequence", "-1,3"),
                "label -1 outside [0, 2)",
            ),
            (("labels", "--graph", "-1:0"), "digraph text declares n=-1 but lists 1 values"),
            # an abbreviated flag takes its value as the full one does
            (("coeff", "--which", "f", "--seq", "-1,3"), "label -1 outside [0, 2)"),
            (("labels", "--gr", "-1:0"), "digraph text declares n=-1 but lists 1 values"),
        ],
    )
    def test_value_starting_with_a_dash_and_digit(self, capsys, argv, message):
        # read as the value, as it is when written after "="
        glued = (*argv[:-2], "=".join(argv[-2:]))
        for args in (argv, glued):
            assert invoke(capsys, *args) == (2, "", f"error: {message}\n")

    def test_flag_before_another_flag_is_still_empty(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["coeff", "--which", "f", "--sequence", "--format", "text"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --sequence: expected one argument\n")

    def test_negative_limit(self, capsys):
        code, _, err = invoke(capsys, "gammas", "--n", "4", "--limit", "-1")
        assert code == 2
        assert "non-negative" in err

    @pytest.mark.parametrize("command", ["sp", "tdmtt", "whitty"])
    def test_negative_seed(self, capsys, command):
        code, out, err = invoke(capsys, command, "--n", "3", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "--seed must be non-negative" in err


class TestParsersBuilt:
    """A command builds the parser of its own subcommand only; the top
    level's help and its errors still list every subcommand."""

    SUBCOMMANDS = (
        "labels graceful grl gammas sp tau genfun coeff props tdmtt whitty "
        "neighbors conjecture"
    ).split()

    def spy(self, monkeypatch):
        built = []
        init = cli._Subcommand.__init__

        def record(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            built.append(parser.prog)

        monkeypatch.setattr(cli._Subcommand, "__init__", record)
        return built

    def test_a_subcommand_builds_only_its_parser(self, capsys, monkeypatch):
        built = self.spy(monkeypatch)
        code, out, _ = invoke(capsys, "labels", "--graph", "1:0")
        assert (code, out) == (0, "0\n")
        assert built == ["gracelab labels"]

    @pytest.mark.parametrize("argv", [["--help"], ["frobnicate"], []], ids=repr)
    def test_the_top_level_builds_every_parser(self, capsys, monkeypatch, argv):
        built = self.spy(monkeypatch)
        with pytest.raises(SystemExit):
            run(argv)
        assert built == [f"gracelab {name}" for name in self.SUBCOMMANDS]
        captured = capsys.readouterr()
        assert "{" + ",".join(self.SUBCOMMANDS) + "}" in captured.out + captured.err


class TestStructuredDocs:
    def test_whitty_symbolic_document(self, capsys):
        code, out, _ = invoke(
            capsys, "whitty", "--n", "3", "--symbolic", "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["calibration"]["epsilon"] == 1
        assert doc["column_reversal_parity"] == -1
        assert doc["label_signature_reading_agrees"] is False
        assert doc["seed"] is None

    def test_conjecture_document(self, capsys):
        code, out, _ = invoke(
            capsys, "conjecture", "--n", "3", "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["missing"] == []
        assert [c["size"] for c in doc["classes"]] == [3, 6]
        assert doc["class_size_total"] == 9

    def test_sp_limit(self, capsys):
        code, out, _ = invoke(capsys, "sp", "--n", "4", "--limit", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "count: 4"
        assert len(lines) == 4


class TestClosedPipe:
    """``gracelab gammas --n 12 | head -1``: the reader goes away after one
    line.  The command prints no traceback and keeps its own exit status."""

    @pytest.mark.parametrize(
        ("fmt", "first_line"),
        [("text", b"0,1,2,3,4,5,6,7,8,9,10,11\n"), ("structured", b"{\n")],
        ids=["text", "structured"],
    )
    def test_reader_closes_after_one_line(self, fmt, first_line):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with subprocess.Popen(
            [sys.executable, "-m", "gracelab", "gammas", "--n", "12", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert first == first_line
        assert err == b""


class TestConsoleScript:
    """Every way of running the command line, each in a fresh interpreter
    that imports this checkout's package: ``python -m gracelab``,
    ``python -m gracelab.cli`` (the launcher bench/run.py times), and the
    ``[project.scripts]`` target that an install turns into ``gracelab``."""

    def test_installed_entry_point(self):
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["gracelab"]
        module, _, function = target.partition(":")
        launchers = [
            [sys.executable, "-m", "gracelab"],
            [sys.executable, "-m", "gracelab.cli"],
            [
                sys.executable,
                "-c",
                f"import sys; from {module} import {function}; sys.exit({function}())",
            ],
        ]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for launcher in launchers:
            result = subprocess.run(
                [*launcher, "labels", "--graph", "6:0,0,0,0,3,3"],
                capture_output=True,
                text=True,
                env=env,
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout == "0,1,1,2,2,3\n"


class TestHardExit:
    """cli.main writes and flushes the output, then ends the process with
    os._exit, so no interpreter teardown runs and nothing is flushed at
    exit.  Every launcher must still deliver cli.run's output whole, to a
    file and to a pipe, with the command's own exit status."""

    LAUNCHERS = [["-m", "gracelab"], ["-m", "gracelab.cli"]]
    ROOT = Path(__file__).resolve().parents[1]

    def spawn(self, launcher, argv, stdout=subprocess.PIPE):
        # stdout buffered, as a plain shell starts it, so that a missing
        # flush before os._exit would lose the buffered tail
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(self.ROOT / "src"), COLUMNS="80")
        return subprocess.run(
            [sys.executable, *launcher, *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )

    def check(self, capsys, tmp_path, launcher, argv, code):
        try:
            expected_code = run(list(argv))
        except SystemExit as stop:  # argparse usage errors
            expected_code = stop.code
        expected = capsys.readouterr()
        assert expected_code == code
        piped = self.spawn(launcher, argv)
        path = tmp_path / "out"
        with open(path, "wb") as fh:
            to_file = self.spawn(launcher, argv, stdout=fh)
        for done, out in ((piped, piped.stdout), (to_file, path.read_bytes())):
            assert done.returncode == code
            assert out == expected.out.encode()
            assert done.stderr == expected.err.encode()
        return expected.out

    @pytest.mark.parametrize("launcher", LAUNCHERS, ids=lambda launcher: launcher[1])
    @pytest.mark.parametrize(
        "argv",
        [
            ("gammas", "--n", "12"),
            ("genfun", "--which", "p", "--n", "10", "--format", "structured"),
        ],
        ids=" ".join,
    )
    def test_large_output_arrives_whole(self, capsys, tmp_path, launcher, argv):
        out = self.check(capsys, tmp_path, launcher, argv, 0)
        assert len(out) > 2**17  # more than a pipe holds, many write buffers

    @pytest.mark.parametrize("launcher", LAUNCHERS, ids=lambda launcher: launcher[1])
    def test_text_of_many_slices_arrives_whole(self, capsys, tmp_path, launcher):
        # main writes the text a slice at a time; 2.2 MB is three slices,
        # the last one partial
        out = self.check(capsys, tmp_path, launcher, ("gammas", "--n", "12"), 0)
        assert 2 * cli._SLICE < len(out) < 3 * cli._SLICE

    @pytest.mark.parametrize("launcher", LAUNCHERS, ids=lambda launcher: launcher[1])
    def test_failed_identity_exits_one(self, capsys, tmp_path, launcher):
        argv = ("neighbors", "--graph", "6:0,0,0,0,0,0", "--oracle")
        out = self.check(capsys, tmp_path, launcher, argv, 1)
        assert out.endswith("\ncomplete: false\n")

    @pytest.mark.parametrize("launcher", LAUNCHERS, ids=lambda launcher: launcher[1])
    @pytest.mark.parametrize(
        "argv", [("gammas", "--n", "14"), ("tau", "--n", "3", "--bogus")], ids=" ".join
    )
    def test_usage_error_exits_two(self, capsys, tmp_path, launcher, argv):
        assert self.check(capsys, tmp_path, launcher, argv, 2) == ""

    def test_json_is_loaded_only_for_structured_output(self):
        # a fresh isolated interpreter, so that nothing pytest imported counts
        code = (
            f"import sys; sys.path.insert(0, {str(self.ROOT / 'src')!r}); "
            "from gracelab.cli import run; print('json' in sys.modules); "
            "run(['labels', '--graph', '6:0,0,0,0,3,3']); "
            "print('json' in sys.modules); "
            "run(['labels', '--graph', '6:0,0,0,0,3,3', '--format', 'structured'])"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        doc = {
            "command": "labels",
            "graph": "6:0,0,0,0,3,3",
            "labels": [0, 1, 1, 2, 2, 3],
        }
        structured = json.dumps(doc, indent=2) + "\n"
        assert done.stdout == "False\n0,1,1,2,2,3\nFalse\n" + structured
