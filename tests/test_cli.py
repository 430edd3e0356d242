"""Command-line surface: reports, exit codes, determinism."""

import json
import re

import numpy as np
import pytest

import sepkit.cli
import sepkit.states
from sepkit.cli import main, to_json
from sepkit.criteria import ONE_SHOT_TESTS, ppt_test
from sepkit.statespec import parse_state_spec
from sepkit.symext import DEFAULT_MAX_ITERS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    return json.loads(out)


def strip_timestamp(out: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "-"', out)


class TestCriteriaCommand:
    def test_maxent_all_fail_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, "criteria", "--state", "maxent:2", "--json")
        assert code == 0
        report = parse_report(out)
        verdicts = report["results"]["verdicts"]
        assert len(verdicts) == 7
        assert all(v["status"] in ("fail", "inconclusive") for v in verdicts)
        ppt = verdicts[0]
        assert abs(ppt["margin"]["value"] + 0.5) < 1e-9
        assert ppt["margin"]["tol"] is not None

    def test_only_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "criteria", "--state", "sep:2:2:2:3", "--only", "ppt,crossnorm", "--json"
        )
        assert code == 0
        names = [v["criterion"] for v in parse_report(out)["results"]["verdicts"]]
        assert names == ["ppt", "crossnorm"]

    @pytest.mark.parametrize("state", ["maxent:2", "sep:2:2:2:3"])
    def test_only_symext_runs_only_named_criteria(self, capsys, monkeypatch, state):
        ran = []
        for name in ONE_SHOT_TESTS:
            if name != "ppt":
                monkeypatch.setitem(ONE_SHOT_TESTS, name, lambda rho, name=name: ran.append(name))
        code, out, _ = run_cli(capsys, "criteria", "--state", state, "--only", "ppt,symext", "--json")
        assert code == 0
        assert ran == []
        names = [v["criterion"] for v in parse_report(out)["results"]["verdicts"]]
        assert names == ["ppt", "symext-2"]

    @pytest.mark.parametrize("state", ["maxent:2", "sep:2:2:2:3", "isotropic:3:0.3"])
    def test_only_verdicts_match_full_report(self, capsys, state):
        _, full, _ = run_cli(capsys, "criteria", "--state", state, "--json")
        _, only, _ = run_cli(capsys, "criteria", "--state", state, "--only", "symext,ppt", "--json")
        by_name = {v["criterion"]: v for v in parse_report(full)["results"]["verdicts"]}
        picked = parse_report(only)["results"]["verdicts"]
        assert [v["criterion"] for v in picked] == ["ppt", "symext-2"]
        assert picked == [by_name[v["criterion"]] for v in picked]

    def test_unknown_criterion_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "criteria", "--state", "maxent:2", "--only", "bogus")
        assert code == 1
        assert "unknown" in err

    @pytest.mark.parametrize("only", [",", ""])
    def test_empty_selection_usage_error(self, capsys, only):
        code, out, err = run_cli(capsys, "criteria", "--state", "maxent:2", "--only", only)
        assert code == 1
        assert out == ""
        assert "selects no criterion" in err

    def test_human_summary_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "criteria", "--state", "maxent:2", "--only", "ppt")
        assert code == 0
        assert "ppt" in err
        parse_report(out)  # stdout still carries the JSON report


class TestTilesFlag:
    def test_upb_certificate_and_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "criteria", "--state", "tiles", "--only", "ppt,crossnorm", "--json"
        )
        assert code == 0
        res = parse_report(out)["results"]
        cert = res["upb_certificate"]
        assert cert["entangled"] is True
        position = cert["general_position"]
        assert position["unextendible"] is True
        # every 3 of the 5 local parts on each side span C^3 (Bennett et al.)
        assert min(position["min_abs_det_a"], position["min_abs_det_b"]) > 0.4
        assert position["max_second_schmidt"] < position["tol"]
        # the exact test is the whole certificate: no heuristic overlap bound
        assert set(cert) == {"general_position", "entangled"}
        assert res["flag"] == "entangled by UPB certificate despite PPT pass"


class TestSymextCommand:
    def test_dim_cap(self, capsys):
        # 2 * 2**12 = 8192 exceeds the fixed cap of 4096
        code, _, err = run_cli(capsys, "symext", "--state", "maxent:2", "--k", "12", "--json")
        assert code == 1
        assert "cap" in err

    def test_separable_feasible(self, capsys):
        code, out, _ = run_cli(
            capsys, "symext", "--state", "sep:2:2:1:4", "--k", "2", "--json"
        )
        assert code == 0
        res = parse_report(out)["results"]
        assert res["status"] == "feasible"
        assert res["witness_extension"] is not None
        assert res["farkas_witness"] is None

    def test_farkas_witness_reported(self, capsys):
        code, out, _ = run_cli(capsys, "symext", "--state", "isotropic:2:0.8", "--k", "2", "--json")
        assert code == 0
        res = parse_report(out)["results"]
        assert (res["status"], res["stop_reason"]) == ("infeasible-evidence", "farkas")
        assert res["witness_extension"] is None
        doc = res["farkas_witness"]
        assert doc["kind"] == "hermitian"
        w = np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])
        rho = sepkit.states.segment_state(sepkit.states.maximally_mixed((2, 2)), 0.8)
        assert np.trace(w @ rho.mat).real > 0.04

    def test_maxent_infeasible(self, capsys):
        code, out, _ = run_cli(capsys, "symext", "--state", "maxent:2", "--k", "2", "--json")
        assert code == 0  # a scientific verdict, not an error
        res = parse_report(out)["results"]
        assert res["status"] == "infeasible-evidence"
        assert res["stop_reason"] == "empty-face"
        # symmetric and antisymmetric blocks of 2 x 3 and 2 x 1, both with an empty face
        assert res["blocks"] == [
            {"size": 6, "multiplicity": 1, "face_dim": 0},
            {"size": 2, "multiplicity": 1, "face_dim": 0},
        ]

    def test_criteria_verdict_says_why_it_stopped(self, capsys):
        code, out, _ = run_cli(capsys, "criteria", "--state", "isotropic:2:0.8", "--only", "symext", "--json")
        assert code == 0
        details = parse_report(out)["results"]["verdicts"][0]["details"]
        assert details["stop_reason"] == "farkas"
        assert [b["size"] for b in details["blocks"]] == [6, 2]


class TestTomoCommand:
    def test_accept_reports_stderr_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "tomo", "accept", "--target", "maxent:2", "--source", "maxent:2",
            "--n", "20", "--eps", "0.75", "--trials", "40", "--seed", "3", "--json",
        )
        assert code == 0
        acc = parse_report(out)["results"]["acceptance"]
        assert 0.0 <= acc["value"] <= 1.0
        assert acc["stderr_bound"] == pytest.approx(0.5 / np.sqrt(40))


class TestGeometryCommands:
    def test_definetti_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "geometry", "definetti", "--dim", "4", "--n", "1", "--k", "99", "--json"
        )
        assert code == 0
        assert parse_report(out)["results"]["bound"]["value"] == 0.08

    def test_boundary_isotropic(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "boundary", "--state", "sep:2:2:4:8", "--json")
        assert code == 0
        res = parse_report(out)["results"]
        assert res["certified_separable"] is True
        assert res["bound_ok"] is True
        assert res["distance_from_start"]["value"] <= 1 / np.sqrt(2) + 1e-6

    def test_witness_epr(self, capsys):
        code, out, _ = run_cli(
            capsys, "geometry", "witness", "--state", "maxent:2", "--witness", "maxent:2", "--json"
        )
        assert code == 0
        res = parse_report(out)["results"]
        assert abs(res["lower_bound"]["value"] - 0.5) < 1e-9

    @pytest.mark.parametrize("witness", ["maxent:2:junk", "maxent", "tiles", "isotropic:2:0.5"])
    def test_witness_spec_must_be_maxent(self, capsys, witness):
        code, out, err = run_cli(
            capsys, "geometry", "witness", "--state", "maxent:2", "--witness", witness, "--json"
        )
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_farness_labels_ansatz(self, capsys):
        code, out, _ = run_cli(
            capsys, "geometry", "farness", "--state", "maxent:2", "--ansatz", "isotropic:2:0",
            "--n-list", "10", "--eps", "0.75", "--trials", "30", "--seed", "14", "--json",
        )
        assert code == 0
        res = parse_report(out)["results"]
        assert res["label"] == "vs given ansatz"
        assert res["members_at_least_eps_away"] == [0]


class TestClosureCommand:
    def test_ppt_sweep_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "closure", "--criterion", "ppt", "--trials", "10", "--seed", "7", "--json"
        )
        assert code == 0
        sweep = parse_report(out)["results"]["sweeps"][0]
        assert sweep["violations"] == 0


class TestStateCommands:
    def test_make_emits_schema_document(self, capsys, tmp_path):
        path = tmp_path / "phi.json"
        code, out, _ = run_cli(capsys, "state", "make", "--spec", "maxent:2", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["kind"] == "density"
        assert doc["dims"] == [2, 2]
        # the document feeds back through file:
        code, out, _ = run_cli(capsys, "state", "show", "--state", f"file:{path}", "--json")
        assert code == 0
        assert parse_report(out)["results"]["dims"] == [2, 2]

    def test_show_summary(self, capsys):
        code, out, _ = run_cli(capsys, "state", "show", "--state", "tiles", "--json")
        assert code == 0
        res = parse_report(out)["results"]
        assert res["trace"] == pytest.approx(1.0)
        assert res["ppt_margin"]["value"] >= -1e-10

    @pytest.mark.parametrize("spec", ["tiles", "maxent:2", "sep:2:3:3:5"])
    def test_show_ppt_margin_is_the_ppt_rule(self, capsys, spec):
        code, out, _ = run_cli(capsys, "state", "show", "--state", spec, "--json")
        assert code == 0
        verdict = ppt_test(parse_state_spec(spec).state)
        assert parse_report(out)["results"]["ppt_margin"] == {
            "value": verdict.margin,
            "tol": verdict.details["tol"],
        }

    @pytest.mark.parametrize("spec", ["maxent:5", "isotropic:5:0.5", "random:5:5:1", "sep:5:5:2:1"])
    def test_show_rejects_state_above_dim_cap(self, capsys, monkeypatch, spec):
        monkeypatch.setattr(sepkit.states, "DIM_CAP", 16)
        code, out, err = run_cli(capsys, "state", "show", "--state", spec, "--json")
        assert code == 1
        assert out == ""
        assert err == "error: total dimension 25 exceeds cap 16\n"


class TestReportContract:
    def test_deterministic_modulo_timestamp(self, capsys):
        argv = ["criteria", "--state", "random:2:2:5", "--json"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_config_and_seed_embedded(self, capsys):
        _, out, _ = run_cli(
            capsys, "tomo", "accept", "--target", "maxent:2", "--source", "maxent:2",
            "--n", "5", "--eps", "1.0", "--trials", "5", "--seed", "99", "--json",
        )
        report = parse_report(out)
        assert report["config"]["seed"] == 99
        assert report["config"]["trials"] == 5
        assert report["version"]

    def test_usage_error_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "criteria", "--state", "nope:1")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["symext", "--state", "random:2:2:1", "--k", "2", "--max-iters", "0"],
            ["symext", "--state", "random:2:2:1", "--k", "2", "--max-iters", "-3"],
            ["symext", "--state", "random:2:2:1", "--k", "2", "--tol", "nan"],
            ["symext", "--state", "random:2:2:1", "--k", "2", "--tol=-inf"],
            ["geometry", "boundary", "--state", "sep:2:2:4:8", "--tol", "inf"],
            ["tomo", "accept", "--target", "maxent:2", "--source", "maxent:2",
             "--n", "5", "--eps", "nan", "--trials", "4"],
            ["geometry", "farness", "--state", "maxent:2", "--ansatz", "isotropic:2:0",
             "--n-list", "2", "--eps", "inf", "--trials", "4"],
            ["symext", "--state", "sep:2:2:1:4", "--k", "2", "--tol", "0"],
            ["symext", "--state", "sep:2:2:1:4", "--k", "2", "--tol", "-1"],
            ["geometry", "boundary", "--state", "sep:2:2:4:8", "--tol", "0"],
            ["geometry", "boundary", "--state", "sep:2:2:4:8", "--tol", "-1"],
            ["closure", "--criterion", "ppt", "--trials", "0"],
            ["closure", "--criterion", "symext", "--trials", "-2"],
            ["tomo", "accept", "--target", "maxent:2", "--source", "maxent:2",
             "--n", "5", "--eps", "0.5", "--trials", "0"],
            ["geometry", "farness", "--state", "maxent:2", "--ansatz", "maxent:2",
             "--n-list", "4", "--eps", "0.5", "--trials", "0"],
            ["geometry", "definetti", "--dim", "-3", "--n", "1", "--k", "9"],
            ["geometry", "definetti", "--dim", "0", "--n", "1", "--k", "9"],
            ["tomo", "accept", "--target", "maxent:2", "--source", "maxent:2",
             "--n", "50", "--eps", "-1", "--trials", "10"],
            ["geometry", "farness", "--state", "maxent:2", "--ansatz", "isotropic:2:0",
             "--n-list", "4", "--eps", "0"],
            ["geometry", "farness", "--state", "maxent:2", "--ansatz", "isotropic:2:0",
             "--n-list", ",", "--eps", "0.75"],
            ["criteria", "--state", "maxent:2", "--only", ","],
        ],
    )
    def test_non_finite_or_nonpositive_options_exit_one(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 1
        assert out == ""

    def test_non_finite_result_never_written(self, capsys, monkeypatch):
        monkeypatch.setattr(sepkit.cli, "definetti_bound", lambda dim, n, k: float("nan"))
        code, out, err = run_cli(
            capsys, "geometry", "definetti", "--dim", "4", "--n", "1", "--k", "99", "--json"
        )
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_unopenable_out_path_exit_one(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys, "geometry", "definetti", "--dim", "4", "--n", "1", "--k", "9",
            "--out", str(out_path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["geometry", "definetti", "--dim", "4", "--n", "1", "--k", "9", "--tol", "5"],
            ["state", "show", "--state", "tiles", "--seed", "3"],
            ["symext", "--state", "sep:2:2:1:4", "--k", "2", "--seed", "3"],
            ["criteria", "--state", "maxent:2", "--seed", "5"],
            ["--json", "state", "show", "--state", "tiles"],
        ],
    )
    def test_flags_only_on_commands_that_read_them(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""

    def test_config_holds_resolved_tolerance(self, capsys):
        _, out, _ = run_cli(capsys, "symext", "--state", "sep:2:2:1:4", "--k", "2", "--json")
        report = parse_report(out)
        assert report["config"]["tol"] == 1e-7
        assert report["results"]["residual"]["tol"] == 1e-7
        assert "seed" not in report["config"]
        _, out, _ = run_cli(capsys, "geometry", "boundary", "--state", "sep:2:2:4:8", "--json")
        report = parse_report(out)
        assert report["config"]["tol"] == 1e-6
        assert report["results"]["t_star"]["tol"] == 1e-6
        assert "seed" not in report["config"]

    def test_symext_max_iters_default_is_the_library_default(self, capsys):
        _, out, _ = run_cli(capsys, "symext", "--state", "sep:2:2:1:4", "--k", "2", "--json")
        assert parse_report(out)["config"]["max_iters"] == DEFAULT_MAX_ITERS

    def test_summary_names_seed_only_when_read(self, capsys):
        _, _, err = run_cli(capsys, "geometry", "definetti", "--dim", "4", "--n", "1", "--k", "9")
        assert err.splitlines()[0] == "sepkit geometry definetti"
        _, _, err = run_cli(capsys, "closure", "--criterion", "ppt", "--trials", "2", "--seed", "7")
        assert err.splitlines()[0] == "sepkit closure (seed 7)"

    def test_missing_file_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "state", "show", "--state", "file:/nonexistent.json")
        assert code == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "density", "dims": [1, 1]}',
            "[1, 2]",
            '{"kind": "density", "dims": [2], "re": [[1.0]], "im": [[0.0]]}',
            '{"kind": "density", "dims": [null, 2], "re": [[1.0]], "im": [[0.0]]}',
            '{"kind": "density", "dims": 5, "re": [[1.0]], "im": [[0.0]]}',
            '{"kind": "density", "dims": [1, 1], "re": [["1"]], "im": [[0]]}',
            '{"kind": "density", "dims": [1, 1], "re": [[true]], "im": [[0]]}',
            '{"kind": "density", "dims": [1, 2], "re": [[true, 0], [0, 0]], "im": [[0, 0], [0, 0]]}',
            '{"kind": "density", "dims": [1, 1], "re": [[1' + "0" * 400 + ']], "im": [[0]]}',
        ],
        ids=["no-re", "list", "one-dim", "null-dim", "scalar-dims", "string-entry", "bool-entry",
             "bool-among-numbers", "int-overflow"],
    )
    def test_malformed_file_document_exit_one(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "state", "show", "--state", f"file:{path}", "--json")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def scalar_lists(obj):
    """Every list in obj that holds no list or dict."""
    if isinstance(obj, dict):
        return [lst for v in obj.values() for lst in scalar_lists(v)]
    if isinstance(obj, list):
        nested = [lst for v in obj for lst in scalar_lists(v)]
        return nested if any(isinstance(v, (dict, list)) for v in obj) else [obj]
    return []


WRITER_PAYLOADS = [
    {"a": 1, "b": {"c": "d", "e": {"f": None, "g": True}}, "h": False},
    {"rows": [[-0.0, 5e-324, 1e308], [1.5, -2.0, 0.0]], "one": [0.1], "none": []},
    {"points": [{"n": 10, "x": [1, 2]}, {"n": 20, "x": []}], "empty": {}, "also": [[], {}]},
    {"mixed": [1, "two", [3.0, -0.0], {"four": [4]}], "tuple": (1, 2)},
    {"état": "naïve – ∞", "ключ": ["ü", "日本"]},
    [{"a": 1}, [1.0, 2.0], 3],
    [],
    {},
    -0.0,
]


class TestReportWriter:
    @pytest.mark.parametrize("payload", WRITER_PAYLOADS)
    def test_round_trip(self, payload):
        text = to_json(payload)
        assert json.loads(text) == json.loads(json.dumps(payload, indent=2))
        # compact re-encoding compares float reprs, -0.0 included
        assert json.dumps(json.loads(text)) == json.dumps(payload)
        assert text.isascii()

    @pytest.mark.parametrize("payload", WRITER_PAYLOADS)
    def test_number_lists_on_one_line(self, payload):
        lines = to_json(payload).splitlines()
        for lst in scalar_lists(json.loads(json.dumps(payload))):
            assert any(json.dumps(lst) in line for line in lines), lst

    def test_dicts_indented_like_json_dumps(self):
        payload = {"a": 1, "b": {"c": "d", "e": {"f": None}}, "g": {}, "h": "é"}
        assert to_json(payload) == json.dumps(payload, indent=2)
        assert to_json([{"a": [1, 2]}], "  ") == '[\n    {\n      "a": [1, 2]\n    }\n  ]'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_raises(self, bad):
        for payload in (bad, {"a": {"b": bad}}, {"rows": [[1.0, bad]]}, [{"x": [bad]}]):
            with pytest.raises(ValueError):
                to_json(payload)

    def test_cli_report_rows_on_one_line(self, capsys):
        code, out, _ = run_cli(capsys, "symext", "--state", "sep:2:2:3:7", "--k", "2", "--json")
        assert code == 0
        report = parse_report(out)
        witness = report["results"]["witness_extension"]
        lines = out.splitlines()
        for row in witness["re"] + witness["im"]:
            assert any(json.dumps(row) in line for line in lines)
        assert len(lines) < 100
        assert strip_timestamp(out).count('"timestamp": "-"') == 1


# calls in a row that exercise different subcommands and flags; the third,
# fifth and last omit flags that an earlier call set
PARSER_SEQUENCE = [
    ["criteria", "--state", "sep:2:2:2:3", "--only", "ppt,crossnorm", "--json"],
    ["tomo", "accept", "--target", "maxent:2", "--source", "isotropic:2:0", "--n", "15",
     "--eps", "0.75", "--trials", "20", "--seed", "3"],
    ["criteria", "--state", "sep:2:2:2:3", "--only", "ppt"],
    ["symext", "--state", "sep:2:2:1:4", "--k", "2", "--tol", "1e-5", "--json"],
    ["symext", "--state", "sep:2:2:1:4", "--k", "2"],
    ["geometry", "definetti", "--dim", "4", "--n", "1", "--k", "9"],
    ["state", "show", "--state", "maxent:2", "--json"],
    ["tomo", "accept", "--target", "maxent:2", "--source", "isotropic:2:0", "--n", "15",
     "--eps", "0.75", "--trials", "20"],
]


class TestParserCache:
    def test_built_once(self):
        assert sepkit.cli.build_parser() is sepkit.cli.build_parser()

    def test_reports_match_fresh_parser(self, capsys):
        fresh = []
        for argv in PARSER_SEQUENCE:
            sepkit.cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        # a usage error between the calls leaves the shared parser as it was
        assert run_cli(capsys, "criteria", "--bogus")[0] == 1
        cached = [run_cli(capsys, *argv) for argv in PARSER_SEQUENCE]
        assert sepkit.cli.build_parser.cache_info().misses == 1
        for (code1, out1, err1), (code2, out2, err2) in zip(fresh, cached):
            assert code1 == code2 == 0
            assert strip_timestamp(out1) == strip_timestamp(out2)
            assert err1 == err2

    def test_flags_do_not_leak_into_the_next_call(self, capsys):
        configs = [parse_report(run_cli(capsys, *argv)[1])["config"] for argv in PARSER_SEQUENCE]
        assert (configs[0]["json"], configs[0]["only"]) == (True, "ppt,crossnorm")
        assert (configs[2]["json"], configs[2]["only"]) == (False, "ppt")
        assert "seed" not in configs[0] and "seed" not in configs[2]
        assert (configs[1]["seed"], configs[7]["seed"]) == (3, 0)
        assert (configs[3]["tol"], configs[4]["tol"]) == (1e-5, 1e-7)
        assert configs[4]["json"] is False
        assert all(c["out"] is None for c in configs)
