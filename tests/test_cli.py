import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repfn.cli import _HANDLERS, _json_text, build_parser, main
from repfn.constructions import shifted_doubling
from repfn.groups import subset_from_text


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    return code, json.loads(out)


def assert_no_floats(obj, path="$"):
    if isinstance(obj, float):
        raise AssertionError(f"float leaked into JSON at {path}: {obj!r}")
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert_no_floats(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            assert_no_floats(v, f"{path}[{i}]")


class TestSinger:
    def test_json_body(self, capsys):
        code, body = run_json(["singer", "--p", "3"], capsys)
        assert code == 0
        assert body["orders"] == [13]
        assert body["elements"] == [0, 1, 3, 9]
        assert body["p"] == 3 and body["n"] == 13 and body["card"] == 4
        assert body["manifest"]["subcommand"] == "singer"
        assert_no_floats(body)

    def test_text_format_round_trips(self, capsys):
        code, out, _ = run_cli(["singer", "--p", "3", "--text"], capsys)
        assert code == 0
        subset = subset_from_text(out)
        assert subset.group.orders == (13,)
        assert list(subset.elements()) == [0, 1, 3, 9]

    def test_nonprime_rejected(self, capsys):
        code, out, err = run_cli(["singer", "--p", "4"], capsys)
        assert code == 64
        assert out == ""
        assert "prime" in err


class TestConstruct:
    def test_sidon_body(self, capsys):
        code, body = run_json(["construct", "--theorem", "12b", "--p", "2"], capsys)
        assert code == 0
        assert body["theorem"] == "12b"
        assert body["m"] == 7 and body["s2"] == 3
        assert body["elements"] == [0, 1, 3]

    def test_half_period_body(self, capsys):
        code, body = run_json(["construct", "--theorem", "13b", "--p", "2"], capsys)
        assert code == 0
        assert body["m"] == 14 and body["s4"] == 6
        assert body["elements"] == [0, 2, 6, 7, 9, 13]

    def test_explicit_shift(self, capsys):
        code, body = run_json(
            ["construct", "--theorem", "11b", "--p", "3", "--l", "2"], capsys
        )
        assert code == 0
        assert body["l"] == 2
        assert body["elements"] == sorted(shifted_doubling(3, 2).elements())

    def test_scan_report(self, capsys, monkeypatch):
        # the scan emits the set it has already re-checked, without
        # building and profiling it again
        def rebuilt(p, l):
            raise AssertionError("scan mode rebuilt the best shift")

        monkeypatch.setattr("repfn.cli.shifted_doubling", rebuilt)
        code, body = run_json(["construct", "--theorem", "11b", "--p", "3"], capsys)
        assert code == 0
        assert body["best_l"] == 2
        assert body["x_odd"] == 3
        assert len(body["per_l"]) == 13
        assert all(len(triple) == 3 for triple in body["per_l"])
        assert sum(t[1] for t in body["per_l"]) == 9
        assert body["avg_even"] == {"num": 9, "den": 13}
        # the emitted set is the best-shift construction
        assert body["elements"] == sorted(shifted_doubling(3, body["best_l"]).elements())
        assert_no_floats(body)

    def test_shift_flags_only_for_doubling_family(self, capsys):
        code, _, err = run_cli(
            ["construct", "--theorem", "12b", "--p", "3", "--l", "0"], capsys
        )
        assert code == 64
        assert "11b" in err

    def test_out_of_range_shift(self, capsys):
        code, _, _ = run_cli(
            ["construct", "--theorem", "11b", "--p", "2", "--l", "7"], capsys
        )
        assert code == 64


class TestPipelines:
    def test_construct_output_feeds_spectrum(self, capsys, tmp_path):
        setfile = tmp_path / "set.json"
        code, _, _ = run_cli(
            ["construct", "--theorem", "13b", "--p", "3", "--out", str(setfile)], capsys
        )
        assert code == 0
        code, out, _ = run_cli(
            ["spectrum", "--in", str(setfile), "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines() == ["0,6", "2,8", "4,12", "max_rep,4"]

    def test_spectrum_json_body(self, capsys, tmp_path):
        setfile = tmp_path / "set.json"
        run_cli(["singer", "--p", "2", "--out", str(setfile)], capsys)
        code, body = run_json(["spectrum", "--in", str(setfile)], capsys)
        assert code == 0
        assert body["orders"] == [7] and body["card"] == 3
        assert body["histogram"] == {"0": 1, "1": 3, "2": 3}
        assert body["max_rep"] == 2 and body["mass"] == 9
        assert_no_floats(body)

    def test_diff_profile_flat_on_difference_sets(self, capsys, tmp_path):
        setfile = tmp_path / "set.json"
        run_cli(["singer", "--p", "3", "--out", str(setfile)], capsys)
        code, body = run_json(["diff-profile", "--in", str(setfile)], capsys)
        assert code == 0
        assert body["counts"][0] == 4
        assert body["counts"][1:] == [1] * 12

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("orders 5\n0\n1\n"))
        code, body = run_json(["spectrum"], capsys)
        assert code == 0
        assert body["histogram"] == {"0": 2, "1": 2, "2": 1}

    def test_text_output_feeds_diff_profile(self, capsys, tmp_path):
        setfile = tmp_path / "set.txt"
        run_cli(["singer", "--p", "2", "--text", "--out", str(setfile)], capsys)
        code, out, _ = run_cli(
            ["diff-profile", "--in", str(setfile), "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines() == [f"{g},{c}" for g, c in enumerate([3, 1, 1, 1, 1, 1, 1])]

    def test_cross_check_flag(self, capsys, tmp_path):
        setfile = tmp_path / "set.json"
        run_cli(["construct", "--theorem", "13b", "--p", "3", "--out", str(setfile)], capsys)
        code, body = run_json(
            ["spectrum", "--in", str(setfile), "--method", "fast", "--cross-check"], capsys
        )
        assert code == 0
        assert body["max_rep"] == 4

    def test_methods_agree_byte_for_byte(self, capsys, tmp_path):
        setfile = tmp_path / "set.json"
        run_cli(["construct", "--theorem", "12b", "--p", "5", "--out", str(setfile)], capsys)
        bodies = []
        for method in ("naive", "fast"):
            _, body = run_json(
                ["spectrum", "--in", str(setfile), "--method", method], capsys
            )
            del body["manifest"]
            bodies.append(json.dumps(body, sort_keys=True))
        assert bodies[0] == bodies[1]


class TestVerify:
    def test_clean_run_exits_zero(self, capsys):
        code, body = run_json(["verify", "--trials", "10", "--seed", "7"], capsys)
        assert code == 0
        assert body["counts"]["fails"] == 0
        assert body["counts"]["holds"] > 0
        assert len(body["reports"]) == body["counts"]["holds"] + body["counts"]["fails"] + body["counts"]["not_applicable"]
        assert_no_floats(body)

    def test_byte_identical_up_to_wall_time(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(["verify", "--trials", "5", "--seed", "11"], capsys)
            assert code == 0
            outs.append(out)
        scrub = lambda s: re.sub(r'"wall_time_us": \d+', '"wall_time_us": 0', s)
        assert scrub(outs[0]) == scrub(outs[1])

    def test_seed_is_echoed_once_under_flags(self, capsys, tmp_path):
        setfile = tmp_path / "set.json"
        run_cli(["singer", "--p", "3", "--out", str(setfile)], capsys)
        for argv in (
            ["singer", "--p", "3"],
            ["construct", "--theorem", "12b", "--p", "5"],
            ["spectrum", "--in", str(setfile)],
            ["diff-profile", "--in", str(setfile)],
            ["ruzsa", "--m", "7", "--r", "3"],
            ["ruzsa", "--m", "12", "--mode", "heuristic", "--seed", "3"],
            ["verify", "--trials", "5", "--seed", "11"],
        ):
            _, body = run_json(argv, capsys)
            assert "seed" not in body["manifest"], argv
        assert body["manifest"]["flags"]["seed"] == 11

    def test_suite_and_trials_flags(self, capsys):
        code, body = run_json(
            ["verify", "--suite", "lemmas", "--trials", "0", "--seed", "0"], capsys
        )
        assert code == 0
        assert body["suite"] == "lemmas"
        assert {r["claim_id"] for r in body["reports"]} == {"LEMMA_QUADRATIC", "LEMMA_CARD"}

    def test_negative_trials_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "--trials", "-3"], capsys)
        assert code == 64


class TestRuzsa:
    def test_value_search(self, capsys):
        code, body = run_json(["ruzsa", "--m", "10"], capsys)
        assert code == 0
        assert body["status"] == "VALUE"
        assert body["value"] == 4 and body["lo"] == 4 and body["hi"] == 4
        assert body["probes"] == [[1, "UNSAT"], [2, "UNSAT"], [3, "UNSAT"], [4, "SAT"]]
        assert body["certificate"]["verified"] is True
        assert body["unsat_record"]["status"] == "UNSAT"
        assert "threads" not in body
        assert_no_floats(body)

    def test_decision_exit_codes(self, capsys):
        code, body = run_json(["ruzsa", "--m", "7", "--r", "3"], capsys)
        assert code == 0 and body["status"] == "SAT"
        assert "threads" not in body
        code, body = run_json(["ruzsa", "--m", "7", "--r", "2"], capsys)
        assert code == 1 and body["status"] == "UNSAT"
        code, body = run_json(
            ["ruzsa", "--m", "13", "--r", "4", "--budget", "1"], capsys
        )
        assert code == 2 and body["status"] == "EXHAUSTED"

    def test_exhausted_value_search_brackets(self, capsys):
        code, body = run_json(["ruzsa", "--m", "16", "--budget", "50"], capsys)
        assert code == 2
        assert body["status"] == "EXHAUSTED"
        assert body["value"] is None
        assert body["lo"] <= 5 <= body["hi"]
        assert body["certificate"]["verified"] is True

    def test_heuristic_mode(self, capsys):
        code, body = run_json(
            ["ruzsa", "--m", "12", "--r", "4", "--mode", "heuristic", "--budget", "2000"],
            capsys,
        )
        assert code == 0
        assert body["status"] == "SAT"
        assert body["achieved_r"] <= 4
        assert body["certificate"]["verified"] is True

    def test_heuristic_misses_impossible_target(self, capsys):
        code, body = run_json(
            ["ruzsa", "--m", "9", "--r", "1", "--mode", "heuristic", "--budget", "500"],
            capsys,
        )
        assert code == 2
        assert body["status"] == "EXHAUSTED"
        assert body["achieved_r"] > 1

    def test_zero_budget_usage_error(self, capsys):
        for extra in (["--r", "3"], [], ["--r", "3", "--mode", "heuristic"]):
            code, out, err = run_cli(["ruzsa", "--m", "10", "--budget", "0", *extra], capsys)
            assert code == 64
            assert out == ""
            assert "budget" in err

    def test_threads_flag_needs_heuristic_mode(self, capsys):
        for extra in (["--r", "3"], []):
            code, out, err = run_cli(["ruzsa", "--m", "7", *extra, "--threads", "2"], capsys)
            assert code == 64
            assert out == ""
            assert "--threads" in err

    def test_seed_flag_needs_heuristic_mode(self, capsys):
        # Exact mode has no randomness: it refuses --seed, and its manifest
        # echoes neither heuristic flag
        for extra in (["--r", "3"], []):
            code, out, err = run_cli(["ruzsa", "--m", "7", *extra, "--seed", "5"], capsys)
            assert code == 64
            assert out == ""
            assert "--seed" in err
            code, body = run_json(["ruzsa", "--m", "7", *extra], capsys)
            assert code == 0
            assert "seed" not in body["manifest"]["flags"]
            assert "threads" not in body["manifest"]["flags"]

    def test_nonpositive_cap_usage_error(self, capsys):
        for r in ("0", "-4"):
            for mode in ("exact", "heuristic"):
                code, out, _ = run_cli(["ruzsa", "--m", "8", "--r", r, "--mode", mode], capsys)
                assert code == 64, (r, mode)
                assert out == ""

    def test_nonpositive_modulus_usage_error(self, capsys):
        for m in ("0", "-3"):
            for extra in ([], ["--r", "2"], ["--mode", "heuristic"]):
                code, out, err = run_cli(["ruzsa", "--m", m, *extra], capsys)
                assert code == 64, (m, extra)
                assert out == ""
                assert "modulus" in err

    def test_threads_default_one(self, capsys):
        # the body carries the worker count used; the manifest echoes the
        # flag as given
        code, body = run_json(
            ["ruzsa", "--m", "8", "--r", "4", "--mode", "heuristic", "--budget", "200"],
            capsys,
        )
        assert code == 0
        assert body["threads"] == 1
        assert body["manifest"]["flags"]["threads"] is None


class TestErrorPaths:
    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["spectrum", "--in", str(tmp_path / "nope.json")], capsys
        )
        assert code == 66
        assert err.startswith("repfn:")

    def test_malformed_set_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"orders": [7]}')  # elements key missing
        code, _, _ = run_cli(["spectrum", "--in", str(bad)], capsys)
        assert code == 66

    def test_non_integer_set_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"orders": [7.9], "elements": [1.5, 2.2]}')
        code, out, err = run_cli(["spectrum", "--in", str(bad)], capsys)
        assert code == 66
        assert out == ""
        assert "integers" in err

    def test_non_utf8_set_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"orders 7\n1\n\xff\n")
        code, out, err = run_cli(["spectrum", "--in", str(bad)], capsys)
        assert code == 66
        assert out == ""
        assert "not UTF-8" in err

    def test_non_utf8_stdin(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"orders 7\n1\n\xff\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(["diff-profile"], capsys)
        assert code == 66
        assert out == ""
        assert "not UTF-8" in err

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x.json"
        code, out, err = run_cli(["singer", "--p", "7", "--out", str(target)], capsys)
        assert code == 73
        assert out == ""
        assert err.startswith(f"repfn: cannot write {target}: ")
        assert not target.parent.exists()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["singer"])
        assert exc.value.code == 64

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repfn" in capsys.readouterr().out


class TestSerialization:
    def test_int_lists_copied_and_floats_refused(self):
        counts = tuple(range(1000))
        out = _json_text({"counts": counts, "mixed": [1, True, None]})
        assert out == json.dumps(
            {"counts": list(counts), "mixed": [1, True, None]}, indent=2, sort_keys=True
        )
        with pytest.raises(TypeError):
            _json_text([1, 2, 3.0])
        with pytest.raises(TypeError):
            _json_text({"counts": (0, 1, 0.5)})


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repfn", "singer", "--p", "2", "--text"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "orders 7\n0\n1\n3\n"


def test_readme_commands_parse():
    # every repfn command in the README's command-line block, pipelines
    # split on |, must parse with the current flags
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        while words:
            cut = words.index("|") if "|" in words else len(words)
            if words[0] == "repfn":
                commands.append(words[1:cut])
            words = words[cut + 1:]
    for argv in commands:
        build_parser().parse_args(argv)
    assert {argv[0] for argv in commands} == set(_HANDLERS)
