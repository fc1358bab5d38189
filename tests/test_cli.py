import argparse
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
import weakref
from collections import OrderedDict, namedtuple
from decimal import Decimal
from enum import Enum, IntEnum
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from repfn import cli, profiles, singer
from repfn.bounds import (
    SUITE_NAMES,
    BoundReport,
    CheckStatus,
    ClaimId,
    SuiteCase,
    run_verification_suite,
)
from repfn.cli import _HANDLERS, _json_text, _report_rows, main
from repfn.constructions import shifted_doubling
from repfn.groups import Group, GroupSubset, read_subset, subset_from_text


Pair = namedtuple("Pair", "left right")


class Colour(str, Enum):
    RED = "red"
    GREEN = "gr\u00fcn"


class Phase(Enum):
    DONE = "done"
    STEP = 3


class Level(IntEnum):
    LOW = -1
    HIGH = 2**70


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    return code, json.loads(out)


def json_argvs(setfile):
    """One JSON-emitting command per subcommand, both ruzsa modes included."""
    return (
        ["singer", "--p", "3"],
        ["construct", "--theorem", "12b", "--p", "5"],
        ["spectrum", "--in", str(setfile)],
        ["diff-profile", "--in", str(setfile)],
        ["ruzsa", "--m", "7", "--r", "3"],
        ["ruzsa", "--m", "12", "--mode", "heuristic", "--seed", "3"],
        ["verify", "--trials", "5", "--seed", "11"],
    )


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

    def test_over_bound_exits_64_before_trial_division(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"trial division of {n}")

        monkeypatch.setattr(singer, "is_prime", refuse)
        for argv in (
            ["singer", "--p", "10000000000000061"],
            ["construct", "--theorem", "11b", "--p", "1000000000000000000000000000057"],
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == 64
            assert out == ""
            assert err == f"repfn: {argv[-1]} exceeds the configured prime bound 1000\n"


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
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"orders 5\n0\n1\n")))
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

    def test_diff_profile_csv_lines_match_the_json_counts(self, capsys, tmp_path):
        rng = np.random.default_rng(27)
        g = Group((4, 5, 7, 9))
        mixed = GroupSubset.from_elements(g, rng.choice(g.order, 300, replace=False).tolist())
        mixed_file = tmp_path / "mixed.json"
        mixed_file.write_text(mixed.to_json(), encoding="utf-8")
        singer401 = Path(__file__).resolve().parent.parent / "perfbench" / "singer401.json"
        for setfile, order in ((singer401, 161203), (mixed_file, 1260)):
            code, out, _ = run_cli(["diff-profile", "--in", str(setfile), "--format", "csv"], capsys)
            assert code == 0
            _, body = run_json(["diff-profile", "--in", str(setfile)], capsys)
            assert len(body["counts"]) == order
            assert out == "".join(f"{g},{c}\n" for g, c in enumerate(body["counts"]))

    def test_diff_profile_csv_is_the_percent_format_text(self, capsys, tmp_path):
        # Byte for byte the text "%d,%d\n" % (g, count) writes, on cyclic and
        # multi-factor groups, with fields of one to six digits.
        rng = np.random.default_rng(31)
        shapes = [
            Group.cyclic(1), Group.cyclic(10), Group.cyclic(10007), Group((2, 2, 2)),
            Group((4, 5, 7, 9)), Group((3, 10, 100)),
        ]
        subsets = [
            GroupSubset.from_elements(g, rng.choice(g.order, size, replace=False).tolist())
            for g in shapes
            for size in sorted({0, 1, g.order // 3, g.order})
        ]
        subsets.append(read_subset(Path(__file__).resolve().parent.parent / "perfbench" / "singer401.json"))
        widths = set()
        for subset in subsets:
            setfile = tmp_path / "set.json"
            setfile.write_text(subset.to_json(), encoding="utf-8")
            code, out, _ = run_cli(["diff-profile", "--in", str(setfile), "--format", "csv"], capsys)
            assert code == 0
            counts = profiles.rep_diff_profile(subset).array.tolist()
            order = subset.group.order
            assert out == "%d,%d\n" * order % tuple(x for g in range(order) for x in (g, counts[g]))
            widths.update((len(str(order - 1)), len(str(max(counts)))))
        assert widths == {1, 2, 3, 4, 5, 6}

    def test_cross_check_flag(self, capsys, tmp_path):
        setfile = tmp_path / "set.json"
        run_cli(["construct", "--theorem", "13b", "--p", "3", "--out", str(setfile)], capsys)
        code, body = run_json(
            ["spectrum", "--in", str(setfile), "--cross-check"], capsys
        )
        assert code == 0
        assert body["max_rep"] == 4

    def test_cross_check_disagreement_exits_70(self, capsys, monkeypatch, tmp_path):
        setfile = tmp_path / "set.json"
        run_cli(["construct", "--theorem", "13b", "--p", "3", "--out", str(setfile)], capsys)
        fast = profiles.rep_profile_fast

        def one_count_off(a, b=None):
            counts = fast(a, b).counts
            return profiles.RepProfile(a.group, (counts[0] + 1, *counts[1:]))

        monkeypatch.setattr(profiles, "rep_profile_fast", one_count_off)
        code, _, err = run_cli(["spectrum", "--in", str(setfile), "--cross-check"], capsys)
        assert code == 70
        assert "disagree" in err

    def test_no_engine_override_flag(self, capsys):
        # The engine is picked from the input; there is no flag to force one.
        for command in ("spectrum", "diff-profile"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--method", "naive"])
            assert exc.value.code == 64
            assert "--method" in capsys.readouterr().err

    def test_methods_agree_byte_for_byte(self, capsys, monkeypatch, tmp_path):
        setfile = tmp_path / "set.json"
        run_cli(["construct", "--theorem", "12b", "--p", "5", "--out", str(setfile)], capsys)
        bodies = []
        for engine in ("naive", "fast"):
            monkeypatch.setattr(profiles, "_choose_engine", lambda a, b, engine=engine: engine)
            _, body = run_json(["spectrum", "--in", str(setfile)], capsys)
            del body["manifest"]
            bodies.append(json.dumps(body, sort_keys=True))
        assert bodies[0] == bodies[1]


class TestSparseSpectrum:
    """spectrum without --cross-check takes a set with fewer pairs than
    group elements from its distinct pair sums, not from a profile."""

    GROUPS = ((1000,), (2,) * 10, (4, 8, 16), (3, 5, 7, 11), (1, 97, 1, 6), (2, 2, 9, 25))

    def test_body_matches_the_profile_route(self, monkeypatch, tmp_path):
        rng = random.Random(23)
        profiled = []
        monkeypatch.setattr(cli, "rep_profile", lambda *a, **k: profiled.append(k) or (
            profiles.rep_profile(*a, **k)))
        setfile = tmp_path / "set.json"
        for orders in self.GROUPS:
            group = Group(orders)
            for size in (0, 1, 2, 3, math.isqrt(group.order - 1)):
                a = GroupSubset.from_elements(group, rng.sample(range(group.order), size))
                setfile.write_text(json.dumps(a.to_json_dict()))
                for fmt in ("json", "csv"):
                    bodies = []
                    for cross_check in (False, True):
                        args = argparse.Namespace(inp=str(setfile), format=fmt,
                                                  cross_check=cross_check)
                        body, code = cli._cmd_spectrum(args)
                        assert code == 0
                        bodies.append(body if fmt == "csv" else _json_text(body))
                    assert bodies[0] == bodies[1], (orders, a.elements(), fmt)
                    # Only the --cross-check run built a profile.
                    assert profiled == [{"cross_check": True}]
                    profiled.clear()

    def test_peak_memory_at_z2_20(self, capsys, tmp_path):
        # The profile route's count array alone is 8 MiB at Z_2^20; the set's
        # mask is 1 MiB.
        setfile = tmp_path / "z2_20.txt"
        setfile.write_text("orders " + " ".join(["2"] * 20) + "\n0\n77\n")
        tracemalloc.start()
        try:
            code = main(["spectrum", "--in", str(setfile)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["histogram"] == {"0": 2**20 - 2, "2": 2}
        assert peak < 2 * 2**20, peak


class TestVerify:
    def test_clean_run_exits_zero(self, capsys):
        code, body = run_json(["verify", "--trials", "10", "--seed", "7"], capsys)
        assert code == 0
        assert body["counts"]["fails"] == 0
        assert body["counts"]["holds"] > 0
        assert len(body["reports"]) == body["counts"]["holds"] + body["counts"]["fails"] + body["counts"]["not_applicable"]
        assert_no_floats(body)

    def test_byte_identical_up_to_wall_time(self, capsys, tmp_path):
        # every subcommand: two runs give the same bytes but wall_time_us,
        # every JSON body carries the same manifest keys, and text and CSV
        # bodies carry none
        setfile = tmp_path / "set.json"
        run_cli(["singer", "--p", "3", "--out", str(setfile)], capsys)
        scrub = lambda s: re.sub(r'"wall_time_us": \d+', '"wall_time_us": 0', s)
        for argv in json_argvs(setfile):
            outs = []
            for _ in range(2):
                code, out, _ = run_cli(argv, capsys)
                assert code == 0, argv
                outs.append(scrub(out))
            assert outs[0] == outs[1], argv
            assert set(json.loads(out)["manifest"]) == {
                "subcommand", "version", "flags", "input", "output", "wall_time_us",
            }, argv
        for argv in (
            ["singer", "--p", "3", "--text"],
            ["spectrum", "--in", str(setfile), "--format", "csv"],
            ["diff-profile", "--in", str(setfile), "--format", "csv"],
        ):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0, argv
            assert "manifest" not in out and "wall_time_us" not in out, argv

    def test_every_json_body_has_the_json_dumps_layout(self, capsys, tmp_path):
        setfile = tmp_path / "set.json"
        run_cli(["singer", "--p", "3", "--out", str(setfile)], capsys)
        for argv in json_argvs(setfile):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0, argv
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv

    def test_max_m_below_two_names_the_flag(self, capsys):
        for max_m in ("1", "0", "-5"):
            code, out, err = run_cli(["verify", "--max-m", max_m, "--trials", "2"], capsys)
            assert code == 64
            assert out == ""
            assert err == "repfn: --max-m must be at least 2\n"

    def test_seed_is_echoed_once_under_flags(self, capsys, tmp_path):
        setfile = tmp_path / "set.json"
        run_cli(["singer", "--p", "3", "--out", str(setfile)], capsys)
        for argv in json_argvs(setfile):
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

    # sha256 of the body with its wall_time_us line dropped, recorded from the
    # encoder and evaluator that built every report as a frozen dataclass.
    PINNED_BODIES = {
        "--trials 500 --seed 777":
            "c1997a9d32571e1b587c6706bf9a27140a0735d44ab0dc7e986c11a9bd86d54c",
        "--trials 100 --max-m 2048 --seed 5":
            "89cbbf776a13122c4a15b7be5de4722327bba0031cff7fb8e13e13a4daa59007",
    }

    @pytest.mark.parametrize("flags", sorted(PINNED_BODIES))
    def test_body_pinned(self, capsys, flags):
        code, out, _ = run_cli(["verify", *flags.split()], capsys)
        assert code == 0
        kept = "".join(
            line for line in out.splitlines(keepends=True) if "wall_time_us" not in line
        )
        assert hashlib.sha256(kept.encode()).hexdigest() == self.PINNED_BODIES[flags]


class TestReportRows:
    """The verify body's reports, written as rows of one template, against
    the list of one dict per report that they stand for."""

    @staticmethod
    def report_dicts(cases):
        return [
            {
                "case": case.label,
                "orders": list(case.orders),
                "card": case.card,
                "claim_id": r.claim_id.value,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "status": r.status.value,
                "holds": r.status is CheckStatus.HOLDS,
                "slack": r.slack,
                "note": r.note,
                "extra": r.extra,
            }
            for case in cases
            for r in case.reports
        ]

    @pytest.mark.parametrize("max_m", (2, 128, 2048))
    @pytest.mark.parametrize("trials", (0, 3, 50))
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_body_matches_one_dict_per_report(self, monkeypatch, suite, trials, max_m):
        results = []
        monkeypatch.setattr(cli, "run_verification_suite", lambda *a: results.append(
            run_verification_suite(*a)) or results[-1])
        for seed in (0, 5, 11):
            args = argparse.Namespace(suite=suite, trials=trials, seed=seed, max_m=max_m)
            body, code = cli._cmd_verify(args)
            assert code == (0 if results[-1].ok else 1)
            dicts = self.report_dicts(results[-1].cases)
            assert _json_text(body) == _json_text({**body, "reports": dicts})
            assert _json_text(body["reports"]) == _json_text(dicts)

    NOTES = ('50% of "m" \\ %s\ttab \u00e9', "%s", "%(x)s %%", "", "\u2211 \U0001d53d \u2028")
    LABELS = ('100% "sure" \\ %s\t', "gr\u00fcn %d", "%")
    VALUES = (1, True, Fraction(1), Fraction(-3, 4), 0, False, -(2**70))

    def hand_built_cases(self):
        extras = ({"k": 1}, {"k": True}, {"k": Fraction(1)}, {"k": Fraction(-3, 4)},
                  {"k": None, "a": "%s"}, {})
        statuses = tuple(CheckStatus)
        claim_ids = (ClaimId.QUADRATIC, ClaimId.S0_LOWER)
        cases = []
        for c, label in enumerate(self.LABELS):
            reports = []
            for i in range(24):
                value = self.VALUES[(i + c) % len(self.VALUES)]
                reports.append(BoundReport(
                    claim_ids[i % 2], value, self.VALUES[i % 5], statuses[i % 3],
                    None if i % 4 == 3 else value, self.NOTES[i % len(self.NOTES)],
                    # A fresh dict each time: equal extras share one memo entry.
                    dict(extras[i % len(extras)]),
                ))
            cases.append(SuiteCase(label, (c + 2, 3), c, tuple(reports)))
            # A case with no reports writes no row.
            cases.append(SuiteCase(label + " none", (5,), 0, ()))
        return cases

    def test_rows_keep_types_and_escapes_apart(self):
        cases = self.hand_built_cases()
        plain = TestSerialization.plain(self.report_dicts(cases))
        assert _json_text(_report_rows(cases)) == json.dumps(plain, indent=2, sort_keys=True)
        assert _json_text({"reports": _report_rows(cases), "z": [_report_rows(cases[:1])]}) == (
            json.dumps({"reports": plain, "z": [plain[:24]]}, indent=2, sort_keys=True))

    def test_no_reports(self):
        for cases in ([], [SuiteCase("a", (2,), 1, ())]):
            assert _json_text(_report_rows(cases)) == "[]"
            assert _json_text({"reports": _report_rows(cases)}) == json.dumps(
                {"reports": []}, indent=2)

    def test_default_extra_is_written_as_the_dict_it_holds(self):
        # A report built by hand keeps the shared read-only default extra;
        # a read-only mapping with keys is written as its dict too.
        default = BoundReport(ClaimId.QUADRATIC, 3, Fraction(5, 2), CheckStatus.HOLDS,
                              Fraction(1, 2), "by hand")
        assert type(default.extra) is MappingProxyType
        held = default._replace(extra=MappingProxyType({"b": [1, 2], "a": Fraction(-1, 3)}))
        cases = [SuiteCase("a", (7,), 2, (default, held, default))]
        dicts = [{**d, "extra": dict(d["extra"])} for d in self.report_dicts(cases)]
        expected = json.dumps(TestSerialization.plain(dicts), indent=2, sort_keys=True)
        assert _json_text(_report_rows(cases)) == expected
        assert _json_text({"reports": _report_rows(cases)}) == json.dumps(
            {"reports": TestSerialization.plain(dicts)}, indent=2, sort_keys=True)

    @pytest.mark.parametrize("extra", ({"k": 1.5}, {1: 0}, {"k": [Decimal(1)]}), ids=repr)
    def test_refuses_what_the_encoder_refuses(self, extra):
        report = BoundReport(ClaimId.QUADRATIC, 1, 1, CheckStatus.HOLDS, 0, "", extra)
        for extras in ([extra], [{"k": 1}, extra], [extra, extra]):
            cases = [SuiteCase("a", (2,), 1, tuple(report._replace(extra=e) for e in extras))]
            with pytest.raises(TypeError):
                _json_text(_report_rows(cases))
            with pytest.raises(TypeError):
                _json_text(self.report_dicts(cases))


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

    def test_deep_decision_exhausts(self, capsys):
        # 2000 nodes reach more than a thousand elements deep
        code, body = run_json(["ruzsa", "--m", "1200", "--r", "8", "--budget", "2000"], capsys)
        assert code == 2
        assert body["status"] == "EXHAUSTED"
        assert body["nodes"] == 2001
        assert body["certificate"] is None

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
        # the message names the budget the mode reads: nodes or moves
        for extra, unit in (
            (["--r", "3"], "node"),
            ([], "node"),
            (["--r", "3", "--mode", "heuristic"], "move"),
        ):
            code, out, err = run_cli(["ruzsa", "--m", "10", "--budget", "0", *extra], capsys)
            assert code == 64
            assert out == ""
            assert err == f"repfn: {unit} budget must be positive\n"

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

    def test_non_utf8_stdin_under_the_c_locale(self):
        # stdin is read as bytes and decoded as UTF-8 whatever the locale
        env = {k: v for k, v in os.environ.items() if k not in ("LANG", "LC_CTYPE")}
        proc = subprocess.run(
            [sys.executable, "-m", "repfn", "spectrum"],
            input=b"orders 7\n1\n\xff\n", capture_output=True, timeout=60,
            env={**env, "LC_ALL": "C"},
        )
        assert proc.returncode == 66
        assert proc.stdout == b""
        assert b"not UTF-8" in proc.stderr

    def test_group_too_large_to_load(self, capsys, monkeypatch, tmp_path):
        # The mask of a group of order 10^12 is refused before any
        # allocation, as a MemoryError like numpy's own.
        zeros = np.zeros

        def refuse_huge(shape, *args, **kwargs):
            if shape == 10**12:
                raise MemoryError
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", refuse_huge)
        text = tmp_path / "big.txt"
        text.write_text("orders 1000000000000\n1\n")
        doc = tmp_path / "big.json"
        doc.write_text('{"orders": [1000000000000], "elements": [1]}')
        for path in (text, doc):
            code, out, err = run_cli(["spectrum", "--in", str(path)], capsys)
            assert code == 66, path
            assert out == ""
            assert err == "repfn: invalid set file: a group of order 1000000000000 is too large to load\n"

    def test_order_past_int64_too_large_to_load(self, capsys, monkeypatch):
        # numpy refuses a length of 2^63 or more with a ValueError before it
        # allocates anything; that reads as the same message as a MemoryError.
        order = 2**63
        for data in (
            f"orders {order}\n1\n",
            f'{{"orders": [{order // 2}, 2], "elements": [1]}}',
        ):
            stdin = io.TextIOWrapper(io.BytesIO(data.encode()), encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stdin)
            code, out, err = run_cli(["spectrum", "--in", "-"], capsys)
            assert code == 66, data
            assert out == ""
            assert err == f"repfn: invalid set file: a group of order {order} is too large to load\n"

    def test_out_of_memory_exits_71(self, capsys, monkeypatch):
        # A MemoryError past loading the set; nothing is allocated here
        for exc, line in (
            (MemoryError("Unable to allocate 2.00 GiB"), "out of memory: Unable to allocate 2.00 GiB"),
            (MemoryError(), "out of memory"),
        ):
            def exhaust(args, exc=exc):
                raise exc

            monkeypatch.setitem(_HANDLERS, "ruzsa", exhaust)
            code, out, err = run_cli(["ruzsa", "--m", "7", "--r", "3"], capsys)
            assert code == 71
            assert out == ""
            assert err == f"repfn: {line}\n"

    def test_random_group_past_int64_exits_71(self, capsys):
        # At this seed the one random trial draws a cyclic group of order
        # past 2^63, which numpy refuses with a ValueError before it
        # allocates anything.
        argv = ["verify", "--trials", "1", "--max-m", str(2**64), "--seed", "4"]
        code, out, err = run_cli(argv, capsys)
        assert code == 71
        assert out == ""
        match = re.fullmatch(r"repfn: out of memory: a group of order (\d+) is too large to load\n", err)
        assert match and 2**63 <= int(match[1]) <= 2**64

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_modulus_too_large_to_build_exits_71(self, capsys, mode):
        # The slots of Z_m for m = 10^20 need more digits than an int may
        # have; the heuristic finds its seed pool in closed form first.
        argv = ["ruzsa", "--m", str(10**20), "--budget", "1", "--mode", mode]
        code, out, err = run_cli(argv, capsys)
        assert code == 71
        assert out == ""
        assert err == f"repfn: out of memory: --m {10**20} is too large to search\n", err

    def test_more_factors_than_numpy_dimensions(self, capsys, monkeypatch):
        # Seventy order-1 factors and Z_5: a group of order 5 whose orders
        # are echoed as given
        orders = [1] * 70 + [5]
        text = "orders " + " ".join(map(str, orders)) + "\n0\n1\n"
        bodies = []
        for cmd in ("spectrum", "diff-profile"):
            for data in (text, "orders 5\n0\n1\n"):
                stdin = io.TextIOWrapper(io.BytesIO(data.encode()), encoding="utf-8")
                monkeypatch.setattr("sys.stdin", stdin)
                code, body = run_json([cmd, "--cross-check"], capsys)
                assert code == 0, cmd
                bodies.append(body)
        for many, bare in zip(bodies[::2], bodies[1::2]):
            assert many.pop("orders") == orders
            assert bare.pop("orders") == [5]
            del many["manifest"], bare["manifest"]
            assert many == bare

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


def test_emit_peak_memory_on_the_p401_diff_profile(tmp_path):
    # The counts' text is written as a run of its own, never joined with the
    # rest of the body or copied to add the newline: 2.48 MiB at the peak
    # for a 1.08 MiB body.  One joined text plus a copy with "\n" peaked at
    # 4.31 MiB.
    a = read_subset(Path(__file__).resolve().parent.parent / "perfbench" / "singer401.json")
    counts = profiles.rep_diff_profile(a).array
    body = {"orders": [a.group.order], "card": a.card, "counts": counts}
    out = tmp_path / "d.json"
    tracemalloc.start()
    try:
        cli._emit(body, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text() == json.dumps({**body, "counts": counts.tolist()}, indent=2,
                                         sort_keys=True) + "\n"
    assert peak < 2.5 * 8 * a.group.order, peak


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

    @staticmethod
    def plain(value):
        """value with each Fraction and Enum replaced as the encoder writes it."""
        if isinstance(value, Fraction):
            return {"num": value.numerator, "den": value.denominator}
        if isinstance(value, Enum):
            return TestSerialization.plain(value.value)
        if isinstance(value, dict):
            return {k: TestSerialization.plain(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [TestSerialization.plain(v) for v in value]
        return value

    CORPUS = (
        {},
        [],
        "",
        0,
        None,
        True,
        {"a": {"b": {}, "c": [], "d": [[], {}, [[]]]}, "e": [{"f": {}}]},
        (1, (2, 3), ("x", None)),
        Pair(1, "two"),
        OrderedDict(b=1, a=[2]),
        {"pair": Pair(Pair(0, -1), [Fraction(4)])},
        {"s": 'quote " back \\ tab \t nul \x00 bell \x07 del \x7f',
         "u": "\u00e9 \u2211 \U0001d53d \u2028 \u2029 \ufeff", "": ""},
        ["\x1f", " ", 'a"b'],
        [-1, 0, -(2**64), 2**200, -(3**150), 10**18],
        (7,),
        [7],
        (-3,),
        (0, 1),
        [0, -1, 2**70, -(10**30)],
        {"one": (5,), "two": [(6,), (-8,)]},
        {"n": -(2**70), "m": 2**64 + 1},
        [1, True, False, 0, None],
        {"flags": [True, 1, 0, False]},
        {"status": Colour.RED, "list": [Colour.GREEN, Level.HIGH], "level": Level.LOW},
        {"phase": Phase.DONE, "step": [Phase.STEP, Phase.DONE]},
        {"deep": [{"x": Fraction(-3, 4)}, [Fraction(4), {"y": [Fraction(-3, 4)]}]]},
        Fraction(-3, 4),
        [{"b": 1, "a": 2, "c": [3]}, {"c": [3], "a": 2, "b": 1}],
        {"z": 1, "10": 2, "9": 3, "1": 4, "A": 5, "a": 6, "_": 7, "é": 8},
        {"reports": [{"i": i, "q": Fraction(i, 7), "s": str(i)} for i in range(2000)]},
    )

    @pytest.mark.parametrize("value", CORPUS, ids=range(len(CORPUS)))
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(self.plain(value), indent=2, sort_keys=True)

    REFUSED = (
        1.5,
        Decimal("1"),
        np.int64(3),
        {1, 2},
        b"bytes",
    )

    @pytest.mark.parametrize("bad", REFUSED, ids=lambda v: type(v).__name__)
    def test_refuses_inexact_values(self, bad):
        for value in (
            bad,
            {"a": 1, "bad": bad, "z": "s"},  # the inline scalar path of the dict loop
            ["s", bad],
            [1, 2, bad],
            {"a": [{"b": (0, {"c": bad})}]},
        ):
            with pytest.raises(TypeError):
                _json_text(value)

    @pytest.mark.parametrize("key", (1, True, None, 2.5, ("a",)), ids=repr)
    def test_refuses_non_str_keys(self, key):
        for value in (
            {key: 0},
            [{"a": 1}, {key: 0, "b": 1}],
            {"a": {"b": [{key: 0}]}},
            [{str(key): 0}, {key: 0}],  # after the str key's text is kept for the call
        ):
            with pytest.raises(TypeError):
                _json_text(value)


class TestIntArrays:
    """A 1-D integer ndarray is written as the list of its values."""

    ARRAYS = (
        np.array([], dtype=np.int64),
        np.array([5]),
        np.array([0, 1, 2, 1, 0, 402]),
        np.arange(1000) % 7,
        np.arange(10)[::3],
        np.array([-5, 3, -1, 0, -5]),
        np.array([2**40, 3, 2**62, 2**40 + 1]),
        np.array([-(2**63), 2**63 - 1, 0]),
        np.array([], dtype=np.uint64),
        np.array([7], dtype=np.uint64),
        np.array([3, 1, 2, 1], dtype=np.uint64),
        np.array([2**64 - 1, 0, 2**40], dtype=np.uint64),
    )

    @pytest.mark.parametrize("arr", ARRAYS, ids=range(len(ARRAYS)))
    def test_matches_json_dumps_of_the_list(self, arr):
        values = arr.tolist()
        assert _json_text({"counts": arr}) == json.dumps({"counts": values}, indent=2)
        assert _json_text([arr, "x", arr]) == json.dumps([values, "x", values], indent=2)

    @pytest.mark.parametrize("bad", (
        np.array([1.0, 2.0]),
        np.array([True, False]),
        np.array([1, 2], dtype=object),
        np.arange(4).reshape(2, 2),
        np.array(3),
    ), ids=("float", "bool", "object", "2-D", "0-D"))
    def test_refuses_other_arrays(self, bad):
        for value in (bad, {"counts": bad}, [1, bad]):
            with pytest.raises(TypeError):
                _json_text(value)


class TestFreeze:
    """main freezes what is alive at its start, and only that, on every path.
    Each test starts unfrozen: conftest unfreezes after every test."""

    @staticmethod
    def assert_frozen():
        assert gc.get_freeze_count() > 0
        assert gc.isenabled()

    def test_success(self, capsys):
        code, out, _ = run_cli(["singer", "--p", "2", "--text"], capsys)
        assert (code, out) == (0, "orders 7\n0\n1\n3\n")
        self.assert_frozen()

    def test_malformed_set_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"orders": [7]}')
        assert run_cli(["spectrum", "--in", str(bad)], capsys)[0] == 66
        self.assert_frozen()

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["singer"])
        assert exc.value.code == 64
        self.assert_frozen()

    def test_later_cycles_are_collected(self, capsys):
        run_cli(["singer", "--p", "2"], capsys)
        marker = set()  # a set, unlike a list, takes a weak reference
        cycle = [marker]
        cycle.append(cycle)
        alive = weakref.ref(marker)
        del marker, cycle
        assert alive() is not None  # the cycle alone holds it
        gc.collect()
        assert alive() is None


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repfn", "singer", "--p", "2", "--text"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "orders 7\n0\n1\n3\n"


def readme_commands():
    """Every repfn command in the README's command-line block, pipelines
    split on |, as (argv, reads the previous output, exit code of its
    "# exit N" comment or 0, the "# a,b" CSV lines under it)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if re.fullmatch(r"# \w+,\d+", line):
            commands[-1][3].append(line[2:])
            continue
        want = re.search(r"# exit (\d+)", line)
        words = shlex.split(line, comments=True)
        piped = False
        while words:
            cut = words.index("|") if "|" in words else len(words)
            if words[0] == "repfn":
                commands.append((words[1:cut], piped, int(want[1]) if want else 0, []))
            words = words[cut + 1:]
            piped = True
    return commands


def test_readme_commands_parse(capsys, monkeypatch, tmp_path):
    # every README command parses with the current flags and runs in a fresh
    # cwd: a repfn after | reads the output of the stage before it, each
    # command exits with the code of its "# exit N" comment (0 without one),
    # and "# a,b" lines under a command are its CSV output
    commands = readme_commands()
    assert {argv[0] for argv, *_ in commands} == set(_HANDLERS)
    monkeypatch.chdir(tmp_path)
    out = ""
    for argv, piped, want, csv in commands:
        if piped:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(out.encode())))
        code, out, err = run_cli(argv, capsys)
        assert code == want, (argv, err)
        if csv:
            assert out.splitlines() == csv, argv
    # the scan and the JSON format are defaults, with no flag to restate them
    for argv in (
        ["construct", "--theorem", "11b", "--p", "3", "--scan"],
        ["singer", "--p", "3", "--json"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64


def outcome(argv, capsys):
    """(exit code, stdout with wall_time_us zeroed, stderr) of main(argv),
    whether it returns or argparse exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, re.sub(r'"wall_time_us": \d+', '"wall_time_us": 0', out), err


def subcommands(parser):
    """The names of the subparsers that parser was built with."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


class TestOneSubparser:
    """main builds only the subparser its first word names, and answers
    every argv exactly as the parser with all six does."""

    ARGVS = (
        ["--help"],
        ["--version"],
        [],
        ["nope"],
        ["singer", "--p", "3", "--bogus"],
        ["singer", "--help"],
        ["construct", "--theorem", "99b", "--p", "3"],
        ["ruzsa"],
        ["verify", "--suite", "nope"],
        ["spectrum", "--format", "xml"],
        ["--", "singer", "--p", "2"],
    )

    @staticmethod
    def use_whole_parser(monkeypatch):
        whole = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: whole())

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: shlex.join(argv) or "empty")
    def test_matches_whole_parser(self, argv, capsys, monkeypatch):
        one = outcome(argv, capsys)
        self.use_whole_parser(monkeypatch)
        assert outcome(argv, capsys) == one

    def test_readme_commands_match_whole_parser(self, capsys, monkeypatch, tmp_path):
        seen = []
        for run in ("one", "whole"):
            if run == "whole":
                self.use_whole_parser(monkeypatch)
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            out, got = "", []
            for argv, piped, _, _ in readme_commands():
                if piped:
                    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(out.encode())))
                got.append(outcome(argv, capsys))
                out = got[-1][1]
            seen.append(got)
        assert seen[0] == seen[1]

    def test_builds_only_the_named_subparser(self, capsys, monkeypatch):
        built = []
        whole = cli.build_parser

        def spy(command=None):
            parser = whole(command)
            built.append(subcommands(parser))
            return parser

        monkeypatch.setattr(cli, "build_parser", spy)
        monkeypatch.setattr("sys.argv", ["repfn", "singer", "--p", "2", "--text"])
        assert main() == 0
        assert capsys.readouterr().out == "orders 7\n0\n1\n3\n"
        outcome(["nope"], capsys)
        assert built == [["singer"], list(_HANDLERS)]
