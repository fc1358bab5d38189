"""Benchmark for the repfn CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one `repfn` command in a fresh interpreter, run one at a
time by a single client (a closed loop), so nothing cached in one process
carries over to the next.  A round runs every operation of the workload
once; rounds repeat until S seconds have passed, and every round runs the
same inputs, all generated from the seed.  Every output is checked by
checks.py, which does not import repfn, outside the timed region.

The last line printed is one JSON object: correct, attempted, failed and
the metrics.  With --trace 0 those are the end-to-end metrics, measured
untraced; with --trace 1 rounds alternate untraced and traced (spans from
tracing.py) and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from math import gcd, isqrt, prod
from pathlib import Path
from typing import Callable

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
WORK_ROOT = HERE / ".work"
OP_TIMEOUT_S = 150
EX_NOINPUT = 66
EXACT_BUDGET = 10_000_000

EXPECTED = json.loads((HERE / "expected.json").read_text())


@dataclass
class Op:
    label: str
    argv: list[str]
    # Raises checks.CheckFailed on a wrong body; None for the malformed-input
    # operations, which are judged by exit code alone and are never timed.
    check: Callable[[dict], None] | None
    expect_exit: int = 0

    @property
    def timed(self) -> bool:
        return self.check is not None


@dataclass
class Result:
    op: Op
    code: int
    launch_s: float
    setup_s: float
    time_s: float
    rss_mib: float
    out: bytes
    trace: dict | None


# -- workloads -------------------------------------------------------------------


def _write_set(work: Path, name: str, orders: list[int], elems: list[int], text: bool = False) -> str:
    elems = sorted(elems)
    if text:
        body = "orders " + " ".join(map(str, orders)) + "\n" + "".join(f"{e}\n" for e in elems)
    else:
        body = json.dumps({"orders": orders, "elements": elems})
    (work / name).write_text(body)
    return name


def _profile_ops(tag: str, path: str, orders: list[int], elems: list[int],
                 kinds: tuple[str, ...] = ("spectrum", "diff-profile")) -> list[Op]:
    """spectrum and/or diff-profile of one set file, checked against profiles
    recomputed once by checks.py."""
    elems = sorted(elems)
    cache: dict[str, list[int]] = {}

    def own(kind: str) -> list[int]:
        if kind not in cache:
            other = elems if kind == "sum" else checks.negate(orders, elems)
            cache[kind] = checks.profile(orders, elems, other)
        return cache[kind]

    check = {
        "spectrum": lambda body: checks.check_spectrum(body, orders, elems, own("sum")),
        "diff-profile": lambda body: checks.check_diff_profile(body, orders, elems, own("diff")),
    }
    return [Op(f"{kind} {tag}", [kind, "--in", path], check[kind]) for kind in kinds]


def _random_set_ops(rng: random.Random, work: Path, tag: str, orders: list[int], size: int,
                    kinds: tuple[str, ...] = ("spectrum", "diff-profile"),
                    text: bool = False) -> list[Op]:
    elems = rng.sample(range(prod(orders)), size)
    path = _write_set(work, f"{tag}.{'txt' if text else 'json'}", orders, elems, text)
    return _profile_ops(tag, path, orders, elems, kinds)


def sets_build(rng: random.Random, work: Path) -> list[Op]:
    l31 = rng.randrange(31 * 31 + 31 + 1)
    return [
        Op("singer p=307", ["singer", "--p", "307"], lambda b: checks.check_singer(b, 307)),
        Op("singer p=401", ["singer", "--p", "401"], lambda b: checks.check_singer(b, 401)),
        Op("construct 11b p=31", ["construct", "--theorem", "11b", "--p", "31"],
           lambda b: checks.check_11b_scan(b, 31)),
        Op(f"construct 11b p=31 l={l31}", ["construct", "--theorem", "11b", "--p", "31", "--l", str(l31)],
           lambda b: checks.check_11b_shift(b, 31, l31)),
        Op("construct 12b p=211", ["construct", "--theorem", "12b", "--p", "211"],
           lambda b: checks.check_12b(b, 211)),
        Op("construct 13b p=211", ["construct", "--theorem", "13b", "--p", "211"],
           lambda b: checks.check_13b(b, 211)),
    ]


MF = [4, 5, 7, 9]
MALFORMED = {
    "bad-float.json": '{"orders": [7.9], "elements": [1.5, 2.2]}',
    "bad-string.json": '{"orders": [7], "elements": "123"}',
    "bad-bool.json": '{"orders": [7], "elements": [true]}',
}


def sets_sparse(rng: random.Random, work: Path) -> list[Op]:
    # An affine image u*D + t of a perfect difference set (u a unit) is one too.
    pds = json.loads((HERE / "singer401.json").read_text())
    n = pds["orders"][0]
    u = rng.randrange(1, n)
    while gcd(u, n) != 1:
        u = rng.randrange(1, n)
    t = rng.randrange(n)
    singer = [(u * d + t) % n for d in pds["elements"]]
    ops = _profile_ops("singer401", _write_set(work, "singer401.json", [n], singer), [n], singer)
    ops += _random_set_ops(rng, work, "z65536-sparse", [65536], isqrt(2 * 65536) + 1)
    ops += _random_set_ops(rng, work, "z2^13-sparse", [2] * 13, 128, ("spectrum",))
    ops += _random_set_ops(rng, work, "mf-sparse", MF, isqrt(2 * prod(MF)) + 1)
    for name, doc in MALFORMED.items():
        (work / name).write_text(doc)
        ops.append(Op(f"spectrum {name}", ["spectrum", "--in", name], None, EX_NOINPUT))
    return ops


def sets_dense(rng: random.Random, work: Path) -> list[Op]:
    ops = _random_set_ops(rng, work, "z65536-dense", [65536], 32768)
    ops += _random_set_ops(rng, work, "z2^12-dense", [2] * 12, 2048, ("spectrum",))
    ops += _random_set_ops(rng, work, "z16^3-dense", [16] * 3, 2048)
    ops += _random_set_ops(rng, work, "mf-dense", MF, prod(MF) // 2, text=True)
    return ops


def verify(rng: random.Random, work: Path) -> list[Op]:
    s1, s2 = rng.randrange(2**31), rng.randrange(2**31)
    return [
        Op("verify trials=500", ["verify", "--suite", "all", "--trials", "500", "--seed", str(s1)],
           lambda b: checks.check_verify(b, 500)),
        Op("verify trials=100 max-m=2048",
           ["verify", "--suite", "all", "--trials", "100", "--max-m", "2048", "--seed", str(s2)],
           lambda b: checks.check_verify(b, 100)),
    ]


def search_exact(rng: random.Random, work: Path) -> list[Op]:
    # The exact search is deterministic: its cost depends on (m, r) alone, so
    # these operations take nothing from the seed.
    budget = ["--budget", str(EXACT_BUDGET)]
    ops = [
        Op(f"ruzsa m={m}", ["ruzsa", "--m", str(m), *budget],
           lambda b, m=m, v=v: checks.check_ruzsa_value(b, m, v))
        for m, v in ((int(k), v) for k, v in EXPECTED["values"].items())
    ]
    for m, r, status in EXPECTED["decisions"]:
        ops.append(Op(f"ruzsa m={m} r={r}", ["ruzsa", "--m", str(m), "--r", str(r), *budget],
                      lambda b, m=m, r=r, s=status: checks.check_ruzsa_decision(b, m, r, s),
                      0 if status == "SAT" else 1))
    return ops


def search_heuristic(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for m, extra in ((240, ["--budget", "30000"]),
                     (240, ["--budget", "10000", "--threads", "2"]),
                     (993, ["--budget", "10000"]),
                     (2000, ["--budget", "5000"])):
        argv = ["ruzsa", "--m", str(m), "--mode", "heuristic", *extra, "--seed", str(rng.randrange(2**31))]
        ops.append(Op(f"heuristic m={m} {' '.join(extra)}".strip(), argv,
                      lambda b, m=m: checks.check_heuristic(b, m)))
    return ops


WORKLOADS = {
    "sets-build": sets_build,
    "sets-sparse": sets_sparse,
    "sets-dense": sets_dense,
    "verify": verify,
    "search-exact": search_exact,
    "search-heuristic": search_heuristic,
}


# -- running one command ---------------------------------------------------------


class Fatal(Exception):
    """The benchmark itself cannot go on; no result is printed."""


def _alarm(signum, frame):
    raise TimeoutError


def execute(op: Op, work: Path, env: dict, trace_path: Path | None) -> Result:
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        r, w = os.pipe()
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), str(w), str(SRC), str(trace_path or "-"), *op.argv],
            stdout=out, stderr=err, pass_fds=(w,), cwd=work, env=env,
        )
        os.close(w)
        signal.alarm(OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise Fatal(f"{op.label}: no exit within {OP_TIMEOUT_S} s") from None
        finally:
            signal.alarm(0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with os.fdopen(r, "rb") as stamp:
            imported = stamp.read()
    if not imported:
        raise Fatal(f"{op.label}: the launcher did not import repfn.cli:\n{err_path.read_text()}")
    numpy_at, imported_at = map(float, imported.split())
    trace = None
    if trace_path is not None:
        if not trace_path.is_file():
            raise Fatal(f"{op.label}: no spans were written:\n{err_path.read_text()}")
        trace = json.loads(trace_path.read_text())
    return Result(op, proc.returncode, numpy_at - start, imported_at - start, end - imported_at,
                  usage.ru_maxrss / 1024, out_path.read_bytes(), trace)


_WALL_TIME = re.compile(rb'"wall_time_us": \d+')


class Checker:
    """Checks each distinct output once; bodies differ between rounds only in
    the manifest's wall_time_us."""

    def __init__(self) -> None:
        self.seen: set[tuple[str, bytes]] = set()
        self.correct = True
        self.failed = 0

    def judge(self, res: Result) -> None:
        op = res.op
        if res.code != op.expect_exit:
            self.failed += 1
            if op.timed:
                print(f"# {op.label}: exit {res.code}, expected {op.expect_exit}", file=sys.stderr)
            return
        if op.check is None:
            return
        key = (op.label, hashlib.sha256(_WALL_TIME.sub(b"", res.out)).digest())
        if key in self.seen:
            return
        try:
            op.check(json.loads(res.out))
        except (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            self.correct = False
            print(f"# {op.label}: wrong output: {exc!r}", file=sys.stderr)
            return
        self.seen.add(key)


# -- metrics -------------------------------------------------------------------------


def wall_s(rounds: list[list[Result]]) -> float:
    """Sum over the operations of a round of each one's median time across
    the run's rounds."""
    return sum(statistics.median(res.time_s for res in col)
               for col in zip(*rounds) if col[0].op.timed)


def launch_s(rounds: list[list[Result]]) -> float:
    """Median launch reference: interpreter start and numpy import, no repfn code."""
    return statistics.median(res.launch_s for rnd in rounds for res in rnd if res.op.timed)


def end_to_end(rounds: list[list[Result]]) -> dict[str, float]:
    timed = [res for rnd in rounds for res in rnd if res.op.timed]
    # The host's speed drifts by tens of percent over minutes and the launch
    # reference drifts with it, so wall_norm divides most of the drift out.
    return {
        "setup_s": statistics.median(res.setup_s for res in timed),
        "wall_norm": wall_s(rounds) / launch_s(rounds),
        "peak_rss_mib": max(res.rss_mib for res in timed),
    }


def per_layer(untraced: list[list[Result]], traced: list[list[Result]]) -> dict[str, float]:
    rows = [
        tracing.layer_metrics(
            [res.trace for res in rnd if res.op.timed],
            sum(len(res.out) for res in rnd if res.op.timed),
        )
        for rnd in traced
    ]
    metrics = {k: statistics.median(row[k] for row in rows) for k in tracing.PER_LAYER}
    metrics["trace.overhead_s"] = wall_s(traced) - wall_s(untraced)
    return metrics


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# -- main ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        ops = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work)
        env = dict(os.environ)
        env.pop("RFL_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        checker = Checker()
        untraced: list[list[Result]] = []
        traced: list[list[Result]] = []
        start = time.monotonic()
        while True:
            for tracing_on in (False, True) if trace else (False,):
                rnd = []
                for i, op in enumerate(ops):
                    res = execute(op, work, env, work / f"trace-{i}.json" if tracing_on else None)
                    checker.judge(res)
                    rnd.append(res)
                (traced if tracing_on else untraced).append(rnd)
            if time.monotonic() - start >= seconds:
                break
        for i, op in enumerate(ops):
            times = [rnd[i].time_s for rnd in untraced]
            print(f"# {op.label:<40} {statistics.median(times):8.4f} s  (median of {len(times)})")
        print(f"# wall_s {wall_s(untraced):.4f} s, launch reference {launch_s(untraced):.4f} s")
        if trace:
            spans = {op.label: res.trace for op, res in zip(ops, traced[-1])}
            (WORK_ROOT / f"trace-{workload}.json").write_text(json.dumps(spans))
        metrics = per_layer(untraced, traced) if trace else end_to_end(untraced)
        units = _units()
        return {
            "correct": checker.correct,
            "attempted": sum(len(rnd) for rnd in untraced + traced),
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repfn" / "cli.py").is_file():
        print(f"run.py: no repfn sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Fatal as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
