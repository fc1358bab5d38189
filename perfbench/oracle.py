"""Recompute the exact search answers in expected.json without repfn.

    python3 perfbench/oracle.py            # recompute and compare
    python3 perfbench/oracle.py --write    # recompute and rewrite the answers

A plain depth-first search that imports nothing from repfn.  It decides
whether Z_m has an additive basis A with every representation count
R_A(g) = #{(a, b) in A x A : a + b = g} between 1 and r.  The only symmetry
used is translation: translating A by t moves R_A(g) to R_A(g + 2t), so some
translate of any basis contains 0.  A branch is cut when a count exceeds r,
or when an uncovered residue has no pair left among the elements still
available.  For m <= 16 the least caps are compared with the frozen table
in tests/ruzsa_oracle.py.  Takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import runpy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _rot(v: int, g: int, m: int) -> int:
    g %= m
    return ((v << g) | (v >> (m - g))) & ((1 << m) - 1) if g else v


def decide(m: int, r: int) -> list[int] | None:
    """A basis of Z_m containing 0 with all counts <= r, or None if none exists."""
    counts = [0] * m
    members: list[int] = []
    # avail: members and undecided elements; navail: their negatives.
    state = {"avail": (1 << m) - 1, "navail": (1 << m) - 1}

    def add(e: int, sign: int) -> bool:
        over = False
        for a in members:
            counts[(a + e) % m] += 2 * sign
            over |= counts[(a + e) % m] > r
        counts[2 * e % m] += sign
        return over or counts[2 * e % m] > r

    def coverable(g: int) -> bool:
        # Some x in avail with g - x in avail: avail meets g - avail.
        return bool(state["avail"] & _rot(state["navail"], g, m))

    def dfs(e: int) -> bool:
        if 0 not in counts:
            return True
        if e == m:
            return False
        over = add(e, 1)
        members.append(e)
        if not over and dfs(e + 1):
            return True
        members.pop()
        add(e, -1)
        saved = dict(state)
        state["avail"] &= ~(1 << e)
        state["navail"] &= ~(1 << (-e % m))
        alive = all(counts[g] or coverable(g) for g in range(m))
        if alive and dfs(e + 1):
            return True
        state.update(saved)
        return False

    if m == 1:
        return [0]
    add(0, 1)
    members.append(0)
    return list(members) if dfs(1) else None


def _check(m: int, r: int, elems: list[int]) -> None:
    counts = [0] * m
    for a in elems:
        for b in elems:
            counts[(a + b) % m] += 1
    if min(counts) < 1 or max(counts) > r:
        raise AssertionError(f"oracle witness for ({m}, {r}) is not a basis with cap {r}")


def least_cap(m: int) -> int:
    r = 1
    while True:
        witness = decide(m, r)
        if witness is not None:
            _check(m, r, witness)
            return r
        r += 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite expected.json")
    args = parser.parse_args()

    table = runpy.run_path(str(HERE.parent / "tests" / "ruzsa_oracle.py"))["FROZEN_MIN_CAP"]
    ok = True
    for m, want in sorted(table.items()):
        got = least_cap(m)
        ok &= got == want
        print(f"R_{m} = {got}  (tests/ruzsa_oracle.py: {want})")

    path = HERE / "expected.json"
    expected = json.loads(path.read_text())
    values = {}
    for key, want in expected["values"].items():
        values[key] = least_cap(int(key))
        ok &= values[key] == want
        print(f"R_{key} = {values[key]}  (expected.json: {want})")
    decisions = []
    for m, r, want in expected["decisions"]:
        witness = decide(m, r)
        if witness is not None:
            _check(m, r, witness)
        got = "SAT" if witness is not None else "UNSAT"
        ok &= got == want
        decisions.append([m, r, got])
        print(f"({m}, {r}) {got}  (expected.json: {want})")

    if args.write:
        expected.update(values=values, decisions=decisions)
        path.write_text(json.dumps(expected, indent=2) + "\n")
        return 0
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
