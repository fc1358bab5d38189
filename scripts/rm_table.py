"""Rerun the README's "R_m past 36" table with the exact search.

Each row is two exists_basis decisions: a drained UNSAT proof at
r = R_m - 1 and a basis at r = R_m, whose certificate exists_basis has
re-checked by pair enumeration.  The script prints the table as the README
gives it:

    python scripts/rm_table.py                  # every row, m = 26..48
    python scripts/rm_table.py --max-m 30       # rows m = 26..30
    python scripts/rm_table.py --check README.md --max-m 30

With --check it compares each rerun row with the README's row for the same
m and exits 1 on any status, node count or witness that differs (or a row
the README lacks).  The rows up to m = 30 take a few seconds; m = 40 takes
most of a minute, and the rows m = 41..48 take 12 to 71 s each.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repfn.search import SearchStatus, exists_basis  # noqa: E402

# R_m for each row of the table, m = 26..48.
R_M = {
    26: 6, 27: 5, 28: 5, 29: 6, 30: 6, 31: 6, 32: 6, 33: 6,
    34: 6, 35: 5, 36: 6, 37: 4, 38: 6, 39: 5, 40: 6,
    41: 6, 42: 6, 43: 6, 44: 6, 45: 6, 46: 6, 47: 6, 48: 6,
}
NODE_BUDGET = 10**9
SECTION = "## R_m past 36"
HEADER = (
    "| m  | R_m | UNSAT at R_m − 1 (nodes) | basis at R_m (nodes: elements) |\n"
    "|----|-----|--------------------------|--------------------------------|"
)


def rerun_row(m: int) -> tuple[list[str], list[str]]:
    """The row's cells, and the statuses that were not the expected ones."""
    r = R_M[m]
    unsat, sat = (exists_basis(m, cap, node_budget=NODE_BUDGET) for cap in (r - 1, r))
    wrong = [
        f"m={m} r={cap}: {out.status.value}, expected {want.value}"
        for out, cap, want in ((unsat, r - 1, SearchStatus.UNSAT), (sat, r, SearchStatus.SAT))
        if out.status is not want
    ]
    witness = "none" if sat.certificate is None else str(sat.certificate.elements)
    return [str(m), str(r), f"{unsat.nodes:,}", f"{sat.nodes:,}: {witness}"], wrong


def format_row(cells: list[str]) -> str:
    m, r, unsat, sat = cells
    return f"| {m:<2} | {r:<3} | {unsat:<24} | {sat} |"


def readme_rows(path: Path) -> dict[int, list[str]]:
    """The table rows of the README's R_m section, by m, as stripped cells."""
    text = path.read_text(encoding="utf-8")
    start = text.index(SECTION)
    end = text.find("\n## ", start + len(SECTION))
    rows = {}
    for line in text[start:end if end >= 0 else None].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0].isdigit():
            rows[int(cells[0])] = cells
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-m", type=int, default=max(R_M), help="last row to rerun")
    ap.add_argument("--check", type=Path, metavar="README",
                    help="compare with this file's table; exit 1 on a mismatch")
    args = ap.parse_args(argv)
    published = readme_rows(args.check) if args.check is not None else None
    print(HEADER)
    failures = []
    for m in range(min(R_M), min(args.max_m, max(R_M)) + 1):
        cells, wrong = rerun_row(m)
        print(format_row(cells), flush=True)
        failures += wrong
        if published is not None and published.get(m) != cells:
            failures.append(f"m={m}: README has {published.get(m)}, rerun gives {cells}")
    for line in failures:
        print(f"MISMATCH {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
