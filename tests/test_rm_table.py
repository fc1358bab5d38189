"""R_m past 36: the exact search's results at m = 35, 37 and 39, and its
bases at cap 6 for m = 41..48, pinned.

Each certificate is rechecked here by a pair count that uses nothing from
repfn.  R_37 = 4 follows from the UNSAT proof at (37, 3) and the basis at
(37, 4); with ordered pairs and A in Z_m, as in the paper's abstract, these
bases contradict the quoted "R_m >= 6 for all m >= 36" at m = 37 and 39.
scripts/rm_table.py's --check is run here on the README rows m = 26, 27.
"""

import runpy
from collections import Counter
from pathlib import Path

import pytest

from repfn.search import SearchStatus, exists_basis

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def exact(m, r):
    return exists_basis(m, r, node_budget=1_000_000)


def pair_counts(m, elements):
    counts = Counter((a + b) % m for a in elements for b in elements)
    return [counts[g] for g in range(m)]


def assert_basis(m, r, elements):
    counts = pair_counts(m, elements)
    assert min(counts) >= 1
    assert max(counts) <= r
    return counts


def test_no_basis_of_z37_with_cap_3():
    out = exact(37, 3)
    assert out.status is SearchStatus.UNSAT
    assert out.nodes == 27_902


def test_z37_basis_with_cap_4():
    out = exact(37, 4)
    assert out.status is SearchStatus.SAT
    assert out.nodes == 367_794
    assert out.certificate.elements == (0, 1, 3, 7, 17, 24, 25, 28, 29, 35)
    counts = assert_basis(37, 4, out.certificate.elements)
    assert Counter(counts) == {1: 10, 2: 9, 4: 18}


def test_z35_basis_with_cap_5():
    out = exact(35, 5)
    assert out.status is SearchStatus.SAT
    assert out.nodes == 292_235
    assert_basis(35, 5, out.certificate.elements)


def test_z39_basis_with_cap_5():
    out = exact(39, 5)
    assert out.status is SearchStatus.SAT
    assert out.nodes == 115_169
    assert out.certificate.elements == (0, 1, 2, 3, 5, 9, 13, 16, 22, 27, 32)
    assert_basis(39, 5, out.certificate.elements)


# (nodes, basis) of the SAT search at r = 6 for m = 41..48.  Each R_m = 6
# also needs the UNSAT drain at r = 5, 12 to 71 s apiece; those are rerun
# by scripts/rm_table.py, not here.
CAP6_BASES = {
    41: (61_047, (0, 1, 2, 3, 4, 5, 8, 12, 21, 27, 30, 32)),
    42: (118_378, (0, 1, 2, 3, 4, 5, 8, 11, 16, 23, 29, 33)),
    43: (126_748, (0, 1, 2, 3, 4, 5, 8, 17, 21, 29, 35, 36)),
    44: (213_929, (0, 1, 2, 3, 4, 5, 8, 12, 14, 18, 25, 28, 33)),
    45: (80_654, (0, 1, 2, 3, 4, 5, 7, 15, 16, 19, 21, 24, 39)),
    46: (336_783, (0, 1, 2, 3, 4, 5, 8, 11, 16, 18, 22, 27, 37)),
    47: (264_977, (0, 1, 2, 3, 4, 5, 8, 11, 16, 22, 23, 34, 38)),
    48: (326_153, (0, 1, 2, 3, 4, 5, 7, 16, 19, 20, 26, 41, 44)),
}


@pytest.mark.parametrize("m", sorted(CAP6_BASES))
def test_cap6_bases_past_40(m):
    nodes, elements = CAP6_BASES[m]
    out = exact(m, 6)
    assert out.status is SearchStatus.SAT
    assert out.nodes == nodes
    assert out.certificate.elements == elements
    assert max(assert_basis(m, 6, elements)) == 6


@pytest.fixture(scope="module")
def rm_table_main():
    return runpy.run_path(str(ROOT / "scripts" / "rm_table.py"))["main"]


def test_script_matches_readme_rows(rm_table_main):
    assert rm_table_main(["--check", str(README), "--max-m", "27"]) == 0


def test_script_flags_an_altered_node_count(rm_table_main, tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    row = "| 27 | 5   | 63,419 "
    assert row in text
    altered = tmp_path / "README.md"
    altered.write_text(text.replace(row, "| 27 | 5   | 63,418 "), encoding="utf-8")
    assert rm_table_main(["--check", str(altered), "--max-m", "27"]) == 1
    assert "MISMATCH m=27: README has" in capsys.readouterr().err
