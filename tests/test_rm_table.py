"""R_m past 36: the exact search's results at m = 35, 37 and 39, pinned.

Each certificate is rechecked here by a pair count that uses nothing from
repfn.  R_37 = 4 follows from the UNSAT proof at (37, 3) and the basis at
(37, 4); with ordered pairs and A in Z_m, as in the paper's abstract, these
bases contradict the quoted "R_m >= 6 for all m >= 36" at m = 37 and 39.
"""

from collections import Counter

from repfn.search import SearchConfig, SearchStatus, exists_basis


def exact(m, r):
    return exists_basis(SearchConfig(m=m, r=r, mode="exact", node_budget=1_000_000))


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
