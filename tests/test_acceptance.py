"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS/FAIL line with its measured runtime.  Budgets are asserted, not advisory.
Run with -s to see the lines on success."""

import os
import random
import time
from fractions import Fraction

from repfn.bounds import (
    check_quadratic_lemma,
    check_theorem_bounds,
    constructed_inventory,
    random_group,
    random_subset,
)
from repfn.constructions import half_period_doubling, shift_family_report, sidon_set
from repfn.groups import Group, GroupSubset
from repfn.profiles import rep_diff_profile, rep_profile, rep_profile_fast, rep_profile_naive
from repfn.search import (
    SearchStatus,
    exists_basis,
    heuristic_upper_bound,
    ruzsa_number,
)
from repfn.singer import singer_set
from ruzsa_oracle import FROZEN_MIN_CAP, brute

DIFFERENCE_SET_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
FAMILY_PRIMES = (2, 3, 5, 7, 11)


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_perfect_difference_sets():
    t0 = time.monotonic()
    checked = 0
    for p in DIFFERENCE_SET_PRIMES:
        pds = singer_set(p)
        n = p * p + p + 1
        assert pds.n == n
        assert pds.subset.card == p + 1
        counts = rep_diff_profile(pds.subset).counts
        assert counts[0] == p + 1
        assert all(c == 1 for c in counts[1:]), p
        checked += 1
    dt = time.monotonic() - t0
    report(
        "criterion-1",
        checked == len(DIFFERENCE_SET_PRIMES) and dt < 5.0,
        f"perfect difference property exact for p in {DIFFERENCE_SET_PRIMES} ({dt:.2f}s < 5s)",
    )


def test_criterion_02_pair_sum_distinct_family():
    t0 = time.monotonic()
    for p in FAMILY_PRIMES:
        a = sidon_set(p)
        m = a.group.order
        prof = rep_profile(a)
        assert prof.max_rep <= 2, p
        assert prof.spectrum()[2] == (m - 1) // 2, p
    dt = time.monotonic() - t0
    report(
        "criterion-2",
        dt < 1.0,
        f"max count <= 2 and |S_2| = (m-1)/2 for p in {FAMILY_PRIMES} ({dt:.2f}s < 1s)",
    )


def test_criterion_03_half_period_family():
    t0 = time.monotonic()
    for p in FAMILY_PRIMES:
        a = half_period_doubling(p)
        m = a.group.order
        prof = rep_profile(a)
        assert prof.max_rep <= 4, p
        assert prof.spectrum()[4] == m // 2 - 1, p
    dt = time.monotonic() - t0
    report(
        "criterion-3",
        dt < 1.0,
        f"max count <= 4 and |S_4| = m/2 - 1 for p in {FAMILY_PRIMES} ({dt:.2f}s < 1s)",
    )


def test_criterion_04_shift_scan_family():
    t0 = time.monotonic()
    for p in FAMILY_PRIMES:
        rep = shift_family_report(p)
        half = (p * p - p) // 2
        assert all(s.x_odd == half for s in rep.per_l), p
        assert sum(s.x_even for s in rep.per_l) == half * half, p
        assert all(s.max_rep <= 4 for s in rep.per_l), p
        assert 8 * rep.best_s0 < 3 * rep.m, p
    dt = time.monotonic() - t0
    report(
        "criterion-4",
        dt < 10.0,
        f"every shift capped at 4 and best |S_0| < 3m/8 for p in {FAMILY_PRIMES} ({dt:.2f}s < 10s)",
    )


def test_criterion_05_quadratic_lemma_mass():
    t0 = time.monotonic()
    rng = random.Random(20260823)
    cases = 0
    failures = 0
    sets = []
    for i in range(1460):
        g = random_group(rng, 128)
        density = Fraction(rng.randint(1, 11), 12)
        sets.append(random_subset(rng.getrandbits(63), g, density))
    for g_order in (1, 2, 17, 60):
        g = Group.cyclic(g_order)
        sets.append(GroupSubset.empty(g))
        sets.append(GroupSubset.full(g))
        sets.append(GroupSubset.from_elements(g, [0]))
    for a in sets:
        prof = rep_profile(a)
        for k in range(1, 8):
            if not check_quadratic_lemma(a, k, prof).holds:
                failures += 1
            cases += 1
    dt = time.monotonic() - t0
    report(
        "criterion-5",
        cases >= 10_000 and failures == 0 and dt < 60.0,
        f"{cases} lemma instances, {failures} failures ({dt:.2f}s < 60s)",
    )


def test_criterion_06_spectrum_theorems_never_fail():
    t0 = time.monotonic()
    rng = random.Random(6)
    pool = [a for _, a in constructed_inventory()]
    for _ in range(400):
        g = random_group(rng, 200)
        size = min(g.order, rng.randint(1, max(2, int(1.6 * g.order**0.5))))
        pool.append(GroupSubset.from_elements(g, rng.sample(range(g.order), size)))
    fails = 0
    applicable = 0
    for a in pool:
        for rep in check_theorem_bounds(a):
            if rep.applicable:
                applicable += 1
                if not rep.holds:
                    fails += 1
    dt = time.monotonic() - t0
    report(
        "criterion-6",
        fails == 0 and applicable > 100,
        f"{applicable} applicable spectrum checks, {fails} failures ({dt:.2f}s)",
    )


def test_criterion_07_engine_equivalence():
    t0 = time.monotonic()
    rng = random.Random(7777)
    agreements = 0
    for i in range(1000):
        max_order = int(2 ** rng.uniform(1.0, 12.0))
        g = random_group(rng, max(2, max_order))
        cap = min(g.order, 350)
        a = GroupSubset.from_elements(
            g, rng.sample(range(g.order), rng.randint(1, cap))
        )
        if rng.random() < 0.5:
            b = GroupSubset.from_elements(
                g, rng.sample(range(g.order), rng.randint(1, cap))
            )
        else:
            b = None
        fast = rep_profile_fast(a, b)
        naive = rep_profile_naive(a, b)
        assert fast.counts == naive.counts, (i, g.orders)
        agreements += 1
    dt = time.monotonic() - t0
    report(
        "criterion-7",
        agreements == 1000 and dt < 120.0,
        f"packed and pair-enumeration profiles bit-identical on {agreements} random cases ({dt:.2f}s < 120s)",
    )


def test_criterion_08_minimum_cap_oracle():
    t0 = time.monotonic()
    oracle = {m: brute(m) for m in range(1, 17)}
    dt_oracle = time.monotonic() - t0
    assert oracle == FROZEN_MIN_CAP
    t1 = time.monotonic()
    values = {m: ruzsa_number(m).value for m in range(1, 17)}
    dt_search = time.monotonic() - t1
    report(
        "criterion-8",
        values == oracle and dt_oracle < 600.0 and dt_search < 60.0,
        f"search equals brute-force oracle for m <= 16 "
        f"(oracle {dt_oracle:.2f}s < 600s, search {dt_search:.2f}s < 60s)",
    )


def test_criterion_09_certificates_reverify():
    t0 = time.monotonic()
    certs = []
    for m in range(2, 17):
        res = ruzsa_number(m)
        certs.append(res.certificate)
    for m in range(2, 13):
        out = exists_basis(m, FROZEN_MIN_CAP[m])
        assert out.status is SearchStatus.SAT
        certs.append(out.certificate)
    for m in (20, 31, 45):
        out = heuristic_upper_bound(m, 4, moves=2000)
        certs.append(out.certificate)
    unverified = [c for c in certs if c is None or not c.verified]
    # independent re-check, not trusting the stored flag
    rechecked = 0
    for c in certs:
        if c is None:
            continue
        prof = rep_profile_naive(c.subset())
        assert min(prof.counts) >= 1 and prof.max_rep <= c.claimed_r
        rechecked += 1
    dt = time.monotonic() - t0
    report(
        "criterion-9",
        not unverified and rechecked == len(certs),
        f"{rechecked} search certificates re-verified through pair enumeration, 0 unverified ({dt:.2f}s)",
    )


def test_criterion_10a_heuristic_coverage():
    t0 = time.monotonic()
    bad = []
    for m in range(2, 65):
        out = heuristic_upper_bound(m, 5, moves=2000, seed=1)
        if out.certificate is None or not out.certificate.verified:
            bad.append(m)
        if out.status is SearchStatus.UNSAT:
            bad.append(m)
    dt = time.monotonic() - t0
    report(
        "criterion-10a",
        not bad,
        f"verified heuristic certificates for every m in [2, 64] ({dt:.2f}s)",
    )


def test_criterion_10b_hard_instance_guard():
    t0 = time.monotonic()
    out = exists_basis(36, 5, node_budget=200_000)
    dt = time.monotonic() - t0
    # Completing this instance with SAT at a modest budget would mean the
    # incremental counters are broken; UNSAT or EXHAUSTED are the only
    # believable outcomes.
    ok = out.status in (SearchStatus.UNSAT, SearchStatus.EXHAUSTED)
    detail = f"m=36 r=5 modest budget ended {out.status.value} after {out.nodes} nodes ({dt:.2f}s)"
    if os.environ.get("RFL_EXTENDED_SEARCH") == "1":
        ext = exists_basis(36, 5, node_budget=50_000_000)
        detail += f"; extended run ended {ext.status.value} after {ext.nodes} nodes"
    report("criterion-10b", ok, detail)
