import random
from fractions import Fraction
from math import isqrt

import pytest

from repfn.bounds import (
    CheckStatus,
    ClaimId,
    ceil_sqrt,
    check_cardinality_bound,
    check_chain_bounds,
    check_quadratic_lemma,
    check_theorem_bounds,
    constructed_inventory,
    random_group,
    random_subset,
    run_verification_suite,
)
from repfn.constructions import half_period_doubling, sidon_set
from repfn.groups import Group, GroupSubset
from repfn.profiles import rep_profile


def cyclic_subset(m, elems):
    return GroupSubset.from_elements(Group.cyclic(m), elems)


class TestCeilSqrt:
    def test_values(self):
        assert ceil_sqrt(0) == 0
        assert ceil_sqrt(1) == 1
        assert ceil_sqrt(2) == 2
        assert ceil_sqrt(4) == 2
        assert ceil_sqrt(35) == 6
        assert ceil_sqrt(36) == 6
        assert ceil_sqrt(37) == 7

    def test_contract(self):
        for n in range(2000):
            r = ceil_sqrt(n)
            assert (r - 1) ** 2 < n <= r * r or (n == 0 and r == 0)
        with pytest.raises(ValueError):
            ceil_sqrt(-1)


class TestQuadraticLemma:
    def test_worked_example(self):
        rep = check_quadratic_lemma(cyclic_subset(7, [1, 2, 4]), 3)
        assert rep.lhs == 24
        assert rep.rhs == 12
        assert rep.status is CheckStatus.HOLDS
        assert rep.slack == 12
        assert rep.claim_id is ClaimId.QUADRATIC

    def test_empty_set_any_k(self):
        for m in (1, 2, 9):
            for k in (1, 2, 5):
                rep = check_quadratic_lemma(cyclic_subset(m, []), k)
                assert rep.lhs == k * k * m
                assert rep.holds
                # slack is exactly k(k-1)(m-1) for the empty set
                assert rep.slack == k * (k - 1) * (m - 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            check_quadratic_lemma(cyclic_subset(5, [0]), 0)

    def test_random_sweep_never_fails(self):
        rng = random.Random(77)
        for _ in range(200):
            g = random_group(rng, 128)
            a = random_subset(rng.getrandbits(63), g, Fraction(rng.randint(1, 9), 10))
            prof = rep_profile(a)
            for k in range(1, 8):
                assert check_quadratic_lemma(a, k, prof).holds


class TestCardinalityBound:
    def test_singer_example(self):
        rep = check_cardinality_bound(sidon_set(5), 2)
        assert rep.lhs == 6
        assert rep.rhs == isqrt(62)
        assert rep.holds

    def test_full_group_zero_slack(self):
        m = 12
        rep = check_cardinality_bound(GroupSubset.full(Group.cyclic(m)), m)
        assert rep.lhs == m
        assert rep.rhs == m
        assert rep.holds
        assert rep.slack == 0

    def test_not_applicable_when_cap_too_low(self):
        rep = check_cardinality_bound(cyclic_subset(7, [1, 2, 4]), 1)
        assert rep.status is CheckStatus.NOT_APPLICABLE
        assert not rep.applicable
        assert rep.slack is None
        assert rep.extra["max_rep"] == 2

    def test_default_cap_is_max_rep(self):
        rep = check_cardinality_bound(cyclic_subset(7, [1, 2, 4]))
        assert rep.extra["c"] == 2
        assert rep.holds

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            check_cardinality_bound(cyclic_subset(5, [0]), 0)


class TestTheoremBounds:
    def test_sidon_p5_s2_bound(self):
        rep = check_theorem_bounds(sidon_set(5))[1]
        assert rep.lhs == 15
        assert rep.holds
        assert rep.rhs == Fraction(31, 2) + 3 * ceil_sqrt(155)

    def test_half_period_p3_s4_bound(self):
        rep = check_theorem_bounds(half_period_doubling(3))[2]
        assert rep.lhs == 12
        assert rep.rhs == Fraction(3 * 26, 4) + 14 + Fraction(3, 4)
        assert rep.holds

    def test_empty_set_s0_bound(self):
        rep = check_theorem_bounds(cyclic_subset(100, []))[0]
        assert rep.lhs == 100
        assert rep.holds

    def test_comparison_floor_reported_not_asserted(self):
        rep = check_theorem_bounds(cyclic_subset(100, []))[0]
        m = 100
        assert rep.extra["comparison_floor"] == Fraction(7 * m, 32) - Fraction(ceil_sqrt(10 * m), 2) - 1

    def test_not_applicable_above_caps(self):
        full = GroupSubset.full(Group.cyclic(20))  # max_rep = 20
        s0_rep, s2_rep, s4_rep = check_theorem_bounds(full)
        assert s0_rep.status is CheckStatus.NOT_APPLICABLE
        assert s2_rep.status is CheckStatus.NOT_APPLICABLE
        assert s4_rep.status is CheckStatus.NOT_APPLICABLE

    def test_s4_applies_between_caps(self):
        # max count 6 disqualifies the 5-cap bounds but not the 7-cap one
        a = cyclic_subset(12, range(6))
        prof = rep_profile(a)
        assert prof.max_rep == 6
        s0_rep, s2_rep, s4_rep = check_theorem_bounds(a)
        assert s0_rep.status is CheckStatus.NOT_APPLICABLE
        assert s2_rep.status is CheckStatus.NOT_APPLICABLE
        assert s4_rep.applicable and s4_rep.holds

    def test_check_theorem_bounds_order(self):
        ids = [r.claim_id for r in check_theorem_bounds(cyclic_subset(9, [0, 1]))]
        assert ids == [ClaimId.S0_LOWER, ClaimId.S2_UPPER, ClaimId.S4_UPPER]

    def test_exact_decision_matches_rational_rhs(self):
        # With rhs an outward enclosure, holds always implies slack >= 0
        rng = random.Random(5)
        for _ in range(150):
            g = random_group(rng, 96)
            target = min(g.order, ceil_sqrt(2 * g.order))
            a = GroupSubset.from_elements(g, rng.sample(range(g.order), target))
            for rep in check_theorem_bounds(a):
                if rep.holds:
                    assert rep.slack >= 0


class TestChainBounds:
    def test_ids_and_applicability(self):
        a = sidon_set(3)
        reports = check_chain_bounds(a)
        ids = [r.claim_id for r in reports]
        assert ids == [
            ClaimId.SQ3_UPPER,
            ClaimId.SQ3_LOWER,
            ClaimId.SQ2_LOWER,
            ClaimId.SQ2_UPPER,
            ClaimId.QUADRATIC,
            ClaimId.S4_CHAIN,
        ]
        assert all(r.holds for r in reports)

    def test_lower_chains_unconditional(self):
        full = GroupSubset.full(Group.cyclic(15))
        by_id = {r.claim_id: r for r in check_chain_bounds(full)}
        assert by_id[ClaimId.SQ3_LOWER].applicable
        assert by_id[ClaimId.SQ2_LOWER].applicable
        assert by_id[ClaimId.SQ3_UPPER].status is CheckStatus.NOT_APPLICABLE
        assert by_id[ClaimId.SQ2_UPPER].status is CheckStatus.NOT_APPLICABLE
        assert by_id[ClaimId.S4_CHAIN].status is CheckStatus.NOT_APPLICABLE

    def test_constructed_inventory_all_hold(self):
        for label, a in constructed_inventory():
            for rep in check_chain_bounds(a) + check_theorem_bounds(a):
                assert rep.status is not CheckStatus.FAILS, (label, rep.claim_id)

    def test_moment_identity_against_spectrum(self):
        # Every claim's lhs against a direct loop over the counts, on random
        # sets in cyclic and multi-factor groups; ties the spectrum-histogram
        # moments and levels to an independent computation
        moment_k = {ClaimId.SQ3_UPPER: 3, ClaimId.SQ3_LOWER: 3, ClaimId.SQ2_LOWER: 2,
                    ClaimId.SQ2_UPPER: 2, ClaimId.QUADRATIC: None}
        level = {ClaimId.S0_LOWER: 0, ClaimId.S2_UPPER: 2, ClaimId.S4_UPPER: 4,
                 ClaimId.S4_CHAIN: 4}
        rng = random.Random(11)
        shapes = set()
        for _ in range(120):
            g = random_group(rng, 96)
            shapes.add(len(g.orders))
            if rng.random() < 0.5:
                a = random_subset(rng.getrandbits(63), g, Fraction(rng.randint(1, 6), 12))
            else:
                target = min(g.order, ceil_sqrt(2 * g.order))
                a = GroupSubset.from_elements(g, rng.sample(range(g.order), target))
            prof = rep_profile(a)
            counts = prof.counts
            reports = [check_quadratic_lemma(a, k, prof) for k in range(1, 8)]
            reports.append(check_cardinality_bound(a, None, prof))
            reports += check_theorem_bounds(a, prof) + check_chain_bounds(a, prof)
            for rep in reports:
                if rep.claim_id is ClaimId.CARDINALITY:
                    want = a.card
                elif rep.claim_id in level:
                    want = counts.count(level[rep.claim_id])
                else:
                    k = moment_k[rep.claim_id] or rep.extra["k"]
                    want = sum((c - k) ** 2 for c in counts)
                assert rep.lhs == want, (g.orders, rep.claim_id)
        assert {1, 2, 3} <= shapes


class TestRandomSubset:
    def test_deterministic(self):
        g = Group.cyclic(64)
        a = random_subset(123, g, Fraction(1, 2))
        b = random_subset(123, g, Fraction(1, 2))
        assert a == b
        assert random_subset(124, g, Fraction(1, 2)) != a

    def test_density_validated(self):
        g = Group.cyclic(8)
        for bad in (0, 1, Fraction(3, 2), -0.25):
            with pytest.raises(ValueError):
                random_subset(0, g, bad)

    def test_binomial_concentration(self):
        g = Group.cyclic(64)
        draws = 300
        total = sum(random_subset(s, g, Fraction(1, 2)).card for s in range(draws))
        mean = total / draws
        # 5 sigma of the per-draw mean: 5 * 4 / sqrt(300)
        assert abs(mean - 32) < 5 * 4 / (draws**0.5)

    def test_float_density_accepted(self):
        g = Group.cyclic(32)
        a = random_subset(7, g, 0.25)
        b = random_subset(7, g, Fraction(1, 4))
        assert a == b


class TestRandomGroup:
    def test_order_in_range(self):
        rng = random.Random(1)
        for _ in range(300):
            g = random_group(rng, 128)
            assert 2 <= g.order <= 128

    def test_produces_multifactor_groups(self):
        rng = random.Random(2)
        shapes = {len(random_group(rng, 128).orders) for _ in range(200)}
        assert {1, 2, 3} <= shapes

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            random_group(random.Random(0), 1)


class TestSuiteRunner:
    def test_all_suite_clean(self):
        result = run_verification_suite("all", 15, 99)
        assert result.ok
        assert result.failed == 0
        assert result.held > 0
        assert result.not_applicable >= 0
        assert len(result.cases) == 9 + 2 * 15

    def test_deterministic_given_seed(self):
        r1 = run_verification_suite("theorems", 8, 5)
        r2 = run_verification_suite("theorems", 8, 5)
        assert [c.label for c in r1.cases] == [c.label for c in r2.cases]
        assert [
            (rep.claim_id, rep.lhs, rep.rhs, rep.status)
            for c in r1.cases
            for rep in c.reports
        ] == [
            (rep.claim_id, rep.lhs, rep.rhs, rep.status)
            for c in r2.cases
            for rep in c.reports
        ]

    def test_suite_specific_claims(self):
        lemmas = run_verification_suite("lemmas", 2, 0)
        claim_ids = {r.claim_id for c in lemmas.cases for r in c.reports}
        assert claim_ids == {ClaimId.QUADRATIC, ClaimId.CARDINALITY}

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_verification_suite("nope", 1, 0)
        with pytest.raises(ValueError):
            run_verification_suite("all", -1, 0)
