import random
import re

import pytest

from repfn import search
from repfn.groups import Group, GroupSubset, VerificationError
from repfn.profiles import rep_profile_naive
from repfn.search import (
    SearchStatus,
    _LocalSearch,
    exists_basis,
    heuristic_upper_bound,
    make_certificate,
    ruzsa_number,
)
from ruzsa_oracle import FROZEN_MIN_CAP, brute


class _CheckedSearch(search._ExactSearch):
    """The exact search with R and P decoded at every node and compared with
    pair enumeration of the members, and of the members plus every x >= e."""

    def _dfs(self, e, A, R, P):
        group = Group.cyclic(self.m)
        expected = tuple(
            rep_profile_naive(GroupSubset.from_elements(group, elems)).counts
            for elems in (self.members, [*self.members, *range(e, self.m)])
        )
        if (self.decode(R), self.decode(P)) != expected:
            raise VerificationError("incremental counters diverged from the profile")
        return super()._dfs(e, A, R, P)


class _CorruptedSearch(_CheckedSearch):
    """The checked search handed a count at 0 one too high at one node."""

    def _dfs(self, e, A, R, P):
        return super()._dfs(e, A, R + 1 if self.nodes == 5 else R, P)


def checked_exact(m, r, cls=_CheckedSearch):
    """exists_basis(m, r), run by cls; _dfs recurses through self, so every
    node goes through the check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_ExactSearch", cls)
        return exists_basis(m, r)


class TestArguments:
    def test_validation(self):
        bad = [
            (exists_basis, dict(m=0, r=1)),
            (exists_basis, dict(m=5, r=0)),
            (exists_basis, dict(m=5, r=2, node_budget=0)),
            (heuristic_upper_bound, dict(m=5, r=2, moves=0)),
            (exists_basis, dict(m=5, r=2, time_budget=0)),
            (heuristic_upper_bound, dict(m=5, r=2, threads=0)),
        ]
        for fn, kwargs in bad:
            with pytest.raises(ValueError):
                fn(**kwargs)

    def test_each_search_refuses_the_others_keywords(self):
        for kwargs in (dict(seed=1), dict(threads=2), dict(moves=100)):
            with pytest.raises(TypeError):
                exists_basis(5, 2, **kwargs)
        for kwargs in (dict(node_budget=100), dict(time_budget=1.0)):
            with pytest.raises(TypeError):
                heuristic_upper_bound(5, 2, **kwargs)


class TestExistsBasis:
    def test_trivial_group(self):
        out = exists_basis(1, 1)
        assert out.status is SearchStatus.SAT
        assert out.certificate.elements == (0,)
        assert out.certificate.verified

    def test_two_element_group(self):
        assert exists_basis(2, 1).status is SearchStatus.UNSAT
        out = exists_basis(2, 2)
        assert out.status is SearchStatus.SAT
        assert out.certificate.elements == (0, 1)

    def test_seven_needs_three(self):
        unsat = exists_basis(7, 2)
        assert unsat.status is SearchStatus.UNSAT
        assert unsat.certificate is None
        assert unsat.nodes == 12
        assert unsat.prunes == {"max_rep": 6, "coverage": 4}

        sat = exists_basis(7, 3)
        assert sat.status is SearchStatus.SAT
        assert sat.certificate.elements == (0, 1, 2, 4)
        assert sat.certificate.claimed_r == 3
        assert sat.certificate.verified

    def test_witness_reverifies_through_naive_profile(self):
        out = exists_basis(10, 4)
        assert out.status is SearchStatus.SAT
        prof = rep_profile_naive(out.certificate.subset())
        assert min(prof.counts) >= 1
        assert prof.max_rep <= 4

    def test_node_budget_gives_exhausted_not_unsat(self):
        out = exists_basis(7, 3, node_budget=1)
        assert out.status is SearchStatus.EXHAUSTED
        assert out.certificate is None
        assert "budget exhausted" in out.notes[-1]

    def test_time_budget_fires(self):
        # m=36 at r=5 is far beyond 1024 nodes, where the deadline is first
        # polled, so a microscopic time budget must end in EXHAUSTED
        out = exists_basis(36, 5, node_budget=10**9, time_budget=1e-6)
        assert out.status is SearchStatus.EXHAUSTED
        assert out.nodes < 5000

    def test_counter_check_hook_clean(self):
        # cross-check the incremental counters at every single node
        out = checked_exact(6, 4)
        assert out.status is SearchStatus.SAT
        assert out.certificate.verified

    def test_counter_check_catches_a_corrupted_count(self):
        # the check must see a single slot that is off by one
        with pytest.raises(VerificationError, match="diverged"):
            checked_exact(13, 3, cls=_CorruptedSearch)

    def test_notes_describe_reductions(self):
        assert any("translation" in n for n in exists_basis(5, 3).notes)

    # (m, r) -> (case U nodes, case N nodes, includes barred in case N)
    CASE_NODES = {(24, 4): (26685, 779, 481), (37, 3): (27883, 19, 19)}

    @staticmethod
    def case_notes(out):
        """(case U nodes, case N nodes, barred includes, case N note)."""
        case_u = next(n for n in out.notes if n.startswith("case U"))
        case_n = next(n for n in out.notes if n.startswith("case N"))
        got = re.search(r"took (\d+) nodes, (\d+) includes barred$", case_n)
        assert got is not None, case_n
        nodes_u = int(re.search(r"took (\d+) nodes$", case_u)[1])
        return nodes_u, int(got[1]), int(got[2]), case_n

    def test_notes_give_nodes_per_case(self):
        for (m, r), expected in self.CASE_NODES.items():
            out = exists_basis(m, r)
            assert out.status is SearchStatus.UNSAT
            *counts, case_n = self.case_notes(out)
            assert tuple(counts) == expected, (m, r)
            assert counts[0] + counts[1] == out.nodes
            assert "translation" in case_n

    def test_prime_case_n_is_zero_alone(self):
        # every nonzero e is a unit mod a prime, so each case-N node bars its
        # include and A stays {0}
        for m, r in ((7, 2), (13, 3), (37, 3)):
            _, nodes_n, barred, _ = self.case_notes(exists_basis(m, r))
            assert nodes_n == barred > 0, (m, r)

    def test_case_n_skipped_after_a_case_u_basis(self):
        out = exists_basis(24, 5)
        assert out.status is SearchStatus.SAT
        assert any(n.startswith("case N") and n.endswith("not searched") for n in out.notes)

    @staticmethod
    def pinned_fields(out):
        witness = None if out.certificate is None else out.certificate.elements
        return (
            out.status.value,
            out.nodes,
            out.prunes["max_rep"],
            out.prunes["coverage"],
            witness,
        )

    # (m, r) -> (status, nodes, max_rep, coverage, witness); any change to
    # the DFS order or its prunes shows here before it shows in an answer.
    PINNED_GRID = {
        (13, 3): ("UNSAT", 132, 87, 40, None),
        (16, 4): ("UNSAT", 1670, 1054, 559, None),
        (20, 4): ("UNSAT", 7291, 4925, 2202, None),
        (20, 5): ("SAT", 460, 362, 91, (0, 1, 2, 3, 5, 8, 10, 14)),
    }

    def test_pinned_counts_on_a_grid(self):
        for (m, r), expected in self.PINNED_GRID.items():
            assert self.pinned_fields(exists_basis(m, r)) == expected, (m, r)

    def test_counter_check_on_a_grid(self):
        # decode R and P at every node and compare them with pair
        # enumeration; the hook must not change the search either
        for m in range(1, 17):
            for r in range(1, 6):
                checked = checked_exact(m, r)
                plain = exists_basis(m, r)
                assert (checked.status, checked.nodes, checked.prunes) == (
                    plain.status, plain.nodes, plain.prunes
                ), (m, r)

    # (m, r) -> (status, nodes, max_rep, coverage, witness) on the decisions
    # the search-exact benchmark workload makes, plus r > m and the smallest
    # UNSAT
    PINNED_WORKLOAD = {
        (24, 4): ("UNSAT", 27464, 19544, 7441, None),
        (24, 5): ("SAT", 13683, 10198, 3478, (0, 1, 2, 6, 9, 10, 12, 17)),
        (5, 100): ("SAT", 2, 0, 0, (0, 1, 2)),
        (2, 1): ("UNSAT", 1, 1, 1, None),
    }

    def test_pinned_counts_on_workload_cases(self):
        for (m, r), expected in self.PINNED_WORKLOAD.items():
            assert self.pinned_fields(exists_basis(m, r)) == expected, (m, r)


class TestRuzsaNumber:
    def test_matches_frozen_table(self):
        for m, expected in FROZEN_MIN_CAP.items():
            res = ruzsa_number(m)
            assert res.exact, m
            assert res.value == expected, m
            assert res.lo == res.hi == expected

    def test_matches_live_brute_force(self):
        for m in range(1, 11):
            assert ruzsa_number(m).value == brute(m), m

    def test_probe_trail_shape(self):
        res = ruzsa_number(10)
        assert res.probes == (
            (1, SearchStatus.UNSAT),
            (2, SearchStatus.UNSAT),
            (3, SearchStatus.UNSAT),
            (4, SearchStatus.SAT),
        )
        assert res.unsat_record is not None
        assert res.unsat_record.status is SearchStatus.UNSAT
        assert res.certificate.verified

    def test_unsat_record_absent_only_for_value_one(self):
        assert ruzsa_number(1).unsat_record is None
        for m in (2, 3, 7):
            assert ruzsa_number(m).unsat_record is not None

    def test_certificate_survives_cap_relaxation(self):
        res = ruzsa_number(12)
        relaxed = make_certificate(res.m, res.certificate.elements, res.value + 1)
        assert relaxed.verified

    def test_budget_exhaustion_yields_bracket(self):
        res = ruzsa_number(16, node_budget=50)
        assert not res.exact
        assert res.value is None
        assert 1 <= res.lo <= res.hi <= 16
        assert res.hi == res.certificate.claimed_r
        assert res.certificate.verified
        # the bracket must contain the true answer
        assert res.lo <= FROZEN_MIN_CAP[16] <= res.hi

    def test_time_budget_yields_bracket(self):
        # r=4 is UNSAT at m=16 in 1670 nodes, past the first deadline poll at
        # 1024, so the probe there runs out; the heuristic fallback that
        # brackets it takes no time budget
        res = ruzsa_number(16, node_budget=10**9, time_budget=1e-6)
        assert not res.exact
        assert res.lo == 4
        assert res.lo <= FROZEN_MIN_CAP[16] <= res.hi == res.certificate.claimed_r
        assert res.certificate.verified

    def test_modulus_below_one_refused(self):
        for m in (0, -3):
            with pytest.raises(ValueError, match="modulus"):
                ruzsa_number(m)


class TestMakeCertificate:
    def test_verified_flag_honest(self):
        good = make_certificate(7, [0, 1, 2, 4], 3)
        assert good.verified
        too_tight = make_certificate(7, [0, 1, 2, 4], 2)
        assert not too_tight.verified
        not_covering = make_certificate(7, [0, 1], 7)
        assert not not_covering.verified

    def test_elements_normalized_sorted(self):
        cert = make_certificate(5, [3, 0, 1], 3)
        assert cert.elements == (0, 1, 3)


class TestCounts:
    def test_matches_naive_profile_under_random_add_remove(self):
        # The heuristic's packed A and R and its objective terms, against
        # the pair-enumeration profile after every add or remove.
        capped = uncapped = 0
        for seed in range(8):
            rng = random.Random(seed)
            m = rng.randint(1, 40)
            r = rng.randint(1, 6)
            counts = _LocalSearch(m, r, random.Random(0), [None])
            present: set[int] = set()
            for _ in range(80):
                e = rng.randrange(m)
                if e in present:
                    counts.remove(e)
                    present.discard(e)
                else:
                    counts.add(e)
                    present.add(e)
                subset = GroupSubset.from_elements(Group.cyclic(m), present)
                expected = rep_profile_naive(subset).counts
                assert counts.decode(counts.R) == expected, (seed, sorted(present))
                uncovered = sum(1 for c in expected if c == 0)
                assert counts.zeros(counts.R) == uncovered
                excess = sum(c - r for c in expected if c > r)
                for guess in (0, max(expected), m):
                    assert counts._objective(uncovered, guess) == (
                        uncovered, max(expected), excess, len(present)
                    ), (seed, sorted(present), guess)
                assert counts.members == sorted(present)
                assert counts.decode(counts.A) == tuple(int(g in present) for g in range(m))
                capped += max(expected) <= r
                uncapped += max(expected) > r
        assert capped and uncapped


class TestHeuristic:
    def run(self, m, r, **kw):
        kw.setdefault("moves", 2000)
        return heuristic_upper_bound(m, r, **kw)

    def test_deterministic_for_fixed_seed(self):
        a = self.run(30, 4, seed=3, threads=2)
        b = self.run(30, 4, seed=3, threads=2)
        assert a.status == b.status
        assert a.certificate.elements == b.certificate.elements
        assert a.certificate.claimed_r == b.certificate.claimed_r
        c = self.run(30, 4, seed=4, threads=2)
        assert c.certificate.verified  # may or may not differ, must verify

    def test_seeded_result_is_pinned(self):
        # Any change to the RNG call sequence of the local search moves this.
        out = self.run(30, 4, seed=3, threads=2)
        assert out.status is SearchStatus.EXHAUSTED
        assert out.certificate.elements == (0, 2, 5, 9, 18, 19, 23, 24, 26)
        assert out.certificate.claimed_r == 6
        assert out.certificate.verified
        assert out.nodes == 4000

    def test_upper_bounds_respect_true_minimum(self):
        for m in range(2, 17):
            out = self.run(m, FROZEN_MIN_CAP[m])
            assert out.certificate.verified
            assert out.certificate.claimed_r >= FROZEN_MIN_CAP[m], m

    def test_meets_reachable_targets(self):
        for m in (6, 10, 13, 16):
            out = self.run(m, FROZEN_MIN_CAP[m])
            assert out.status is SearchStatus.SAT, m
            assert out.certificate.claimed_r <= FROZEN_MIN_CAP[m]

    def test_never_unsat_even_with_no_budget(self):
        out = self.run(5, 1, moves=1)
        assert out.status in (SearchStatus.SAT, SearchStatus.EXHAUSTED)
        assert out.status is not SearchStatus.UNSAT
        assert out.certificate is not None
        assert out.certificate.verified

    def test_full_group_fallback_always_certifies(self):
        # impossible target: certificate still present and verified
        out = self.run(9, 1)
        assert out.status is SearchStatus.EXHAUSTED
        assert out.certificate.verified
        assert out.certificate.claimed_r > 1

    def test_full_group_wins_when_no_worker_covers(self):
        # With seed 0, one move from a 10-element draw leaves Z_50 uncovered,
        # so the full group's closed-form objective wins and must re-verify.
        out = self.run(50, 4, moves=1)
        assert out.status is SearchStatus.EXHAUSTED
        assert out.certificate.elements == tuple(range(50))
        assert out.certificate.claimed_r == 50
        assert out.certificate.verified
