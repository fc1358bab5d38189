import hashlib
import random
import re
import sys
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from repfn import search
from repfn.groups import Group, GroupSubset, VerificationError
from repfn.profiles import rep_profile_naive
from repfn.search import (
    DEFAULT_NODE_BUDGET,
    SearchStatus,
    _local_search,
    _Slots,
    exists_basis,
    heuristic_upper_bound,
    make_certificate,
    ruzsa_number,
)
from ruzsa_oracle import FROZEN_MIN_CAP, brute


class _CheckedStack(list):
    """The DFS stack with R and P of every node pushed decoded and compared
    with pair enumeration of the members, and of the members plus every
    x >= e, and V with the indicator of that second set; checked counts the
    nodes pushed.  Every node with an element left to decide is pushed
    before its include branch is tried."""

    def __init__(self, m, r):
        super().__init__()
        self.m = m
        self.lay = _Slots(m, max(m, r))
        self.checked = 0

    def append(self, node):
        e, A, R, P, V = node
        m, lay = self.m, self.lay
        self.checked += 1
        members = [x for x, a in enumerate(lay.decode(A)) if a]
        available = [*members, *range(e, m)]
        group = Group.cyclic(m)
        expected = tuple(
            rep_profile_naive(GroupSubset.from_elements(group, elems)).counts
            for elems in (members, available)
        )
        indicator = tuple(int(x in available) for x in range(m))
        if (lay.decode(R), lay.decode(P), lay.decode(V)) != (*expected, indicator):
            raise VerificationError("incremental counters diverged from the profile")
        super().append(node)


class _CorruptedStack(_CheckedStack):
    """The checked stack, which keeps the first e = 2 node pushed with R
    one higher at slot 4: the search resumes from that node with one count
    off by one, so the next node pushed must fail the check."""

    def __init__(self, m, r):
        super().__init__(m, r)
        self.corrupted = False

    def append(self, node):
        super().append(node)
        e, A, R, P, V = node
        if e == 2 and not self.corrupted:
            self.corrupted = True
            self[-1] = (e, A, R + (1 << (self.lay.w * 4)), P, V)


def checked_exact(m, r, stack=_CheckedStack):
    """exists_basis(m, r), run on stack(m, r) in each case, and the number
    of nodes checked over both cases' stacks."""
    stacks = []
    exact_search = search._exact_search

    def make():
        stacks.append(stack(m, r))
        return stacks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_exact_search", lambda *args: exact_search(*args, stack=make))
        out = exists_basis(m, r)
    return out, sum(s.checked for s in stacks)


class TestArguments:
    def test_validation(self):
        bad = [
            (exists_basis, dict(m=0, r=1)),
            (exists_basis, dict(m=5, r=0)),
            (exists_basis, dict(m=5, r=2, node_budget=0)),
            (heuristic_upper_bound, dict(m=5, r=2, moves=0)),
            (heuristic_upper_bound, dict(m=5, r=2, threads=0)),
        ]
        for fn, kwargs in bad:
            with pytest.raises(ValueError):
                fn(**kwargs)

    def test_budget_error_names_the_budget(self):
        with pytest.raises(ValueError, match="^node budget must be positive$"):
            exists_basis(5, 2, node_budget=0)
        with pytest.raises(ValueError, match="^move budget must be positive$"):
            heuristic_upper_bound(5, 2, moves=0)

    def test_each_search_refuses_the_others_keywords(self):
        for kwargs in (dict(seed=1), dict(threads=2), dict(moves=100)):
            with pytest.raises(TypeError):
                exists_basis(5, 2, **kwargs)
        for kwargs in (dict(node_budget=100), dict(time_budget=1.0)):
            with pytest.raises(TypeError):
                heuristic_upper_bound(5, 2, **kwargs)

    def test_no_search_takes_a_time_budget(self):
        # node_budget is the one stop: no clock decides an outcome
        with pytest.raises(TypeError):
            exists_basis(5, 2, time_budget=1.0)
        with pytest.raises(TypeError):
            ruzsa_number(5, time_budget=1.0)

    def test_two_runs_give_equal_outcomes(self):
        # No clock or float enters a result, so a repeat compares equal.
        runs = [
            (lambda: exists_basis(10, 4), SearchStatus.SAT),
            (lambda: exists_basis(13, 3), SearchStatus.UNSAT),
            (lambda: exists_basis(36, 5, node_budget=2000), SearchStatus.EXHAUSTED),
            (lambda: heuristic_upper_bound(30, 4, moves=500, seed=3, threads=2), None),
        ]
        for run, status in runs:
            first = run()
            assert status is None or first.status is status
            assert run() == first
        for m, node_budget, exact in ((10, DEFAULT_NODE_BUDGET, True), (16, 50, False)):
            first = ruzsa_number(m, node_budget=node_budget)
            assert first.exact is exact
            assert ruzsa_number(m, node_budget=node_budget) == first


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

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # Each decided element is one level of the DFS, and these budgets
        # reach deeper than Python's recursion limit before they run out.
        assert 1200 > sys.getrecursionlimit()
        for m, r, budget in ((1200, 8, 2000), (1500, 3, 3000)):
            out = exists_basis(m, r, node_budget=budget)
            assert out.status is SearchStatus.EXHAUSTED, (m, r)
            assert out.nodes == budget + 1, (m, r)
            assert out.certificate is None

    def test_table_memory_is_one_int_per_depth(self):
        # The per-depth table holds one w·e-bit int per e; the four ints of
        # up to w·m bits per e it once held peaked at 53.9 MiB here.  It
        # reaches only the depths the budget can reach: at m = 12000 the
        # table for every depth peaked at 139 MiB.
        for m in (4000, 12000):
            tracemalloc.start()
            try:
                out = exists_basis(m, 3, node_budget=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.status is SearchStatus.EXHAUSTED, m
            assert peak < 20 * 2**20, (m, peak)

    def test_counter_check_hook_clean(self):
        # cross-check the incremental counters at every node pushed
        out, checked = checked_exact(6, 4)
        assert out.status is SearchStatus.SAT
        assert out.certificate.verified
        assert checked > 0

    def test_counter_check_catches_a_corrupted_count(self):
        # the check must see a single slot that is off by one
        with pytest.raises(VerificationError, match="diverged"):
            checked_exact(13, 3, stack=_CorruptedStack)

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
        # decode R and P at every node pushed and compare them with pair
        # enumeration; the hook must not change the search either
        for m in range(1, 17):
            for r in range(1, 6):
                checked, count = checked_exact(m, r)
                plain = exists_basis(m, r)
                assert (checked.status, checked.nodes, checked.prunes) == (
                    plain.status, plain.nodes, plain.prunes
                ), (m, r)
                # A second node is only reached through the stack.
                assert count > 0 or plain.nodes == 1, (m, r)

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

    # The sha256 of 840 outcomes (326 SAT, 214 UNSAT, 300 EXHAUSTED), one
    # line each, recorded before the exact search became one function over
    # one slot layout.  The notes carry each case's node count and barred
    # includes.
    GRID_DIGEST = "39af6447b90abd26a9b9d49540d4e2f9770b9df3a70850488def72f2dbcea034"

    def test_outcomes_over_a_grid_are_pinned(self):
        digest = hashlib.sha256()
        for m in range(1, 31):
            for r in range(1, 8):
                for budget in (1, 50, 3000, 200000):
                    out = exists_basis(m, r, node_budget=budget)
                    cert = out.certificate
                    elements = "-" if cert is None else ",".join(map(str, cert.elements))
                    line = (
                        f"{m},{r},{budget}:{out.status.value},{out.nodes},{out.prunes['max_rep']},"
                        f"{out.prunes['coverage']},{elements},{'|'.join(out.notes)}\n"
                    )
                    digest.update(line.encode())
        assert digest.hexdigest() == self.GRID_DIGEST


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


class TestSlots:
    """The slot-packed counts of the searches against a plain list of
    counts."""

    def test_rot_max_rep_decode_match_a_list(self):
        rng = random.Random(14)
        for _ in range(200):
            m = rng.randint(1, 40)
            bound = rng.randint(1, 50)
            counts = [rng.choice((0, rng.randint(0, bound))) for _ in range(m)]
            slots = _Slots(m, bound)
            X = sum(c << (slots.w * g) for g, c in enumerate(counts))
            assert slots.decode(X) == tuple(counts)
            e = rng.randrange(m)
            assert slots.decode(slots.rot(X, e)) == tuple(counts[(g - e) % m] for g in range(m))
            for guess in (0, max(counts), bound, rng.randint(0, bound)):
                assert slots.max_rep(X, guess) == max(counts)

    def test_flip_matches_the_difference_of_two_profiles(self):
        # flip(S, e) = (S', rot(S + S', e)) with S' = S ^ bit(e); the second
        # part is the change of S's pair counts, added when e goes in and
        # subtracted when it comes out.
        rng = random.Random(24)
        for _ in range(40):
            m = rng.randint(1, 40)
            group = Group.cyclic(m)
            slots = _Slots(m, m)
            density = rng.random()
            members = {x for x in range(m) if rng.random() < density}
            S = sum(1 << (slots.w * x) for x in members)
            before = rep_profile_naive(GroupSubset.from_elements(group, members)).counts
            for e in range(m):
                flipped = members ^ {e}
                after = rep_profile_naive(GroupSubset.from_elements(group, flipped)).counts
                S2, D = slots.flip(S, e)
                assert slots.decode(S2) == tuple(int(x in flipped) for x in range(m))
                sign = 1 if e in flipped else -1
                assert slots.decode(D) == tuple(sign * (a - b) for a, b in zip(after, before))
                # The way back takes the same change the other way.
                assert slots.flip(S2, e) == (S, D)

    def test_cap_is_the_largest_bound_of_its_width(self):
        for m in (1, 7, 40):
            for bound in range(200):
                slots = _Slots(m, bound)
                assert bound <= slots.cap
                assert _Slots(m, slots.cap).w == slots.w < _Slots(m, slots.cap + 1).w

    def test_pack_decodes_to_the_pair_counts(self):
        # Counts are at most |A|, so a layout for that bound holds them.
        rng = random.Random(34)
        for _ in range(60):
            m = rng.randint(1, 40)
            members = rng.sample(range(m), rng.randint(0, m))
            slots = _Slots(m, len(members))
            A, R = slots.pack(members)
            expected = rep_profile_naive(GroupSubset.from_elements(Group.cyclic(m), members)).counts
            assert slots.decode(R) == expected
            assert slots.decode(A) == tuple(int(x in members) for x in range(m))

    def test_array_pack_matches_the_flip_rule(self):
        # pack builds (A, R) from arrays; the reference packs the same set
        # by the flip rule, one element at a time, at every width from the
        # least whose cap holds its counts up to 12.  Intervals give large
        # counts, random draws small ones.
        rng = random.Random(54)
        for trial in range(30):
            m = rng.randint(1, 2000)
            k = rng.randint(0, min(m, 90))
            members = list(range(k)) if trial % 3 == 0 else rng.sample(range(m), k)
            counts = [0] * m
            for a in members:
                for b in members:
                    counts[(a + b) % m] += 1
            for w in range(_Slots(m, max(counts)).w, 13):
                slots = _Slots(m, (1 << (w - 1)) - 3)
                assert slots.w == w
                A = R = 0
                for e in members:
                    A, D = slots.flip(A, e)
                    R += D
                assert slots.decode(R) == tuple(counts)
                assert slots.pack(members) == (A, R), (m, w)
                # pack_array takes any value below 2^w, top bit included.
                X = [rng.randrange(1 << w) for _ in range(m)]
                assert slots.pack_array(np.array(X)) == sum(x << (w * g) for g, x in enumerate(X))

    def test_excess_matches_a_list_for_every_r_up_to_cap(self):
        rng = random.Random(44)
        for _ in range(60):
            m = rng.randint(1, 40)
            slots = _Slots(m, rng.randint(0, 60))
            counts = [rng.choice((0, slots.cap, rng.randint(0, slots.cap))) for _ in range(m)]
            R = sum(c << (slots.w * g) for g, c in enumerate(counts))
            for r in range(slots.cap + 1):
                assert slots.excess(R, r) == sum(max(0, c - r) for c in counts), (m, r)


class TestCounts:
    def test_matches_naive_profile_under_random_add_remove(self):
        # The heuristic's packed A and R, driven by _Slots.flip, and its
        # objective terms, against the pair-enumeration profile after every
        # flip; every r drawn here is at most the layout's cap.
        capped = uncapped = 0
        for seed in range(8):
            rng = random.Random(seed)
            m = rng.randint(1, 40)
            r = rng.randint(1, 6)
            counts = _Slots(m, m)
            assert r <= counts.cap
            # The full group, whose slots all hold m, reaches the top bit plane.
            assert counts.excess(counts.ones * m, r) == m * max(0, m - r)
            present: set[int] = set()
            A = R = 0
            for _ in range(80):
                e = rng.randrange(m)
                A, D = counts.flip(A, e)
                if e in present:
                    R -= D
                    present.remove(e)
                else:
                    R += D
                    present.add(e)
                subset = GroupSubset.from_elements(Group.cyclic(m), present)
                expected = rep_profile_naive(subset).counts
                assert counts.decode(R) == expected, (seed, sorted(present))
                for guess in (0, max(expected), m):
                    assert counts.max_rep(R, guess) == max(expected), (seed, guess)
                assert counts.excess(R, r) == sum(c - r for c in expected if c > r)
                assert counts.decode(A) == tuple(int(g in present) for g in range(m))
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

    def test_each_run_starts_at_the_first_restart_seed(self):
        # 57 = 7^2 + 7 + 1, so the restart pool alternates a random draw and
        # the Singer set; a second run that went on from the first run's
        # place in the pool would move this.
        out = self.run(57, 4, moves=1000, seed=0, threads=2)
        assert out.status is SearchStatus.EXHAUSTED
        assert out.certificate.elements == (1, 2, 3, 8, 13, 22, 27, 31, 33, 35, 41, 43, 44, 47)
        assert out.certificate.claimed_r == 7
        assert out.certificate.verified

    # Outcomes recorded before the local search loop was rewritten with its
    # state in locals and its draws taken from getrandbits; each pins the
    # RNG call sequence of one shape.
    HEURISTIC_PINS = [
        (
            (240, 240, dict(moves=3000, seed=11)),
            SearchStatus.SAT, 12,
            (1, 9, 12, 27, 33, 34, 35, 45, 53, 64, 66, 77, 80, 86, 91, 92, 120, 135, 150,
             157, 166, 167, 171, 176, 190, 207, 211, 213, 216, 225, 227, 228, 231),
        ),
        (
            # 993 = 31^2 + 31 + 1: the Singer set is a restart seed.
            (993, 993, dict(moves=2000, seed=13)),
            SearchStatus.SAT, 16,
            (4, 16, 25, 29, 31, 44, 47, 60, 66, 77, 87, 88, 94, 113, 116, 122, 128, 146,
             164, 195, 228, 237, 240, 253, 257, 276, 291, 331, 366, 372, 382, 390, 410,
             416, 419, 424, 442, 444, 467, 468, 469, 492, 515, 562, 573, 585, 590, 591,
             606, 611, 625, 633, 647, 658, 692, 711, 713, 717, 721, 731, 752, 761, 792,
             798, 799, 804, 841, 853, 867, 892, 906, 907, 912, 925, 945, 961, 978, 980,
             981, 988, 990),
        ),
        (
            # r < m, so the excess term is taken.
            (100, 8, dict(moves=20000, seed=5)),
            SearchStatus.SAT, 8,
            (13, 15, 21, 34, 40, 41, 43, 44, 51, 54, 55, 60, 62, 64, 67, 80, 91, 97, 99),
        ),
        (
            # Two runs, each crossing restart boundaries.
            (120, 6, dict(moves=1500, seed=7, threads=2)),
            SearchStatus.EXHAUSTED, 9,
            (0, 5, 14, 22, 44, 55, 62, 63, 65, 69, 75, 76, 77, 78, 80, 89, 92, 96, 97,
             109, 115, 116, 119),
        ),
    ]

    @pytest.mark.parametrize("shape, status, cap, elements", HEURISTIC_PINS)
    def test_pinned_outcomes_on_larger_shapes(self, shape, status, cap, elements):
        m, r, kw = shape
        out = heuristic_upper_bound(m, r, **kw)
        assert out.status is status
        assert out.certificate.claimed_r == cap
        assert out.certificate.elements == elements
        assert out.certificate.verified
        assert out.nodes == kw["moves"] * kw.get("threads", 1)

    # Outcomes recorded before run() packed its counts at the width its sets
    # need; each run grows |A| past the capacity of its starting width, and
    # the first two take the excess term after widening.
    WIDENING_PINS = [
        (
            (240, 6, dict(moves=3000, seed=0)),
            SearchStatus.EXHAUSTED, 12,
            (21, 28, 29, 33, 37, 40, 43, 49, 55, 58, 59, 60, 66, 85, 88, 96, 100, 109,
             128, 146, 156, 157, 159, 164, 172, 177, 195, 208, 211, 230, 235, 236,
             237),
        ),
        (
            (500, 8, dict(moves=3000, seed=0)),
            SearchStatus.EXHAUSTED, 14,
            (4, 6, 11, 15, 18, 21, 22, 25, 27, 34, 47, 68, 70, 74, 83, 85, 107, 118,
             123, 126, 129, 157, 160, 166, 190, 197, 206, 212, 223, 242, 260, 265,
             266, 287, 290, 298, 307, 315, 325, 330, 336, 356, 359, 380, 390, 409,
             431, 434, 448, 461, 463, 464, 486, 496),
        ),
        (
            (2000, 2000, dict(moves=5000, seed=14)),
            SearchStatus.SAT, 20,
            (2, 47, 52, 57, 58, 71, 89, 96, 132, 166, 176, 179, 186, 187, 205, 255,
             258, 283, 285, 320, 333, 337, 344, 358, 394, 427, 428, 439, 465, 478,
             519, 532, 535, 554, 563, 572, 575, 621, 625, 653, 687, 692, 709, 715,
             718, 722, 768, 772, 784, 798, 801, 802, 821, 876, 879, 890, 909, 913,
             935, 971, 977, 988, 995, 1002, 1016, 1017, 1049, 1074, 1079, 1097, 1108,
             1118, 1124, 1126, 1130, 1223, 1225, 1235, 1241, 1260, 1272, 1273, 1287,
             1321, 1332, 1349, 1382, 1395, 1396, 1450, 1451, 1452, 1461, 1473, 1508,
             1531, 1550, 1556, 1571, 1574, 1578, 1585, 1589, 1645, 1651, 1652, 1662,
             1677, 1706, 1716, 1718, 1730, 1748, 1763, 1783, 1860, 1891, 1943, 1945,
             1971, 1979, 1981),
        ),
        (
            # 993 = 31^2 + 31 + 1: the Singer set is a restart seed.
            (993, 993, dict(moves=10000, seed=2, threads=2)),
            SearchStatus.SAT, 16,
            (1, 9, 31, 52, 60, 93, 109, 130, 135, 142, 145, 153, 160, 164, 169, 185,
             222, 232, 244, 260, 263, 277, 283, 292, 298, 301, 304, 314, 327, 329,
             334, 344, 348, 351, 365, 406, 425, 427, 438, 453, 456, 460, 492, 493,
             501, 524, 534, 545, 554, 565, 566, 579, 582, 592, 602, 634, 651, 683,
             688, 752, 764, 765, 766, 774, 785, 799, 809, 849, 859, 869, 900, 945,
             955, 960, 965, 977, 980, 991),
        ),
    ]

    @pytest.mark.parametrize("shape, status, cap, elements", WIDENING_PINS)
    def test_pinned_outcomes_across_a_widening(self, shape, status, cap, elements):
        m, r, kw = shape
        out = heuristic_upper_bound(m, r, **kw)
        assert out.status is status
        assert out.certificate.claimed_r == cap
        assert out.certificate.elements == elements
        assert out.certificate.verified
        assert out.nodes == kw["moves"] * kw.get("threads", 1)

    # The sha256 of 2,388 outcomes, one line each.  The grid holds the
    # Singer seed pools of m = 7, 13, 31, 57, 133 and 183, and about half
    # its runs widen their slots.  Recorded when B_m replaced the full group
    # as the starting best: the 702 outcomes that changed (662 at moves = 1)
    # are B_m itself, each where the full-group start had kept an objective
    # not below B_m's; none of the 1,626 outcomes below B_m's changed.
    GRID_DIGEST = "b1cc09b17b9fa1b7ddf5277c75f7cad5785d8ce013bce278ed919aa2d8748c2d"

    def test_outcomes_over_a_grid_are_pinned(self):
        digest = hashlib.sha256()
        for m in [*range(1, 65), 91, 133, 183]:
            for r in sorted({1, 4, m}):
                for seed in (0, 1):
                    for threads in (1, 2):
                        for moves in (1, 401, 900):
                            out = heuristic_upper_bound(m, r, moves=moves, seed=seed, threads=threads)
                            cert = out.certificate
                            line = (
                                f"{m},{r},{seed},{threads},{moves}:{out.status.value},"
                                f"{cert.claimed_r},{','.join(map(str, cert.elements))}\n"
                            )
                            digest.update(line.encode())
        assert digest.hexdigest() == self.GRID_DIGEST

    def test_best_objective_matches_its_members(self):
        # After two runs from B_m, as heuristic_upper_bound starts them, the
        # recorded objective is the one pair enumeration gives for the
        # recorded members.
        for m, r, seed in [(30, 4, 0), (57, 57, 1), (100, 8, 2), (240, 12, 3), (120, 6, 4)]:
            pool = search._seed_pool(m)
            best = search._sqrt_basis(m, r)
            for w in range(2):
                best = _local_search(m, r, pool, 1000, random.Random(f"{seed}/{w}"), best)
            obj, members = best
            assert list(members) == sorted(set(members)) and len(members) < m, (m, r, seed)
            counts = rep_profile_naive(GroupSubset.from_elements(Group.cyclic(m), members)).counts
            excess = sum(c - r for c in counts if c > r)
            assert obj == (counts.count(0), max(counts), excess, len(members)), (m, r, seed)

    def test_a_run_widens_its_slots_and_keeps_its_counts(self, monkeypatch):
        # A run at m = 240 with seed 11.  Every layout the run packs is
        # recorded with the set it packs: a restart packs its draw, and a
        # widening the members after the accepted move that needed it.
        # Each is at the least width whose cap fits the set's max count + 2,
        # and its packed counts are the pair-enumeration counts.
        m, r, moves = 240, 240, 3000
        packs, widenings = [], []

        class Recorded(_Slots):
            def pack(self, elements):
                widenings.append(self.w)
                return super().pack(elements)

            def pack_array(self, X):
                packed = super().pack_array(X)
                packs.append((self, X.copy(), packed))
                return packed

        monkeypatch.setattr(search, "_Slots", Recorded)
        full = ((0, m, 0, m), tuple(range(m)))
        obj, members = _local_search(m, r, search._seed_pool(m), moves, random.Random("11/0"), full)
        # Each pack is an indicator, then the counts of the same set.
        assert len(packs) % 2 == 0
        for (lay, indicator, A), (same, _, R) in zip(packs[::2], packs[1::2]):
            assert lay is same
            drawn = [x for x in range(m) if indicator[x]]
            assert lay.decode(A) == tuple(int(x) for x in indicator)
            counts = rep_profile_naive(GroupSubset.from_elements(Group.cyclic(m), drawn)).counts
            assert lay.decode(R) == counts
            # The cap fits max + 2, and the cap one width narrower does not.
            assert (1 << (lay.w - 2)) - 3 < max(counts) + 2 <= lay.cap
        restarts = len(packs) // 2 - len(widenings)
        assert restarts == -(-moves // search._RESTART_EVERY)
        assert widenings
        counts = rep_profile_naive(GroupSubset.from_elements(Group.cyclic(m), members)).counts
        excess = sum(c - r for c in counts if c > r)
        assert obj == (counts.count(0), max(counts), excess, len(members))

    def test_seed_pool_tests_the_bound_before_primality(self, monkeypatch):
        # 1009 is a prime above the bound: its order gets random draws alone,
        # and no trial division runs.
        def refuse(n):
            raise AssertionError(f"trial division of {n}")

        monkeypatch.setattr(search, "is_prime", refuse)
        assert search._seed_pool(1009 * 1009 + 1009 + 1) == [None]

    def test_seed_pool_matches_a_walk_to_p(self):
        # _seed_pool finds p in closed form; walking p up to sqrt(m) one
        # step at a time gives the same pool.
        def walked(m):
            pool = [None]
            p = 1
            while p * p + p + 1 < m:
                p += 1
            if p * p + p + 1 == m and p <= search.DEFAULT_PRIME_BOUND and search.is_prime(p):
                pool.append(tuple(search.singer_set(p).elements))
            return pool

        for m in [*range(1, 5000), *(p * p + p + 1 for p in range(1010))]:
            assert search._seed_pool(m) == walked(m), m

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 100, 240, 993, 2000, 4097])
    def test_draws_match_choice_and_randrange(self, n):
        # _local_search draws an index below n as getrandbits(n.bit_length())
        # until the value is below n; on the running CPython that must give
        # what rng.choice and rng.randrange give from the same state.
        def draw(rng):
            k = n.bit_length()
            i = rng.getrandbits(k)
            while i >= n:
                i = rng.getrandbits(k)
            return i

        seq = range(n)
        for seed in range(200):
            inlined, by_choice, by_randrange = (random.Random(seed) for _ in range(3))
            for _ in range(5):
                i = draw(inlined)
                assert i == by_choice.choice(seq) == by_randrange.randrange(n), (n, seed)
            assert inlined.getstate() == by_choice.getstate() == by_randrange.getstate()

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

    def test_impossible_target_still_certifies(self):
        # impossible target: certificate still present and verified
        out = self.run(9, 1)
        assert out.status is SearchStatus.EXHAUSTED
        assert out.certificate.verified
        assert out.certificate.claimed_r > 1

    def test_sqrt_basis_wins_when_no_run_covers(self):
        # With seed 0, one move from a 10-element draw leaves Z_50 uncovered,
        # so B_50 = [0, 8) | {0, 8, ..., 48} wins and must re-verify.
        out = self.run(50, 4, moves=1)
        assert out.status is SearchStatus.EXHAUSTED
        assert out.certificate.elements == (0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 40, 48)
        assert out.certificate.claimed_r == 13
        assert out.certificate.verified

    def test_sqrt_basis_covers_within_its_bound(self):
        # For every m <= 1000, B_m is [0, s) | {0, s, 2s, ...} below m with
        # s = ceil(sqrt(m)), covers Z_m, and has cap <= |B_m| <=
        # 2*ceil(sqrt(m)) - 1, all by a plain pair count.
        for m in range(1, 1001):
            s = isqrt(m)
            s += s * s < m
            obj, members = search._sqrt_basis(m, 4)
            assert members == tuple(sorted({*range(s), *range(0, m, s)})), m
            counts = [0] * m
            for a in members:
                for b in members:
                    counts[(a + b) % m] += 1
            assert min(counts) >= 1, m
            assert max(counts) <= len(members) <= 2 * s - 1, m
            excess = sum(c - 4 for c in counts if c > 4)
            assert obj == (0, max(counts), excess, len(members)), m
        # With one node per probe, the bracket's one heuristic move covers
        # nothing, so its upper end is B_4000: 126 members, re-checked by
        # about 16k pairs where the whole group would take 16M.
        res = ruzsa_number(4000, node_budget=1)
        assert not res.exact and res.certificate.verified
        assert res.certificate.elements == search._sqrt_basis(4000, 4000)[1]
        assert res.lo <= res.hi <= 2 * search.ceil_sqrt(4000) - 1
