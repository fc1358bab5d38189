import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from repfn.constructions import (
    ShiftStat,
    half_period_doubling,
    shift_family_report,
    shifted_doubling,
    sidon_set,
)
from repfn.profiles import rep_profile
from repfn.singer import singer_set


class TestShiftedDoubling:
    def test_p2_shape(self):
        a = shifted_doubling(2, 0)
        assert a.group.order == 14
        assert a.card == 6
        assert rep_profile(a).max_rep <= 4

    def test_p3_all_shifts(self):
        for l in range(13):
            a = shifted_doubling(3, l)
            assert a.group.order == 26
            assert a.card == 8
            assert rep_profile(a).max_rep <= 4

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError):
            shifted_doubling(2, 7)
        with pytest.raises(ValueError):
            shifted_doubling(2, -1)

    def test_even_odd_split_decomposition(self):
        # Counts decompose through the base set: even targets split into the
        # two doubled translates, odd targets are cross terms counted twice.
        for p in (2, 3):
            base = singer_set(p)
            n = base.n
            rb = rep_profile(base.subset).counts
            for l in range(n):
                s = 2 * l + 1
                counts = rep_profile(shifted_doubling(p, l)).counts
                for g in range(2 * n):
                    if g % 2 == 0:
                        h = g // 2
                        want = rb[h % n] + rb[(h - s) % n]
                    else:
                        want = 2 * rb[((g - s) % (2 * n)) // 2 % n]
                    assert counts[g] == want


class TestSidonSet:
    def test_two_rep_class_size(self):
        for p, want in ((2, 3), (3, 6), (5, 15)):
            a = sidon_set(p)
            spec = rep_profile(a).spectrum()
            m = a.group.order
            assert spec.max_rep <= 2
            assert spec[2] == (m - 1) // 2 == want

    def test_same_elements_as_difference_set(self):
        assert sidon_set(3).elements() == singer_set(3).elements


class TestHalfPeriodDoubling:
    def test_four_rep_class_size(self):
        for p, want in ((2, 6), (3, 12), (5, 30)):
            a = half_period_doubling(p)
            spec = rep_profile(a).spectrum()
            m = a.group.order
            assert spec.max_rep <= 4
            assert spec[4] == m // 2 - 1 == want

    def test_p2_pinned_set(self):
        assert half_period_doubling(2).elements() == [0, 2, 6, 7, 9, 13]


class TestShiftFamilyReport:
    def test_p2_exact_values(self):
        rep = shift_family_report(2)
        assert rep.m == 14
        assert rep.x_odd == 1
        assert len(rep.per_l) == 7
        assert rep.avg_even == Fraction(1, 7)
        assert rep.best_l == 0
        assert rep.best_stat.x_even == 0
        assert rep.best_s0 == 1

    def test_p3_exact_values(self):
        rep = shift_family_report(3)
        assert rep.x_odd == 3
        assert sum(s.x_even for s in rep.per_l) == 9
        assert rep.best_l == 2
        assert rep.best_s0 == 3

    def test_p5_exact_values(self):
        rep = shift_family_report(5)
        assert rep.x_odd == 10
        assert sum(s.x_even for s in rep.per_l) == 100
        assert rep.avg_even == Fraction(100, 31)
        assert rep.best_l == 0
        assert rep.best_s0 == 12

    def test_invariants(self):
        for p in (2, 3, 5):
            rep = shift_family_report(p)
            expected_odd = (p * p - p) // 2
            assert all(s.x_odd == expected_odd for s in rep.per_l)
            assert all(s.s0 == s.x_odd + s.x_even for s in rep.per_l)
            assert all(s.max_rep <= 4 for s in rep.per_l)
            assert rep.best_stat.x_even <= rep.avg_even
            assert 8 * rep.best_s0 < 3 * rep.m

    def test_best_l_matches_direct_spectrum(self):
        rep = shift_family_report(3)
        a = shifted_doubling(3, rep.best_l)
        s0 = sum(1 for c in rep_profile(a).counts if c == 0)
        assert s0 == rep.best_s0
        assert rep.best_set.elements() == a.elements()

    def test_per_l_counts_match_direct_scan(self):
        rep = shift_family_report(2)
        for stat in rep.per_l:
            counts = rep_profile(shifted_doubling(2, stat.l)).counts
            assert sum(1 for c in counts if c == 0) == stat.s0


class TestShiftScanAgainstPairCounts:
    def test_every_row_matches_a_pair_count(self):
        for p in (2, 3, 5, 7, 11):
            rep = shift_family_report(p)
            m = rep.m
            assert [s.l for s in rep.per_l] == list(range(p * p + p + 1))
            for stat in rep.per_l:
                elements = shifted_doubling(p, stat.l).elements()
                counts = Counter((a + b) % m for a in elements for b in elements)
                x_odd = sum(1 for g in range(1, m, 2) if counts[g] == 0)
                x_even = sum(1 for g in range(0, m, 2) if counts[g] == 0)
                assert (stat.x_odd, stat.x_even, stat.s0, stat.max_rep) == (
                    x_odd, x_even, x_odd + x_even, max(counts.values())
                )

    def test_p31_pinned(self):
        rep = shift_family_report(31)
        assert rep.m == 1986
        assert rep.best_l == 8
        assert rep.best_s0 == 678
        assert rep.x_odd == 465
        assert rep.avg_even == Fraction(72075, 331)
        assert all(s.max_rep == 4 for s in rep.per_l)


class TestShiftScanPinned:
    # sha256 of the scan's rows, one "l,x_odd,x_even,s0,max_rep" line per
    # shift joined by newlines, with best_l, recorded from the slot-packed
    # scan that profiled every shift.
    PINS = {
        61: (217, "f42f07d8ca3e67fd18a3305512837892a0c6bf2551a2783f0baf82a5933cf585"),
        101: (116, "7b7ce8ab62fce55e2617eb98cd7ac30be00114044dd0ffdf4ffbc91ef82858a4"),
    }

    @pytest.mark.parametrize("p", sorted(PINS))
    def test_rows_and_best_l_pinned(self, p):
        rep = shift_family_report(p)
        text = "\n".join(
            f"{s.l},{s.x_odd},{s.x_even},{s.s0},{s.max_rep}" for s in rep.per_l
        )
        best_l, digest = self.PINS[p]
        assert rep.best_l == best_l
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestShiftStat:
    def test_immutable_tuple(self):
        stat = shift_family_report(3).per_l[2]
        assert type(stat) is ShiftStat
        for name in ShiftStat._fields:
            with pytest.raises(AttributeError):
                setattr(stat, name, 0)
        assert stat == (stat.l, stat.x_odd, stat.x_even, stat.s0, stat.max_rep)
        assert stat.l == 2 and stat.s0 == stat.x_odd + stat.x_even
