import random
import tracemalloc
from collections import Counter
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from repfn import profiles
from repfn.groups import (
    Group,
    GroupMismatchError,
    GroupSubset,
    InvalidElementError,
    UnsupportedGroupError,
    VerificationError,
    read_subset,
)
from repfn.profiles import (
    RepProfile,
    _choose_engine,
    rep_diff_profile,
    rep_profile,
    rep_profile_fast,
    rep_profile_naive,
    sparse_spectrum,
    spectrum,
)
from repfn.singer import singer_set


def subset(orders, elems):
    return GroupSubset.from_elements(Group(tuple(orders)), elems)


class TestNaive:
    def test_z5_pair(self):
        a = subset([5], [0, 1])
        assert rep_profile_naive(a).counts == (1, 2, 1, 0, 0)

    def test_empty(self):
        a = subset([5], [])
        assert rep_profile_naive(a).counts == (0, 0, 0, 0, 0)

    def test_z7_worked_example(self):
        a = subset([7], [1, 2, 4])
        prof = rep_profile_naive(a)
        assert prof.counts == (0, 1, 1, 2, 1, 2, 2)
        assert prof.mass() == 9
        assert prof.max_rep == 2
        assert prof.level_set(2) == [3, 5, 6]

    def test_rectangular_pair(self):
        a = subset([6], [0, 1])
        b = subset([6], [2, 4])
        assert rep_profile_naive(a, b).counts == (0, 0, 1, 1, 1, 1)

    def test_trivial_group(self):
        a = subset([1], [0])
        assert rep_profile_naive(a).counts == (1,)

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            rep_profile_naive(subset([5], [0]), subset([6], [0]))

    def test_multidimensional(self):
        # Z_2 x Z_2, A = {(0,0),(1,1)}: every pair sums inside {(0,0),(1,1)}
        a = subset([2, 2], [0, 3])
        assert rep_profile_naive(a).counts == (2, 0, 0, 2)


def test_naive_peak_memory_on_the_p401_singer_set():
    # One chunk of 401 rows covers 161202 of the 161604 pairs, and its
    # bincount is the count array itself: 2.48 MiB at the peak, about two
    # arrays of 8 * order bytes.  Chunks of 163 rows added into a separate
    # zeroed accumulator peaked at 3.47 MiB.
    a = read_subset(Path(__file__).resolve().parent.parent / "perfbench" / "singer401.json")
    for b in (a, a.negate()):
        tracemalloc.start()
        try:
            rep_profile_naive(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * a.group.order, peak


class TestFast:
    def test_matches_naive_on_examples(self):
        for orders, elems in [
            ([7], [1, 2, 4]),
            ([5], [0, 1]),
            ([1], [0]),
            ([14], [0, 2, 6, 7, 9, 13]),
            ([2, 3], [0, 2, 4, 5]),
            ([2, 2, 2], [0, 3, 5]),
        ]:
            a = subset(orders, elems)
            assert rep_profile_fast(a).counts == rep_profile_naive(a).counts

    def test_randomized_equivalence(self):
        rng = random.Random(42)
        for _ in range(150):
            k = rng.choice((1, 1, 2, 3))
            orders = [rng.randint(1, (64, 12, 5)[k - 1]) for _ in range(k)]
            g = Group(tuple(orders))
            ca = rng.randint(0, g.order)
            cb = rng.randint(0, g.order)
            a = GroupSubset.from_elements(g, rng.sample(range(g.order), ca))
            b = GroupSubset.from_elements(g, rng.sample(range(g.order), cb))
            assert rep_profile_fast(a, b).counts == rep_profile_naive(a, b).counts

    def test_wide_slots_for_large_counts(self):
        # 300 elements force 2-byte slots; full group forces the same via
        # coefficient bound m
        g = Group.cyclic(300)
        a = GroupSubset.full(g)
        assert rep_profile_fast(a).counts == tuple([300] * 300)

    def test_cross_check_mode(self):
        a = subset([31], [0, 1, 4, 10, 12, 17])
        assert rep_profile(a, cross_check=True).counts == rep_profile_naive(a).counts


class TestDispatcher:
    def test_methods_agree(self):
        a = subset([13], [0, 1, 3, 9])
        want = rep_profile_naive(a).counts
        assert rep_profile(a).counts == want
        assert rep_profile_fast(a).counts == want

    def test_cross_check_through_dispatcher(self):
        a = subset([11], [0, 2, 3])
        assert rep_profile(a, cross_check=True).counts == rep_profile(a).counts

    @pytest.mark.parametrize(
        "a, picked, patched",
        [
            (subset([401], [0, 1, 5]), "naive", "rep_profile_fast"),
            (subset([1000], range(0, 1000, 2)), "fast", "rep_profile_naive"),
        ],
        ids=["sparse", "dense"],
    )
    def test_cross_check_catches_a_disagreement(self, monkeypatch, a, picked, patched):
        assert _choose_engine(a, a) == picked
        monkeypatch.setattr(profiles, patched, _one_count_off(getattr(profiles, patched)))
        rep_profile(a)  # the picked engine alone does not notice
        with pytest.raises(VerificationError):
            rep_profile(a, cross_check=True)


def _one_count_off(engine):
    """engine with its count at 0 raised by one."""

    def off(a, b=None):
        counts = engine(a, b).counts
        return RepProfile(a.group, (counts[0] + 1, *counts[1:]))

    return off



def _sample(orders, size, seed=0):
    g = Group(tuple(orders))
    return GroupSubset.from_elements(g, random.Random(seed).sample(range(g.order), size))


# (label, subset factory, engine that auto must pick); shapes of the engine
# grid in perfbench/grid.py.
ENGINE_GRID = [
    ("Singer set in Z_161203", lambda: singer_set(401).subset, "naive"),
    ("363 of Z_65536", lambda: _sample([65536], 363), "naive"),
    ("128 of Z_2^13", lambda: _sample([2] * 13, 128), "naive"),
    ("128 of Z_2^14", lambda: _sample([2] * 14, 128), "naive"),
    ("51 of Z_4xZ_5xZ_7xZ_9", lambda: _sample([4, 5, 7, 9], 51), "naive"),
    ("half of Z_2^12", lambda: _sample([2] * 12, 2048), "fast"),
    ("half of Z_65536", lambda: _sample([65536], 32768), "fast"),
    ("half of Z_16^3", lambda: _sample([16] * 3, 2048), "fast"),
    ("630 of Z_4xZ_5xZ_7xZ_9", lambda: _sample([4, 5, 7, 9], 630), "fast"),
]


# Pair enumeration takes seconds on this shape (2^30 pairs), so the
# comparison leaves it out there.
SECONDS_LONG = {"half of Z_65536": "naive"}


class TestCostModel:
    @pytest.mark.parametrize("label,make,engine", ENGINE_GRID, ids=[g[0] for g in ENGINE_GRID])
    def test_choice_on_grid(self, label, make, engine):
        a = make()
        assert _choose_engine(a, a) == engine
        assert _choose_engine(a, a.negate()) == engine

    @pytest.mark.parametrize("label,make,engine", ENGINE_GRID, ids=[g[0] for g in ENGINE_GRID])
    def test_auto_matches_both_engines(self, label, make, engine):
        a = make()
        auto = rep_profile(a).counts
        for name, run in (("naive", rep_profile_naive), ("fast", rep_profile_fast)):
            if SECONDS_LONG.get(label) != name:
                assert run(a).counts == auto

    def test_empty_and_tiny_sets(self):
        for orders in ([1], [5], [2, 3]):
            g = Group(tuple(orders))
            empty, full = GroupSubset.empty(g), GroupSubset.full(g)
            assert _choose_engine(empty, full) in ("naive", "fast")
            assert rep_profile(empty, full).counts == (0,) * g.order
            assert rep_profile(full).counts == rep_profile_naive(full).counts

    def test_sparse_set_in_large_group_enumerates_pairs(self):
        a = _sample([10**6 + 3], 2000)
        assert _choose_engine(a, a) == "naive"


def _counter_profile(orders, xs, ys):
    """R_{A,B} from a Counter over ordered pairs, coordinates decoded
    row-major by hand: no repfn code at all."""

    def decode(i):
        coords = []
        for mi in reversed(orders):
            i, c = divmod(i, mi)
            coords.append(c)
        return coords[::-1]

    def encode(coords):
        i = 0
        for c, mi in zip(coords, orders):
            i = i * mi + c
        return i

    hits = Counter(
        encode([(p + q) % mi for p, q, mi in zip(decode(x), decode(y), orders)])
        for x in xs
        for y in ys
    )
    n = 1
    for mi in orders:
        n *= mi
    return tuple(hits[g] for g in range(n))


class TestTwoGroups:
    """Pair enumeration on groups whose orders are all powers of two, where
    a sum is a lane-wise add of flat indices."""

    SHAPES = [(2,) * k for k in range(1, 7)] + [(4, 2, 8), (1, 2, 4), (2, 1, 2), (8,)]

    @pytest.mark.parametrize("orders", SHAPES, ids=lambda o: "x".join(map(str, o)))
    def test_matches_pair_counter(self, orders):
        g = Group(orders)
        rng = random.Random(sum(orders) * 31 + len(orders))
        n = g.order
        a = rng.sample(range(n), max(1, n // 3))
        b = rng.sample(range(n), max(1, n // 2))
        cases = [
            ([], b),
            ([rng.randrange(n)], b),
            (range(n), range(n)),
            (a, b),
            (a, [g.neg(x) for x in a]),
        ]
        for xs, ys in cases:
            want = _counter_profile(g.orders, xs, ys)
            sa, sb = GroupSubset.from_elements(g, xs), GroupSubset.from_elements(g, ys)
            assert rep_profile_naive(sa, sb).counts == want, (list(xs), list(ys))
        s = GroupSubset.from_elements(g, a)
        assert rep_profile_naive(s, s.negate()).counts == \
            _counter_profile(g.orders, a, [g.neg(x) for x in a])

    def test_half_of_z2_12_takes_hadamard_not_3_to_the_12_slots(self, monkeypatch):
        # Three transforms of 4096 entries cost far less than 2048^2 pairs,
        # and the fast engine never packs the 3^12 slots of 2*m_i - 1 radices.
        a = _sample([2] * 12, 2048)
        assert _choose_engine(a, a) == "fast"
        assert _choose_engine(a, a.negate()) == "fast"
        want = rep_profile_naive(a).counts
        monkeypatch.setattr(profiles, "_convolve_packed", None)
        assert rep_profile_fast(a).counts == want


@pytest.fixture(params=["decimal"])
def packed_product(request):
    """The packed route's one exact product, named in each test id."""
    return request.param


class TestExactTransforms:
    """The packed product and the Walsh-Hadamard route against pair
    enumeration and a repfn-free Counter over ordered pairs."""

    SHAPES = [
        (1,), (2,), (7,), (64,), (97,),
        (3, 4), (1, 5, 2), (6, 1, 4), (4, 5, 7), (9, 8),
        (1, 1), (2, 2, 2), (1, 2, 1, 2, 2), (2,) * 7,
    ]

    @pytest.mark.parametrize("orders", SHAPES, ids=lambda o: "x".join(map(str, o)))
    def test_fast_equals_naive_equals_counter(self, orders, packed_product):
        g = Group(orders)
        n = g.order
        rng = random.Random(n * 131 + len(orders))
        a = rng.sample(range(n), rng.randint(1, n))
        b = rng.sample(range(n), rng.randint(1, n))
        one = [rng.randrange(n)]
        for xs, ys in [([], b), (a, []), (one, b), (a, one), (one, one),
                       (range(n), range(n)), (range(n), a), (a, b), (a, a)]:
            sa, sb = GroupSubset.from_elements(g, xs), GroupSubset.from_elements(g, ys)
            want = _counter_profile(orders, list(xs), list(ys))
            assert rep_profile_fast(sa, sb).counts == want, (list(xs), list(ys))
            assert rep_profile_naive(sa, sb).counts == want, (list(xs), list(ys))

    def test_random_groups(self, packed_product):
        rng = random.Random(12)
        for trial in range(60):
            kind = trial % 3
            if kind == 0:  # cyclic
                orders = (rng.randint(1, 80),)
            elif kind == 1:  # mixed, order-1 factors allowed
                orders = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 3)))
            else:  # elementary 2-group, order-1 factors allowed
                orders = tuple(rng.choice((1, 2, 2)) for _ in range(rng.randint(1, 7)))
            g = Group(orders)
            xs = rng.sample(range(g.order), rng.randint(0, g.order))
            ys = rng.sample(range(g.order), rng.randint(0, g.order))
            sa, sb = GroupSubset.from_elements(g, xs), GroupSubset.from_elements(g, ys)
            want = _counter_profile(orders, xs, ys)
            assert rep_profile_fast(sa, sb).counts == want, (orders, xs, ys)
            assert rep_profile_naive(sa, sb).counts == want, (orders, xs, ys)

    def test_narrow_slots_raise_never_miscount(self, monkeypatch, packed_product):
        # One decimal digit fewer lets the middle slots of a full Z_300
        # carry; the mass check must catch every carry.
        digits = profiles._slot_digits
        monkeypatch.setattr(profiles, "_slot_digits", lambda a, b: digits(a, b) - 1)
        with pytest.raises(VerificationError):
            rep_profile_fast(GroupSubset.full(Group.cyclic(300)))
        rng = random.Random(5)
        for orders in [(300,), (40,), (12, 10), (4, 5, 7)]:
            g = Group(orders)
            for _ in range(5):
                a = _sample(orders, rng.randint(10, g.order), rng.randrange(1 << 30))
                b = _sample(orders, rng.randint(10, g.order), rng.randrange(1 << 30))
                try:
                    counts = rep_profile_fast(a, b).counts
                except VerificationError:
                    continue
                assert counts == rep_profile_naive(a, b).counts

    def test_empty_operand(self):
        # An empty operand packs to 0; every slot of its product is 0.
        g = Group((6, 7))
        a, empty = _sample((6, 7), 9), GroupSubset.empty(g)
        for x, y in ((empty, a), (a, empty), (empty, empty)):
            assert rep_profile_fast(x, y) == rep_profile_naive(x, y)
        slots = profiles._decimal_product(np.array([], np.int64), np.array([3, 40]), 11 * 13, 1)
        assert slots.dtype == np.int64 and slots.tolist() == [0] * (11 * 13)

    def test_operands_far_below_the_top_slot(self):
        # In Z_50 x Z_60 (radices 99 x 119, 11781 slots) a set whose first
        # coordinates are 0 and 1 occupies only slots below 238, so the
        # product's text is far shorter than the slots it is read into.
        g = Group((50, 60))
        low = GroupSubset.from_elements(g, [x * 60 + y for x in range(2) for y in (0, 1, 7, 30)])
        one = GroupSubset.from_elements(g, [5])
        for x, y in ((low, low), (low, one), (one, low), (low, low.negate())):
            assert rep_profile_fast(x, y) == rep_profile_naive(x, y)
        pos_a, pos_b = np.array([0, 2, 5, 9]), np.array([1, 3, 4])
        want = np.convolve(np.bincount(pos_a), np.bincount(pos_b))
        for digits in (1, 3):
            slots = profiles._decimal_product(pos_a, pos_b, 1000, digits)
            assert slots[: want.size].tolist() == want.tolist()
            assert not slots[want.size :].any()

    def test_hadamard_is_exact_modulo_the_word(self):
        # The butterflies are ring operations, so in uint8 every entry is the
        # true transform mod 256 although the true values leave [0, 256).
        rng = random.Random(3)
        xs = [rng.randrange(256) for _ in range(32)]
        want = list(xs)
        half = 1
        while half < len(want):
            for lo in range(0, len(want), 2 * half):
                for i in range(lo, lo + half):
                    x, y = want[i], want[i + half]
                    want[i], want[i + half] = x + y, x - y
            half *= 2
        assert max(map(abs, want)) > 256 and min(want) < 0
        got = profiles._hadamard(np.array(xs, dtype=np.uint8))
        assert got.tolist() == [w % 256 for w in want]

    def test_hadamard_refuses_past_z2_31(self):
        # Refused before any 2^32-entry vector is allocated.
        with pytest.raises(UnsupportedGroupError):
            rep_profile_fast(GroupSubset.empty(Group((2,) * 32)))


class TestOrderOneFactors:
    """numpy arrays have at most 64 dimensions; an order-1 factor takes none,
    so a group with more factors than that still profiles when the rest fit."""

    CASES = (((1,) * 70 + (5,), (5,)), ((1,) * 40 + (3,) + (1,) * 30 + (4,), (3, 4)))

    def test_same_counts_as_the_group_without_them(self):
        for orders, bare in self.CASES:
            order = Group(bare).order
            for elems in ([], [0, 1], [0, 2, 3], list(range(order))):
                a, b = subset(orders, elems), subset(bare, elems)
                for engine in (rep_profile_naive, rep_profile_fast):
                    assert engine(a).counts == engine(b).counts, (bare, elems, engine)
                assert (
                    rep_diff_profile(a, cross_check=True).counts == rep_diff_profile(b).counts
                ), (bare, elems)
                assert _choose_engine(a, a) == _choose_engine(b, b), (bare, elems)


class TestDiffProfile:
    def test_singer_difference_table(self):
        a = subset([7], [1, 2, 4])
        prof = rep_diff_profile(a)
        assert prof.counts[0] == 3
        assert all(c == 1 for c in prof.counts[1:])

    def test_empty_and_singleton(self):
        assert rep_diff_profile(subset([6], [])).counts == (0,) * 6
        assert rep_diff_profile(subset([6], [4])).counts == (1, 0, 0, 0, 0, 0)

    def test_mass_split(self):
        rng = random.Random(3)
        g = Group.cyclic(40)
        a = GroupSubset.from_elements(g, rng.sample(range(40), 13))
        prof = rep_diff_profile(a)
        assert prof.counts[0] == 13
        assert sum(prof.counts[1:]) == 13 * 13 - 13


class TestIdentities:
    def test_mass_identity(self):
        rng = random.Random(9)
        for _ in range(30):
            g = Group.cyclic(rng.randint(1, 60))
            a = GroupSubset.from_elements(g, rng.sample(range(g.order), rng.randint(0, g.order)))
            b = GroupSubset.from_elements(g, rng.sample(range(g.order), rng.randint(0, g.order)))
            assert rep_profile(a, b).mass() == a.card * b.card

    def test_sum_square_matches_difference_square(self):
        rng = random.Random(10)
        for _ in range(30):
            g = Group.cyclic(rng.randint(1, 48))
            a = GroupSubset.from_elements(g, rng.sample(range(g.order), rng.randint(0, g.order)))
            sums = rep_profile(a)
            diffs = rep_diff_profile(a)
            assert sum(c * c for c in sums.counts) == sum(c * c for c in diffs.counts)

    def test_parity_inclusion(self):
        # g with odd count always lies in the doubling image {2a}; in odd
        # order groups the two sets coincide exactly
        rng = random.Random(11)
        for _ in range(40):
            g = Group.cyclic(rng.randint(1, 40))
            a = GroupSubset.from_elements(g, rng.sample(range(g.order), rng.randint(0, g.order)))
            odd = {i for i, c in enumerate(rep_profile(a).counts) if c % 2}
            doubles = {g.add(x, x) for x in a.elements()}
            assert odd <= doubles
            assert len(odd) <= a.card
            if g.order % 2 == 1:
                assert odd == doubles

    def test_parity_equality_fails_in_even_order(self):
        a = subset([4], [0, 2])
        odd = {i for i, c in enumerate(rep_profile(a).counts) if c % 2}
        assert odd == set()
        assert {0} == {a.group.add(x, x) for x in a.elements()}

    def test_spectrum_translation_invariance(self):
        rng = random.Random(12)
        g = Group.cyclic(30)
        a = GroupSubset.from_elements(g, rng.sample(range(30), 9))
        base = spectrum(a).histogram
        for t in (1, 7, 29):
            assert spectrum(a.translate(t)).histogram == base


class TestSpectrum:
    def test_worked_example(self):
        spec = spectrum(subset([7], [1, 2, 4]))
        assert spec.histogram == {0: 1, 1: 3, 2: 3}
        assert spec.max_rep == 2
        assert spec[2] == 3
        assert spec[5] == 0
        assert spec.support() == [0, 1, 2]

    def test_histogram_keys_ascending(self):
        prof = rep_profile(singer_set(5).subset)
        assert list(prof.spectrum().histogram) == sorted(set(prof.counts))

    def test_empty_set(self):
        spec = spectrum(subset([9], []))
        assert spec.histogram == {0: 9}
        assert spec.max_rep == 0

    def test_histogram_sums_to_order(self):
        rng = random.Random(13)
        g = Group((3, 7))
        a = GroupSubset.from_elements(g, rng.sample(range(21), 6))
        spec = spectrum(a)
        assert sum(spec.histogram.values()) == 21
        assert sum(i * n for i, n in spec.histogram.items()) == 36


class TestSparseSpectrum:
    """sparse_spectrum is the profile's spectrum, ascending keys on both
    routes, built from the pair sums alone."""

    def test_matches_the_profile_spectrum(self):
        rng = random.Random(29)
        for _ in range(300):
            if rng.random() < 0.5:
                orders = (rng.randint(1, 400),)
            else:
                orders = tuple(rng.choice((1, 2, 2, 3, 4, 5, 7, 8, 16))
                               for _ in range(rng.randint(1, 4)))
            group = Group(orders)
            size = rng.randint(0, isqrt(group.order - 1))
            a = GroupSubset.from_elements(group, rng.sample(range(group.order), size))
            got, want = sparse_spectrum(a), rep_profile(a).spectrum()
            assert list(got.histogram.items()) == list(want.histogram.items()), (orders, size)
            assert got.max_rep == want.max_rep

    def test_dense_sets_too(self):
        # Where every element is a sum, S_0 = 0 is left out, as in the profile.
        for orders, elems in (((7,), [0, 1, 3]), ((5,), range(5)), ((2, 4), [0, 1, 2, 5, 7])):
            a = subset(orders, list(elems))
            assert list(sparse_spectrum(a).histogram.items()) == list(
                rep_profile(a).spectrum().histogram.items())

    def test_peak_memory_at_z2_20(self):
        a = subset([2] * 20, [0, 5, 77, 1000, 2**19 + 3])
        tracemalloc.start()
        try:
            spec = sparse_spectrum(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a + a = 0 for every a, and the 10 other sums are distinct.
        assert spec.histogram == {0: 2**20 - 11, 5: 1, 2: 10}
        # The profile's count array would be 8 MiB.
        assert peak < 64 * 1024, peak


class TestLibrarySpectrum:
    """spectrum(a) takes the pair-sum route when |A|^2 is below the order,
    as the spectrum command does."""

    def test_sparse_sets_match_the_profile_spectrum(self, monkeypatch):
        rng = random.Random(31)
        cases = []
        for _ in range(200):
            if rng.random() < 0.5:
                orders = (rng.randint(2, 3000),)
            else:
                orders = tuple(rng.choice((2, 2, 3, 4, 5, 7, 8, 16))
                               for _ in range(rng.randint(1, 5)))
            group = Group(orders)
            size = rng.randint(0, isqrt(group.order - 1))
            a = GroupSubset.from_elements(group, rng.sample(range(group.order), size))
            cases.append((a, rep_profile(a).spectrum()))
        # No profile is built on the way.
        monkeypatch.setattr(profiles, "rep_profile", None)
        for a, want in cases:
            got = spectrum(a)
            assert list(got.histogram.items()) == list(want.histogram.items()), a.group.orders
            assert got.max_rep == want.max_rep

    def test_one_element_of_z2_28(self):
        # The profile route's count array alone would be 2 GiB.
        a = subset([2] * 28, [0])
        assert a.card == 1
        tracemalloc.start()
        try:
            spec = spectrum(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(spec.histogram.items()) == [(0, 2**28 - 1), (1, 1)]
        assert spec.max_rep == 1
        assert peak < 1 << 20, peak


class TestArrayPath:
    """The histogram, max_rep, mass and level sets come from the profile's
    int64 array; walks of the counts tuple are the reference."""

    @staticmethod
    def profiles():
        rng = random.Random(26)
        # Hand-built counts whose non-zero values first show as 3, 1, 7, so
        # ascending keys differ from first-seen order.
        late = [0] * 5000
        late[130], late[1000], late[4999] = 3, 1, 7
        yield "hand-built", RepProfile(Group.cyclic(5000), tuple(late))
        yield "hand-built small", RepProfile(Group((2, 3)), (2, 0, 5, 0, 2, 1))
        for orders, engine in (
            ((64,), rep_profile_naive),  # the lane-wise add
            ((4, 8, 2), rep_profile_naive),
            ((3, 7), rep_profile_naive),  # ravel with mode="wrap"
            ((300,), rep_profile_naive),
            ((3, 5, 4), rep_profile_fast),  # the packed product
            ((257,), rep_profile_fast),
            ((2,) * 7, rep_profile_fast),  # the Hadamard route
        ):
            g = Group(orders)
            a = GroupSubset.from_elements(g, rng.sample(range(g.order), g.order // 3))
            yield f"{engine.__name__} {orders}", engine(a)
            yield f"{engine.__name__} {orders} empty", engine(GroupSubset.empty(g))
            yield f"{engine.__name__} {orders} full", engine(GroupSubset.full(g))

    def test_spectrum_max_mass_and_level_sets_match_the_tuple(self):
        for label, prof in self.profiles():
            want = Counter(prof.counts)
            spec = prof.spectrum()
            assert spec.histogram == want, label
            assert list(spec.histogram) == sorted(want), label
            assert spec.max_rep == prof.max_rep == max(prof.counts), label
            assert prof.mass() == sum(prof.counts), label
            for i in (0, 1, prof.max_rep, prof.max_rep + 1):
                assert prof.level_set(i) == [g for g, c in enumerate(prof.counts) if c == i], label

    def test_array_equals_counts_and_is_read_only(self):
        for label, prof in self.profiles():
            arr = prof.array
            assert arr.dtype == np.int64, label
            assert arr.tolist() == list(prof.counts), label
            assert not arr.flags.writeable, label
            with pytest.raises(ValueError):
                arr[0] = 1
            assert RepProfile(prof.group, prof.counts) == prof, label
            assert hash(RepProfile(prof.group, prof.counts)) == hash(prof), label


class TestRepProfileType:
    def test_length_validated(self):
        with pytest.raises(ValueError):
            RepProfile(Group.cyclic(3), (0, 0))

    def test_getitem_checks_range(self):
        prof = rep_profile(subset([4], [0, 1]))
        assert prof[1] == 2
        with pytest.raises(Exception):
            prof[4]

    def test_getitem_rejects_non_integers(self):
        prof = rep_profile(subset([7], [0, 1, 3]))
        with pytest.raises(InvalidElementError):
            prof[2.7]
        assert prof[2.0] == prof[2] == prof.counts[2]


class TestOneStore:
    """The int64 array is a profile's one store; the tuple is made only when
    counts is read."""

    def test_non_integer_counts_are_refused(self):
        g = Group.cyclic(3)
        for bad in (
            (1.5, 0, 2),  # used to be truncated to (1, 0, 2)
            (1.0, 0.0, 2.0),
            np.array([1.5, 0, 2]),
            (True, False, True),
            np.array([True, False, True]),
            np.array([1, 0, 2], dtype=object),
            ("1", "0", "2"),
            np.zeros((1, 3), dtype=np.int64),
            ((1, 0, 2),),
            np.int64(3),
        ):
            with pytest.raises(TypeError):
                RepProfile(g, bad)

    def test_uint64_past_int64_is_refused_not_wrapped(self):
        g = Group.cyclic(3)
        for big in (2**63, 2**64 - 1):
            with pytest.raises(OverflowError):
                RepProfile(g, np.array([0, big, 1], dtype=np.uint64))
            # numpy reads such a sequence as uint64 or as float64.
            with pytest.raises((OverflowError, TypeError)):
                RepProfile(g, (0, big, 1))
        prof = RepProfile(g, np.array([0, 2**63 - 1, 1], dtype=np.uint64))
        assert prof.counts == (0, 2**63 - 1, 1)
        assert prof.array.dtype == np.int64

    def test_negative_counts_are_refused(self):
        g = Group.cyclic(3)
        for bad in ((-1, 0, 2), np.array([0, -(2**63), 1]), np.array([3, 0, -1], dtype=np.int8)):
            with pytest.raises(ValueError, match="non-negative"):
                RepProfile(g, bad)

    def test_mass_is_exact_past_int64(self):
        g = Group.cyclic(3)
        for counts in ((2**62,) * 3, (2**63 - 1, 2**63 - 1, 1), (2**62, 2**62, 0)):
            assert RepProfile(g, counts).mass() == sum(counts), counts
        assert RepProfile(g, (2**61, 2**61, 2**61 - 1)).mass() == 3 * 2**61 - 1

    def test_int64_array_is_kept_not_copied(self):
        arr = np.array([2, 0, 5, 0, 2, 1], dtype=np.int64)
        prof = RepProfile(Group((2, 3)), arr)
        assert prof.array is arr
        assert not arr.flags.writeable

    def test_counts_tuple_is_made_on_first_use(self):
        prof = rep_profile(subset([7], [0, 1, 3]))
        assert "counts" not in vars(prof)
        assert prof.counts == (1, 2, 1, 2, 2, 0, 1) and type(prof.counts[0]) is int
        assert "counts" in vars(prof)
        assert prof.counts is prof.counts

    def test_readers_leave_the_tuple_unmade(self, monkeypatch):
        from repfn import search, singer

        rng = random.Random(27)
        made = []

        def recording(engine):
            def run(*args, **kwargs):
                made.append(engine(*args, **kwargs))
                return made[-1]

            return run

        for orders in ((64,), (3, 7), (3, 5, 4), (2,) * 6):
            g = Group(orders)
            a = GroupSubset.from_elements(g, rng.sample(range(g.order), g.order // 3))
            prof = rep_profile(a)
            prof.spectrum()
            prof.max_rep
            prof.mass()
            prof.level_set(1)
            prof[g.order - 1]
            assert "counts" not in vars(prof), orders
            with monkeypatch.context() as m:
                m.setattr(profiles, "rep_profile_naive", recording(rep_profile_naive))
                m.setattr(profiles, "rep_profile_fast", recording(rep_profile_fast))
                made.append(rep_profile(a, cross_check=True))
                made.append(rep_diff_profile(a, cross_check=True))
        with monkeypatch.context() as m:
            m.setattr(search, "rep_profile_naive", recording(rep_profile_naive))
            assert search.make_certificate(7, [0, 1, 2, 4], 4).verified
        with monkeypatch.context() as m:
            m.setattr(singer, "rep_diff_profile", recording(rep_diff_profile))
            assert singer._build_singer_set.__wrapped__(13).subset.card == 14
        assert len(made) == 4 * 6 + 2
        for prof in made:
            assert "counts" not in vars(prof)

    def test_equality_and_hash_follow_group_and_counts(self):
        g = Group((6,))
        engine = rep_profile_naive(GroupSubset.from_elements(Group((6,)), [0, 2, 3]))
        values = list(engine.counts)
        same = [
            engine,
            RepProfile(g, tuple(values)),
            RepProfile(g, values),
            RepProfile(g, np.array(values, dtype=np.int32)),
            RepProfile(g, np.array(values, dtype=np.uint8)),
            RepProfile(g, np.array(values, dtype=np.uint64)),
            RepProfile(g, np.repeat(np.array(values, dtype=np.int64), 2)[::2]),
        ]
        for prof in same:
            assert prof == engine and engine == prof
            assert hash(prof) == hash(engine)
        assert len(set(same)) == 1
        other_group = RepProfile(Group((2, 3)), tuple(values))
        assert other_group != engine and engine != other_group
        assert RepProfile(g, (values[0] + 1, *values[1:])) != engine
        assert (engine == engine.counts) is False
        assert (engine == engine.array) is False
        assert engine != list(engine.counts)


def test_verification_error_is_runtime_error():
    assert issubclass(VerificationError, RuntimeError)
