"""Exact machine checks of cardinality, quadratic-moment and spectrum bounds.

Every inequality is decided in integer arithmetic; square roots never touch
floating point.  A claim like |S_0| >= m/4 - sqrt(5m) is settled by comparing
squared forms, and the rhs shown in the report is an outward-rounded rational
enclosure, so a reported "holds" can never be an artifact of rounding.  Checks
whose hypothesis (a cap on the maximum representation count) is not met are
marked not-applicable rather than failed.

Every claim is one row of the table _CLAIMS: its direction, its hypothesis
cap, lhs and rhs, and the exact decision where rhs is only an enclosure.
EQ22 and EQ41 are the k = 3 and k = 2 rows of the quadratic lemma.  One
evaluator turns a set and a list of (claim, parameter) pairs into reports,
taking every |S_i| and every moment sum (R(g) - k)^2 from one spectrum
histogram of A + A; the moments share its one sum of squares.  The list is
first turned into a plan, its rows unpacked and its notes formatted, once
for every set a suite checks.

A report is a BoundReport named tuple, so it is immutable and compares as
the tuple of its fields.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import isqrt
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .constructions import half_period_doubling, shifted_doubling, sidon_set
from .groups import Group, GroupSubset, _group_zeros
from .profiles import RepProfile, RepSpectrum, rep_profile


def ceil_sqrt(n: int) -> int:
    """Least integer r with r*r >= n."""
    if n < 0:
        raise ValueError("ceil_sqrt of a negative number")
    r = isqrt(n)
    return r if r * r == n else r + 1


class CheckStatus(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    NOT_APPLICABLE = "not-applicable"


class ClaimId(str, Enum):
    """Stable identifiers for the checkable claims; the string values are the
    wire format used in JSON reports."""

    CARDINALITY = "LEMMA_CARD"
    QUADRATIC = "LEMMA_QUADRATIC"
    S0_LOWER = "T11A"
    S2_UPPER = "T12A"
    S4_UPPER = "T13A"
    SQ3_UPPER = "EQ21"
    SQ3_LOWER = "EQ22"
    SQ2_LOWER = "EQ41"
    SQ2_UPPER = "EQ42"
    S4_CHAIN = "S4_CHAIN"


class BoundReport(NamedTuple):
    """Outcome of one inequality check.

    slack is lhs - rhs for lower bounds and rhs - lhs for upper bounds,
    measured against the reported (enclosed) rhs; when the exact decision is
    HOLDS the slack is guaranteed nonnegative.  For not-applicable checks
    slack is None.

    A named tuple: its fields cannot be reassigned, and equality is tuple
    equality, so a report equals the plain tuple of its field values.  Every
    report the evaluator makes carries its own extra dict; the default, for
    a report built by hand, is one shared read-only empty mapping.
    """

    claim_id: ClaimId
    lhs: int | Fraction
    rhs: int | Fraction
    status: CheckStatus
    slack: int | Fraction | None
    note: str = ""
    extra: Mapping = MappingProxyType({})

    @property
    def holds(self) -> bool:
        return self.status is CheckStatus.HOLDS

    @property
    def applicable(self) -> bool:
        return self.status is not CheckStatus.NOT_APPLICABLE


def _moment(m: int, card: int, s: RepSpectrum, k: int) -> int:
    """Sum of (R(g) - k)^2 over the group: sum R^2 - 2k sum R + k^2 m, with
    sum R = |A|^2, so one sum of squares per spectrum serves every k."""
    return s.square_sum - 2 * k * card * card + k * k * m


def _quadratic_rhs(m: int, card: int, s: RepSpectrum, k: int) -> int:
    return k * m - (2 * k - 1) * card + k * k - k


def _at_most_sqrt(x: int, n: int) -> bool:
    """x <= sqrt(n), decided in integers."""
    return x <= 0 or x * x <= n


class _Claim(NamedTuple):
    """One row of the claim table: lhs >= rhs when lower, else lhs <= rhs,
    under max R <= cap (None: unconditional; "c": the parameter c).

    lhs, rhs and decide take (m, |A|, spectrum, parameter).  decide, where
    set, is the exact decision and rhs only an outward rational enclosure;
    a rational rhs is one Fraction built from integers.  note is formatted
    once per plan, with the parameter as passed as p, so a row whose cap is
    "c" (its parameter filled in per set when omitted) must not name p in
    it; extra takes (m, parameter, max R)."""

    lower: bool
    cap: int | str | None
    lhs: Callable[..., int]
    rhs: Callable[..., int | Fraction]
    decide: Callable[..., bool] | None
    note: str
    extra: Callable[[int, int | None, int], dict] = lambda m, p, mr: {"max_rep": mr}


# EQ22 and EQ41 are the k = 3 and k = 2 rows of the quadratic lemma, under
# their own ids and notes; the suites pass k as their parameter.
_CLAIMS = {
    ClaimId.QUADRATIC: _Claim(
        True, None, _moment, _quadratic_rhs, None,
        "quadratic moment about k={p}; all-integer comparison",
        lambda m, k, mr: {"k": k},
    ),
    ClaimId.CARDINALITY: _Claim(
        False, "c", lambda m, n, s, c: n, lambda m, n, s, c: isqrt(c * m),
        lambda m, n, s, c: n * n <= c * m,
        "decided as |A|^2 <= c*m in integers; rhs is floor(sqrt(c*m))",
        lambda m, c, mr: {"c": c, "max_rep": mr},
    ),
    ClaimId.S0_LOWER: _Claim(
        True, 5, lambda m, n, s, p: s[0],
        lambda m, n, s, p: Fraction(m - 4 * ceil_sqrt(5 * m), 4),
        lambda m, n, s, p: _at_most_sqrt(m - 4 * s[0], 80 * m),
        "decided by squared forms; rhs is a rational lower enclosure of m/4 - sqrt(5m)",
        # Earlier known floor (7/32)m - sqrt(10m)/2 - 1, shown for comparison
        # only; the check asserts nothing about it.
        lambda m, p, mr: {
            "max_rep": mr,
            "comparison_floor": Fraction(7 * m - 16 * ceil_sqrt(10 * m) - 32, 32),
        },
    ),
    ClaimId.S2_UPPER: _Claim(
        False, 5, lambda m, n, s, p: s[2],
        lambda m, n, s, p: Fraction(m + 6 * ceil_sqrt(5 * m), 2),
        lambda m, n, s, p: _at_most_sqrt(2 * s[2] - m, 180 * m),
        "decided by squared forms; rhs is a rational upper enclosure of m/2 + 3*sqrt(5m)",
    ),
    ClaimId.S4_UPPER: _Claim(
        False, 7, lambda m, n, s, p: s[4],
        lambda m, n, s, p: Fraction(3 * m + 4 * ceil_sqrt(7 * m) + 3, 4),
        lambda m, n, s, p: _at_most_sqrt(4 * s[4] - 3 * m - 3, 112 * m),
        "decided by squared forms; rhs is a rational upper enclosure of "
        "3m/4 + sqrt(7m) + 3/4",
    ),
    ClaimId.SQ3_UPPER: _Claim(
        False, 5, lambda m, n, s, p: _moment(m, n, s, 3), lambda m, n, s, p: 8 * s[0] + 3 * n + m,
        None, "upper chain for the k=3 moment; uses the parity cap on odd classes",
    ),
    ClaimId.SQ3_LOWER: _Claim(
        True, None, _moment, _quadratic_rhs, None,
        "k=3 instance of the quadratic moment bound; unconditional",
    ),
    ClaimId.SQ2_LOWER: _Claim(
        True, None, _moment, _quadratic_rhs, None,
        "k=2 instance of the quadratic moment bound; unconditional",
    ),
    ClaimId.SQ2_UPPER: _Claim(
        False, 5, lambda m, n, s, p: _moment(m, n, s, 2), lambda m, n, s, p: 4 * (s[0] + s[4]) + 9 * n,
        None, "upper chain for the k=2 moment; uses the parity cap on odd classes",
    ),
    ClaimId.S4_CHAIN: _Claim(
        False, 7, lambda m, n, s, p: s[4], lambda m, n, s, p: 4 * n + 3 * s[0] + 3,
        None, "|S_4| against 4|A| + 3|S_0| + 3 under max R <= 7",
    ),
}

_THEOREMS = [(ClaimId.S0_LOWER, None), (ClaimId.S2_UPPER, None), (ClaimId.S4_UPPER, None)]
_CHAINS = [
    (ClaimId.SQ3_UPPER, None), (ClaimId.SQ3_LOWER, 3), (ClaimId.SQ2_LOWER, 2),
    (ClaimId.SQ2_UPPER, None), (ClaimId.QUADRATIC, 4), (ClaimId.S4_CHAIN, None),
]
_LEMMAS = [(ClaimId.QUADRATIC, k) for k in range(1, 8)] + [(ClaimId.CARDINALITY, None)]
_SUITES = {
    "lemmas": _LEMMAS,
    "theorems": _THEOREMS,
    "chains": _CHAINS,
    "all": _LEMMAS + _THEOREMS + _CHAINS,
}
SUITE_NAMES = tuple(_SUITES)


def _plan(claims: list[tuple[ClaimId, int | None]]) -> list[tuple]:
    """For each (claim, parameter) in order, the tuple (claim, parameter,
    *row) with the row's note formatted, for _evaluate."""
    plan = []
    for claim_id, p in claims:
        lower, cap, lhs, rhs, decide, note, extra = _CLAIMS[claim_id]
        plan.append((claim_id, p, lower, cap, lhs, rhs, decide, note.format(p=p), extra))
    return plan


def _evaluate(
    a: GroupSubset, plan: list[tuple], profile: RepProfile | None = None
) -> list[BoundReport]:
    """One report per entry of the plan, all from one spectrum of A + A."""
    spec = (rep_profile(a) if profile is None else profile).spectrum()
    m, card, max_rep = a.group.order, a.card, spec.max_rep
    reports = []
    for claim_id, p, lower, cap, lhs_of, rhs_of, decide, note, extra in plan:
        if cap == "c":
            # With c omitted, the actual maximum count is the cap, which
            # always satisfies the hypothesis.
            cap = p = max(1, max_rep) if p is None else p
        lhs, rhs = lhs_of(m, card, spec, p), rhs_of(m, card, spec, p)
        if cap is not None and max_rep > cap:
            status, slack = CheckStatus.NOT_APPLICABLE, None
            note = f"hypothesis max R <= {cap} not met (max R = {max_rep})"
        else:
            if decide is not None:
                holds = decide(m, card, spec, p)
            else:
                holds = lhs >= rhs if lower else lhs <= rhs
            status = CheckStatus.HOLDS if holds else CheckStatus.FAILS
            if type(rhs) is Fraction:
                # lhs is an int: one Fraction, no Fraction arithmetic.
                n, d = rhs.numerator, rhs.denominator
                slack = Fraction(lhs * d - n, d) if lower else Fraction(n - lhs * d, d)
            else:
                slack = lhs - rhs if lower else rhs - lhs
        reports.append(BoundReport(claim_id, lhs, rhs, status, slack, note, extra(m, p, max_rep)))
    return reports


def check_quadratic_lemma(
    a: GroupSubset, k: int, profile: RepProfile | None = None
) -> BoundReport:
    """Sum of (R(g) - k)^2 over the group is at least km - (2k-1)|A| + k^2 - k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return _evaluate(a, _plan([(ClaimId.QUADRATIC, k)]), profile)[0]


def check_cardinality_bound(
    a: GroupSubset, c: int | None = None, profile: RepProfile | None = None
) -> BoundReport:
    """If every R(g) <= c then |A| <= sqrt(c*m); decided as |A|^2 <= c*m.

    With c omitted, the actual maximum representation count is used, which
    always satisfies the hypothesis.
    """
    if c is not None and c < 1:
        raise ValueError("cap c must be a positive integer")
    return _evaluate(a, _plan([(ClaimId.CARDINALITY, c)]), profile)[0]


def check_theorem_bounds(
    a: GroupSubset, profile: RepProfile | None = None
) -> list[BoundReport]:
    """|S_0| >= m/4 - sqrt(5m) and |S_2| <= m/2 + 3*sqrt(5m) under max R <= 5,
    and |S_4| <= 3m/4 + sqrt(7m) + 3/4 under max R <= 7, in that order."""
    return _evaluate(a, _plan(_THEOREMS), profile)


def check_chain_bounds(
    a: GroupSubset, profile: RepProfile | None = None
) -> list[BoundReport]:
    """The proof-internal inequality chains around the quadratic moments.

    The two lower chains are the k=3 and k=2 quadratic-moment instances and
    hold unconditionally; the upper chains and the |S_4| chain also use the
    parity bound on odd-count classes, so they carry a max-count hypothesis.
    """
    return _evaluate(a, _plan(_CHAINS), profile)


# -- randomized property harness -------------------------------------------


# Draws per getrandbits call in random_subset: CPython caps its bit count at 2^31 - 1.
_DRAW_BLOCK = 1 << 20


def random_subset(seed: int, group: Group, density: Fraction | float) -> GroupSubset:
    """Independent Bernoulli(density) inclusion per element index.

    Driven by random.Random(seed) (Mersenne Twister): index g is included iff
    the g-th draw of getrandbits(64) falls below floor(density * 2^64).  The
    same seed on the same build reproduces the same set exactly.  The draws
    are taken in blocks, one getrandbits(64 * block) each, whose little-endian
    64-bit words are those draws in turn: whole words continue one stream.
    """
    frac = Fraction(density)
    if not 0 < frac < 1:
        raise ValueError("density must lie strictly inside (0, 1)")
    threshold = np.uint64((frac.numerator << 64) // frac.denominator)
    getrandbits, n = random.Random(seed).getrandbits, group.order
    hit = _group_zeros(group, bool)
    for lo in range(0, n, _DRAW_BLOCK):
        k = min(_DRAW_BLOCK, n - lo)
        draws = np.frombuffer(getrandbits(64 * k).to_bytes(8 * k, "little"), "<u8")
        hit[lo : lo + k] = draws < threshold
    return GroupSubset(group, hit)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n, k >= 1, set one bit at a time from the top."""
    x = 0
    for b in range(n.bit_length() // k, -1, -1):
        if (x | 1 << b) ** k <= n:
            x |= 1 << b
    return x


def random_group(rng: random.Random, max_order: int) -> Group:
    """A random group of order in [2, max_order]; mostly cyclic, sometimes a
    product of k = two or three factors (order-1 factors allowed inside
    products), each of order at most floor(max_order^(1/k))."""
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    k = rng.choice((1, 1, 1, 2, 2, 3))
    while 2**k > max_order:
        k -= 1
    bound = _iroot(max_order, k)
    orders = [rng.randint(1, bound) for _ in range(k)]
    group = Group(tuple(orders))
    if group.order < 2:
        orders[rng.randrange(k)] = rng.randint(2, bound)
        group = Group(tuple(orders))
    return group


@dataclass(frozen=True)
class SuiteCase:
    """One checked set with the full list of bound reports for it."""

    label: str
    orders: tuple[int, ...]
    card: int
    reports: tuple[BoundReport, ...]


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    trials: int
    seed: int
    cases: tuple[SuiteCase, ...]

    @cached_property
    def _tally(self) -> dict[CheckStatus, int]:
        """Reports per status, from one pass over every case."""
        tally = dict.fromkeys(CheckStatus, 0)
        for case in self.cases:
            for r in case.reports:
                tally[r.status] += 1
        return tally

    @property
    def held(self) -> int:
        return self._tally[CheckStatus.HOLDS]

    @property
    def failed(self) -> int:
        return self._tally[CheckStatus.FAILS]

    @property
    def not_applicable(self) -> int:
        return self._tally[CheckStatus.NOT_APPLICABLE]

    @property
    def failures(self) -> list[tuple[str, BoundReport]]:
        return [
            (case.label, r)
            for case in self.cases
            for r in case.reports
            if r.status is CheckStatus.FAILS
        ]

    @property
    def ok(self) -> bool:
        return not self.failed


def constructed_inventory() -> list[tuple[str, GroupSubset]]:
    """Deterministic nontrivial sets with small max counts, so the spectrum
    hypotheses genuinely bind during suite runs."""
    cases: list[tuple[str, GroupSubset]] = []
    for p in (2, 3, 5):
        cases.append((f"pair-sum-distinct-p{p}", sidon_set(p)))
        cases.append((f"doubled-shift0-p{p}", shifted_doubling(p, 0)))
        cases.append((f"half-period-p{p}", half_period_doubling(p)))
    return cases


def run_verification_suite(
    suite: str, trials: int, seed: int, max_order: int = 128
) -> SuiteResult:
    """Constructed inventory plus `trials` seeded random draws, each checked
    against every claim in the chosen suite.

    Per-trial seeds come from a master random.Random(seed) via getrandbits,
    so the whole run is reproducible from the single seed.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    plan = _plan(_SUITES[suite])

    def case(label: str, a: GroupSubset) -> SuiteCase:
        return SuiteCase(label, a.group.orders, a.card, tuple(_evaluate(a, plan)))

    master = random.Random(seed)
    cases = [case(label, a) for label, a in constructed_inventory()]
    for i in range(trials):
        rng = random.Random(master.getrandbits(63))
        group = random_group(rng, max_order)
        density = Fraction(rng.randint(1, 6), 12)
        bern = random_subset(rng.getrandbits(63), group, density)
        cases.append(case(f"random-{i}-bernoulli", bern))
        # A second draw sized near sqrt(2m), where the max-count hypotheses
        # of the spectrum bounds have a real chance of applying.
        target = min(group.order, ceil_sqrt(2 * group.order))
        sized = GroupSubset.from_elements(group, rng.sample(range(group.order), target))
        cases.append(case(f"random-{i}-sized", sized))
    return SuiteResult(suite, trials, seed, tuple(cases))
