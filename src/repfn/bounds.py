"""Exact machine checks of cardinality, quadratic-moment and spectrum bounds.

Every inequality is decided in integer arithmetic; square roots never touch
floating point.  A claim like |S_0| >= m/4 - sqrt(5m) is settled by comparing
squared forms, and the rhs shown in the report is an outward-rounded rational
enclosure, so a reported "holds" can never be an artifact of rounding.  Checks
whose hypothesis (a cap on the maximum representation count) is not met are
marked not-applicable rather than failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import isqrt

from .constructions import half_period_doubling, shifted_doubling, sidon_set
from .groups import Group, GroupSubset
from .profiles import RepProfile, rep_profile


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


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check.

    slack is lhs - rhs for lower bounds and rhs - lhs for upper bounds,
    measured against the reported (enclosed) rhs; when the exact decision is
    HOLDS the slack is guaranteed nonnegative.  For not-applicable checks
    slack is None.
    """

    claim_id: ClaimId
    lhs: int | Fraction
    rhs: int | Fraction
    status: CheckStatus
    slack: int | Fraction | None
    note: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status is CheckStatus.HOLDS

    @property
    def applicable(self) -> bool:
        return self.status is not CheckStatus.NOT_APPLICABLE


def _profile_of(a: GroupSubset, profile: RepProfile | None) -> RepProfile:
    return profile if profile is not None else rep_profile(a)


def _square_moment(profile: RepProfile, k: int) -> int:
    return sum((c - k) * (c - k) for c in profile.counts)


def check_quadratic_lemma(
    a: GroupSubset, k: int, profile: RepProfile | None = None
) -> BoundReport:
    """Sum of (R(g) - k)^2 over the group is at least km - (2k-1)|A| + k^2 - k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    profile = _profile_of(a, profile)
    m = a.group.order
    lhs = _square_moment(profile, k)
    rhs = k * m - (2 * k - 1) * a.card + k * k - k
    holds = lhs >= rhs
    return BoundReport(
        claim_id=ClaimId.QUADRATIC,
        lhs=lhs,
        rhs=rhs,
        status=CheckStatus.HOLDS if holds else CheckStatus.FAILS,
        slack=lhs - rhs,
        note=f"quadratic moment about k={k}; all-integer comparison",
        extra={"k": k},
    )


def check_cardinality_bound(
    a: GroupSubset, c: int | None = None, profile: RepProfile | None = None
) -> BoundReport:
    """If every R(g) <= c then |A| <= sqrt(c*m); decided as |A|^2 <= c*m.

    With c omitted, the actual maximum representation count is used, which
    always satisfies the hypothesis.
    """
    profile = _profile_of(a, profile)
    m = a.group.order
    max_rep = profile.max_rep
    if c is None:
        c = max(1, max_rep)
    if c < 1:
        raise ValueError("cap c must be a positive integer")
    return _chain_report(
        ClaimId.CARDINALITY,
        a.card,
        isqrt(c * m),
        lower=False,
        applicable=max_rep <= c,
        cap=c,
        max_rep=max_rep,
        holds=a.card * a.card <= c * m,
        note="decided as |A|^2 <= c*m in integers; rhs is floor(sqrt(c*m))",
        extra={"c": c, "max_rep": max_rep},
    )


# Spectrum claims |S_i| >= or <= a bound with one sqrt term, under max R <=
# cap.  A row holds the level i, the cap, whether the bound is a lower one,
# k and the linear form x(m, |S_i|) such that the claim holds iff x <= 0 or
# x^2 <= k*m, the bound's text, and the rational enclosure of the bound that
# the report shows as rhs.
_SPECTRUM_CLAIMS = {
    ClaimId.S0_LOWER: (
        0, 5, True, 80, lambda m, s: m - 4 * s, "m/4 - sqrt(5m)",
        lambda m: Fraction(m, 4) - ceil_sqrt(5 * m),
    ),
    ClaimId.S2_UPPER: (
        2, 5, False, 180, lambda m, s: 2 * s - m, "m/2 + 3*sqrt(5m)",
        lambda m: Fraction(m, 2) + 3 * ceil_sqrt(5 * m),
    ),
    ClaimId.S4_UPPER: (
        4, 7, False, 112, lambda m, s: 4 * s - 3 * m - 3, "3m/4 + sqrt(7m) + 3/4",
        lambda m: Fraction(3 * m, 4) + ceil_sqrt(7 * m) + Fraction(3, 4),
    ),
}


def _spectrum_claim(
    claim_id: ClaimId, a: GroupSubset, profile: RepProfile | None, **extra: Fraction
) -> BoundReport:
    level, cap, lower, k, form, bound, enclosure = _SPECTRUM_CLAIMS[claim_id]
    profile = _profile_of(a, profile)
    m = a.group.order
    s = profile.counts.count(level)
    x = form(m, s)
    return _chain_report(
        claim_id,
        s,
        enclosure(m),
        lower=lower,
        applicable=profile.max_rep <= cap,
        cap=cap,
        max_rep=profile.max_rep,
        holds=x <= 0 or x * x <= k * m,
        note=f"decided by squared forms; rhs is a rational {'lower' if lower else 'upper'} "
        f"enclosure of {bound}",
        extra={"max_rep": profile.max_rep, **extra},
    )


def check_s0_lower(a: GroupSubset, profile: RepProfile | None = None) -> BoundReport:
    """|S_0| >= m/4 - sqrt(5m), under max representation count <= 5."""
    m = a.group.order
    # Earlier known floor (7/32)m - sqrt(10m)/2 - 1, shown for comparison
    # only; the check asserts nothing about it.
    comparison_floor = Fraction(7 * m, 32) - Fraction(ceil_sqrt(10 * m), 2) - 1
    return _spectrum_claim(ClaimId.S0_LOWER, a, profile, comparison_floor=comparison_floor)


def check_s2_upper(a: GroupSubset, profile: RepProfile | None = None) -> BoundReport:
    """|S_2| <= m/2 + 3*sqrt(5m), under max representation count <= 5."""
    return _spectrum_claim(ClaimId.S2_UPPER, a, profile)


def check_s4_upper(a: GroupSubset, profile: RepProfile | None = None) -> BoundReport:
    """|S_4| <= 3m/4 + sqrt(7m) + 3/4, under max representation count <= 7."""
    return _spectrum_claim(ClaimId.S4_UPPER, a, profile)


def check_theorem_bounds(
    a: GroupSubset, profile: RepProfile | None = None
) -> list[BoundReport]:
    """The three spectrum bounds, each with its own applicability hypothesis."""
    profile = _profile_of(a, profile)
    return [
        check_s0_lower(a, profile),
        check_s2_upper(a, profile),
        check_s4_upper(a, profile),
    ]


def _chain_report(
    claim_id: ClaimId,
    lhs: int,
    rhs: int | Fraction,
    *,
    lower: bool,
    applicable: bool,
    cap: int,
    max_rep: int,
    note: str,
    holds: bool | None = None,
    extra: dict | None = None,
) -> BoundReport:
    """One report; holds, when given, is the exact decision (a squared form
    where rhs is only an enclosure), otherwise lhs is compared with rhs."""
    if extra is None:
        extra = {"max_rep": max_rep}
    if not applicable:
        return BoundReport(
            claim_id=claim_id,
            lhs=lhs,
            rhs=rhs,
            status=CheckStatus.NOT_APPLICABLE,
            slack=None,
            note=f"hypothesis max R <= {cap} not met (max R = {max_rep})",
            extra=extra,
        )
    if holds is None:
        holds = lhs >= rhs if lower else lhs <= rhs
    return BoundReport(
        claim_id=claim_id,
        lhs=lhs,
        rhs=rhs,
        status=CheckStatus.HOLDS if holds else CheckStatus.FAILS,
        slack=lhs - rhs if lower else rhs - lhs,
        note=note,
        extra=extra,
    )


def check_chain_bounds(
    a: GroupSubset, profile: RepProfile | None = None
) -> list[BoundReport]:
    """The proof-internal inequality chains around the quadratic moments.

    The two lower chains are the k=3 and k=2 quadratic-moment instances and
    hold unconditionally; the upper chains and the |S_4| chain also use the
    parity bound on odd-count classes, so they carry a max-count hypothesis.
    """
    profile = _profile_of(a, profile)
    m = a.group.order
    card = a.card
    max_rep = profile.max_rep
    s0 = profile.counts.count(0)
    s4 = profile.counts.count(4)
    sq3 = _square_moment(profile, 3)
    sq2 = _square_moment(profile, 2)
    le5 = max_rep <= 5
    le7 = max_rep <= 7
    reports = [
        _chain_report(
            ClaimId.SQ3_UPPER,
            sq3,
            8 * s0 + 3 * card + m,
            lower=False,
            applicable=le5,
            cap=5,
            max_rep=max_rep,
            note="upper chain for the k=3 moment; uses the parity cap on odd classes",
        ),
        _chain_report(
            ClaimId.SQ3_LOWER,
            sq3,
            3 * m - 5 * card + 6,
            lower=True,
            applicable=True,
            cap=0,
            max_rep=max_rep,
            note="k=3 instance of the quadratic moment bound; unconditional",
        ),
        _chain_report(
            ClaimId.SQ2_LOWER,
            sq2,
            2 * m - 3 * card + 2,
            lower=True,
            applicable=True,
            cap=0,
            max_rep=max_rep,
            note="k=2 instance of the quadratic moment bound; unconditional",
        ),
        _chain_report(
            ClaimId.SQ2_UPPER,
            sq2,
            4 * (s0 + s4) + 9 * card,
            lower=False,
            applicable=le5,
            cap=5,
            max_rep=max_rep,
            note="upper chain for the k=2 moment; uses the parity cap on odd classes",
        ),
        check_quadratic_lemma(a, 4, profile),
        _chain_report(
            ClaimId.S4_CHAIN,
            s4,
            4 * card + 3 * s0 + 3,
            lower=False,
            applicable=le7,
            cap=7,
            max_rep=max_rep,
            note="|S_4| against 4|A| + 3|S_0| + 3 under max R <= 7",
        ),
    ]
    return reports


# -- randomized property harness -------------------------------------------


def random_subset(seed: int, group: Group, density: Fraction | float) -> GroupSubset:
    """Independent Bernoulli(density) inclusion per element index.

    Driven by random.Random(seed) (Mersenne Twister): index g is included iff
    the g-th draw of getrandbits(64) falls below floor(density * 2^64).  The
    same seed on the same build reproduces the same set exactly.
    """
    frac = Fraction(density)
    if not 0 < frac < 1:
        raise ValueError("density must lie strictly inside (0, 1)")
    threshold = (frac.numerator << 64) // frac.denominator
    rng = random.Random(seed)
    bits = 0
    for g in range(group.order):
        if rng.getrandbits(64) < threshold:
            bits |= 1 << g
    return GroupSubset(group, bits)


def random_group(rng: random.Random, max_order: int) -> Group:
    """A random group of order in [2, max_order]; mostly cyclic, sometimes a
    product of two or three factors (order-1 factors allowed inside products)."""
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    k = rng.choice((1, 1, 1, 2, 2, 3))
    while 2**k > max_order:
        k -= 1
    bound = 2
    while (bound + 1) ** k <= max_order:
        bound += 1
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

    def _count(self, status: CheckStatus) -> int:
        return sum(
            1 for case in self.cases for r in case.reports if r.status is status
        )

    @property
    def held(self) -> int:
        return self._count(CheckStatus.HOLDS)

    @property
    def failed(self) -> int:
        return self._count(CheckStatus.FAILS)

    @property
    def not_applicable(self) -> int:
        return self._count(CheckStatus.NOT_APPLICABLE)

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
        return not self.failures


SUITE_NAMES = ("lemmas", "theorems", "chains", "all")

_LEMMA_KS = (1, 2, 3, 4, 5, 6, 7)


def _reports_for(suite: str, a: GroupSubset) -> tuple[BoundReport, ...]:
    profile = rep_profile(a)
    reports: list[BoundReport] = []
    if suite in ("lemmas", "all"):
        reports.extend(check_quadratic_lemma(a, k, profile) for k in _LEMMA_KS)
        reports.append(check_cardinality_bound(a, None, profile))
    if suite in ("theorems", "all"):
        reports.extend(check_theorem_bounds(a, profile))
    if suite in ("chains", "all"):
        reports.extend(check_chain_bounds(a, profile))
    return tuple(reports)


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
    master = random.Random(seed)
    cases = [
        SuiteCase(label, a.group.orders, a.card, _reports_for(suite, a))
        for label, a in constructed_inventory()
    ]
    for i in range(trials):
        rng = random.Random(master.getrandbits(63))
        group = random_group(rng, max_order)
        density = Fraction(rng.randint(1, 6), 12)
        bern = random_subset(rng.getrandbits(63), group, density)
        cases.append(
            SuiteCase(f"random-{i}-bernoulli", group.orders, bern.card, _reports_for(suite, bern))
        )
        # A second draw sized near sqrt(2m), where the max-count hypotheses
        # of the spectrum bounds have a real chance of applying.
        target = min(group.order, ceil_sqrt(2 * group.order))
        sized = GroupSubset.from_elements(group, rng.sample(range(group.order), target))
        cases.append(
            SuiteCase(f"random-{i}-sized", group.orders, sized.card, _reports_for(suite, sized))
        )
    return SuiteResult(suite, trials, seed, tuple(cases))
