"""Extremal subsets of cyclic groups built from perfect difference sets.

Three families, each with an exact, machine-checked shape:

* shifted_doubling: double a perfect difference set into Z_{2n} and union an
  odd translate; every sum is represented at most 4 times, and a well-chosen
  shift leaves fewer than 3m/8 elements unrepresented.
* sidon_set: the difference set itself, whose pairwise sums collide only in
  the forced symmetric way, so exactly (m-1)/2 elements have two ordered
  representations.
* half_period_doubling: double the set and union its half-period translate;
  exactly m/2 - 1 elements reach four ordered representations.

shift_family_report scans every admissible shift and certifies the averaging
argument that a good shift exists.  The scan profiles the even part 2D once:
every shift's counts are that profile plus two rotations of it, added as one
slot-packed integer, and the winning shift is re-checked by pair enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import Group, GroupSubset, VerificationError
from .profiles import _Slots, rep_profile, rep_profile_naive
from .singer import PerfectDifferenceSet, singer_set


def shifted_doubling(p: int, l: int) -> GroupSubset:
    """A_l = 2D union (2D + 2l + 1) in Z_{2n}, D the difference set for p.

    Valid shifts are 0 <= l <= p^2 + p; each picks one odd translation class.
    The result always has 2(p + 1) elements and max representation count at
    most 4.
    """
    pds = singer_set(p)
    n = pds.n
    if not 0 <= l <= n - 1:
        raise ValueError(f"shift l must lie in [0, {n - 1}], got {l}")
    target = Group.cyclic(2 * n)
    result = _shift_union(pds, pds.subset.dilate_shift(2, 0, target), l)
    if rep_profile(result).max_rep > 4:
        raise VerificationError("sumset multiplicity exceeded 4")
    return result


def _shift_union(pds: PerfectDifferenceSet, even_part: GroupSubset, l: int) -> GroupSubset:
    """2D union (2D + 2l + 1), checked to have 2(p + 1) elements, i.e. the
    even and odd translates to be disjoint."""
    result = even_part | pds.subset.dilate_shift(2, 2 * l + 1, even_part.group)
    if result.card != 2 * (pds.p + 1):
        raise VerificationError("even and odd translates must be disjoint")
    return result


def sidon_set(p: int) -> GroupSubset:
    """The difference set for p as a subset of Z_n, n = p^2 + p + 1.

    All pairwise sums are distinct apart from the forced a+b = b+a symmetry,
    so the two-representation level set has exactly (n - 1) / 2 elements.
    """
    pds = singer_set(p)
    subset = pds.subset
    spec = rep_profile(subset).spectrum()
    if spec.max_rep > 2 or spec[2] != (pds.n - 1) // 2:
        raise VerificationError("sum profile lost the distinct-pair-sum shape")
    return subset


def half_period_doubling(p: int) -> GroupSubset:
    """A = 2D union (2D + n) in Z_{2n}; exactly m/2 - 1 elements get
    representation count 4, where m = 2n.  n is odd, so this is the shift
    union at l = (n - 1) / 2."""
    pds = singer_set(p)
    n = pds.n
    result = _shift_union(pds, pds.subset.dilate_shift(2, 0, Group.cyclic(2 * n)), (n - 1) // 2)
    spec = rep_profile(result).spectrum()
    if spec.max_rep > 4:
        raise VerificationError("sumset multiplicity exceeded 4")
    if spec[4] != n - 1:
        raise VerificationError("four-representation level set has the wrong size")
    return result


@dataclass(frozen=True)
class ShiftStat:
    """Uncovered-element counts for one shift: x_odd and x_even split the
    zero-representation class by residue parity; s0 is their sum."""

    l: int
    x_odd: int
    x_even: int
    s0: int
    max_rep: int


@dataclass(frozen=True)
class ShiftFamilyReport:
    """Exact scan over every admissible shift of shifted_doubling.

    The odd uncovered count is the same for every shift, and the even
    uncovered counts average to ((p^2-p)/2)^2 / (p^2+p+1) exactly, so some
    shift beats the mean; best_l minimizes x_even (smallest l on ties) and
    the winning set misses fewer than 3m/8 elements.

    Each row comes from one profile R_E of E = 2D: the shift's counts are
    R_E + 2·R_E(· - c) + R_E(· - 2c) with c = 2l + 1, read off one packed
    integer.  The best shift's row is re-checked by pair enumeration of its
    set, which is kept as best_set (equal to shifted_doubling(p, best_l)).
    """

    p: int
    m: int
    per_l: tuple[ShiftStat, ...]
    best_l: int
    avg_even: Fraction
    best_set: GroupSubset

    @property
    def x_odd(self) -> int:
        return self.per_l[0].x_odd

    @property
    def best_stat(self) -> ShiftStat:
        return self.per_l[self.best_l]

    @property
    def best_s0(self) -> int:
        return self.best_stat.s0


def shift_family_report(p: int) -> ShiftFamilyReport:
    pds = singer_set(p)
    n = pds.n
    m = 2 * n
    target = Group.cyclic(m)
    even_part = pds.subset.dilate_shift(2, 0, target)

    # E = 2D is even and E + c odd for odd c, so the two are disjoint and, by
    # bilinearity, R_{E ∪ (E+c)}(g) = R_E(g) + 2·R_E(g - c) + R_E(g - 2c).
    # With R_E packed into the slots of X, each shift's counts are the exact
    # int S = X + 2·rot(X, c) + rot(X, 2c), and no slot of S exceeds
    # 4·top_rep, the bound the slots are sized for.
    even = rep_profile(even_part)
    top_rep = even.max_rep
    slots = _Slots(m, 4 * top_rep)
    w, top = slots.w, slots.top
    top_even = (slots.full // ((1 << (2 * w)) - 1)) << (w - 1)
    top_odd = top ^ top_even
    X = sum(c << (w * g) for g, c in enumerate(even.array.tolist()) if c)

    stats = []
    for l in range(n):
        c = 2 * l + 1
        S = X + 2 * slots.rot(X, c) + slots.rot(X, 2 * c % m)
        nonzero = S + slots.cover_add
        x_even = n - (nonzero & top_even).bit_count()
        x_odd = n - (nonzero & top_odd).bit_count()
        # Odd slots hold 2·R_E(g - c), so the maximum is at least 2·top_rep.
        max_rep = slots.max_rep(S, 2 * top_rep)
        stats.append(ShiftStat(l, x_odd, x_even, x_odd + x_even, max_rep))

    odd_expected = (p * p - p) // 2
    if any(s.x_odd != odd_expected for s in stats):
        raise VerificationError("odd uncovered count must be (p^2-p)/2 for every shift")
    even_total = sum(s.x_even for s in stats)
    if even_total != odd_expected * odd_expected:
        raise VerificationError("even uncovered counts must sum to ((p^2-p)/2)^2")
    if any(s.max_rep > 4 for s in stats):
        raise VerificationError("sumset multiplicity exceeded 4 during scan")

    best = min(stats, key=lambda s: (s.x_even, s.l))
    avg_even = Fraction(even_total, n)
    if best.x_even > avg_even:
        raise VerificationError("minimum even uncovered count cannot exceed the mean")
    if 8 * best.s0 >= 3 * m:
        raise VerificationError("best shift must leave fewer than 3m/8 uncovered")
    best_set = _shift_union(pds, even_part, best.l)
    winner = rep_profile_naive(best_set)
    zero = winner.array == 0
    if (int(zero[1::2].sum()), int(zero[0::2].sum()), winner.max_rep) != (
        best.x_odd, best.x_even, best.max_rep
    ):
        raise VerificationError("pair enumeration of the best shift disagrees with the scan")
    return ShiftFamilyReport(
        p=p, m=m, per_l=tuple(stats), best_l=best.l, avg_even=avg_even, best_set=best_set
    )
