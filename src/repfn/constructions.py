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
argument that a good shift exists.  Every row of the scan comes from one
profile of the even part 2D and one difference profile of its even zeros,
and the winning shift is re-checked by pair enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .groups import Group, GroupSubset, VerificationError
from .profiles import rep_diff_profile, rep_profile, rep_profile_naive
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


class ShiftStat(NamedTuple):
    """Uncovered-element counts for one shift: x_odd and x_even split the
    zero-representation class by residue parity; s0 is their sum.  A named
    tuple, as a scan makes one per shift: immutable, equal to the tuple of
    its fields."""

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

    Every row comes from one profile R_E of E = 2D.  E is even and E + c odd
    for odd c = 2l + 1, so the two are disjoint and, by bilinearity, the
    shift's counts are R_E(g) + 2·R_E(g - c) + R_E(g - 2c).  At odd g only
    the middle term is nonzero, so the shift leaves g uncovered iff g - c
    lies in Z = {even g : R_E(g) = 0}; as g runs over the odd residues,
    g - c runs over the even ones, so x_odd = |Z| for every shift.  At even
    g the middle term vanishes, so g is uncovered iff g and g - 2c both lie
    in Z, and x_even = |Z ∩ (Z + 2c)| = R_{Z,-Z}(2c mod m).  Both terms are
    at most max R_E, and the odd residues reach 2·max R_E, so
    max_rep = 2·max R_E.  The best shift's row is re-checked by pair
    enumeration of its set, which is kept as best_set (equal to
    shifted_doubling(p, best_l)).
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
    even_part = pds.subset.dilate_shift(2, 0, Group.cyclic(m))

    # The rows of every shift by the derivation in ShiftFamilyReport.
    even = rep_profile(even_part)
    in_z = even.array == 0
    in_z[1::2] = False
    x_odd = int(in_z.sum())
    diff = rep_diff_profile(GroupSubset(even.group, in_z)).array
    x_evens = diff[(4 * np.arange(n) + 2) % m].tolist()
    max_rep = 2 * even.max_rep
    stats = [ShiftStat(l, x_odd, x, x_odd + x, max_rep) for l, x in enumerate(x_evens)]

    odd_expected = (p * p - p) // 2
    if x_odd != odd_expected:
        raise VerificationError("odd uncovered count must be (p^2-p)/2 for every shift")
    even_total = sum(x_evens)
    if even_total != odd_expected * odd_expected:
        raise VerificationError("even uncovered counts must sum to ((p^2-p)/2)^2")
    if max_rep > 4:
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
