"""Exact representation-function profiles over finite abelian groups.

R_{A,B}(g) counts ordered pairs (a, b) in A x B with a + b = g.  Two exact
engines are provided: a vectorized pair-enumeration baseline ("naive") and
an engine of exact transforms and packed products ("fast").  Both return identical integer
counts, and rep_profile can cross-check one against the other.

Pair enumeration adds flat indices mod m in a cyclic group and factor by
factor in other groups, except where every order is a power of two: there
the flat index packs the coordinates in lanes of log2(m_i) bits, and a sum
is one lane-wise add with each lane's carry out dropped,
((a & L) + (b & L)) ^ ((a ^ b) & H), H the top bit of each lane and L the
bits below it.

The fast engine takes one of two routes.

- Groups whose orders are all 1 or 2 (Z_2^k): the flat index is the bit
  vector, a sum is an XOR, and R_{A,B} = H(H 1_A * H 1_B) / 2^k with H the
  +-1 Walsh-Hadamard matrix, applied in k numpy butterfly stages.  The
  vectors are uint64 and wrap; every step is a ring operation, so each
  entry is exact modulo 2^64, and the final 2^k R(g) <= 2^(2k) is below
  2^64 for k <= 31.  No float enters.
- Every other group: the indicators are laid out with radix 2*m_i - 1 per
  axis, so that no index sum wraps, and multiplied as two packed integers.
  No coefficient of the linear convolution exceeds min(|A|, |B|), so a
  slot wider than that never carries into the next.  Each slot is D
  decimal digits with 10^D > min(|A|, |B|), and the product is one
  decimal.Decimal multiply in a context with prec=MAX_PREC and Inexact,
  Rounded and InvalidOperation trapped: the result is the exact integer
  product or an exception, and libmpdec multiplies large operands by a
  number-theoretic transform.  The slots are read back in one numpy pass,
  a check that they sum to |A| |B| catches any carry, and each axis is
  folded mod m_i.

_Slots is the slot-packed layout of counts over Z_m in one Python int that
the basis searches and the 11b shift scan update and test by whole-word
arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
)
from functools import cached_property, lru_cache

import numpy as np

from .groups import (
    Group,
    GroupMismatchError,
    GroupSubset,
    UnsupportedGroupError,
    VerificationError,
    _unpack_mask,
)

_CHUNK = 1 << 16


def _coord_arrays(group: Group, idx: np.ndarray) -> list[np.ndarray]:
    # Row-major decode of many flat indices at once, last coordinate fastest.
    coords: list[np.ndarray] = []
    rest = idx.astype(np.int64, copy=True)
    for mi in reversed(group.orders):
        coords.append(rest % mi)
        rest //= mi
    coords.reverse()
    return coords


def _lane_masks(group: Group) -> tuple[int, int] | None:
    """(L, H) for a group whose orders are all powers of two, else None.

    There every stride is a power of two, so a flat index packs coordinate
    i into a lane of b_i = log2(m_i) bits.  H holds the top bit of each lane
    and L the bits below it; an order-1 factor has an empty lane."""
    high = shift = 0
    for mi in reversed(group.orders):
        if mi & (mi - 1):
            return None
        bits = mi.bit_length() - 1
        if bits:
            high |= 1 << (shift + bits - 1)
        shift += bits
    return (group.order - 1) ^ high, high


def _indices(s: GroupSubset) -> np.ndarray:
    """Member flat indices of s in ascending order, as an int64 array."""
    return np.flatnonzero(_unpack_mask(s.bits, s.group.order)).astype(np.int64, copy=False)


def rep_profile_naive(a: GroupSubset, b: GroupSubset | None = None) -> "RepProfile":
    """Exact R_{A,B} by enumerating all |A|*|B| pairs (vectorized in chunks)."""
    if b is None:
        b = a
    if b.group != a.group:
        raise GroupMismatchError("profile of subsets of different groups")
    group = a.group
    counts = np.zeros(group.order, dtype=np.int64)
    ea = _indices(a)
    eb = _indices(b)
    if ea.size and eb.size:
        step = max(1, _CHUNK // eb.size)
        if group.is_cyclic:
            m = group.orders[0]
            for lo in range(0, ea.size, step):
                block = (ea[lo : lo + step, None] + eb[None, :]) % m
                counts += np.bincount(block.ravel(), minlength=m)
        elif (masks := _lane_masks(group)) is not None:
            # Lane-wise add: in a lane of b bits the low parts are each below
            # 2^(b-1), so their sum may carry into the lane's top bit but never
            # out of the lane, and the XOR adds the top bits mod 2.
            low, high = masks
            la, ha, lb, hb = ea & low, ea & high, eb & low, eb & high
            for lo in range(0, ea.size, step):
                hi = lo + step
                block = (la[lo:hi, None] + lb[None, :]) ^ (ha[lo:hi, None] ^ hb[None, :])
                counts += np.bincount(block.ravel(), minlength=group.order)
        else:
            ca = _coord_arrays(group, ea)
            cb = _coord_arrays(group, eb)
            for lo in range(0, ea.size, step):
                flat = np.zeros((min(step, ea.size - lo), eb.size), dtype=np.int64)
                for xa, xb, mi in zip(ca, cb, group.orders):
                    flat = flat * mi + (xa[lo : lo + step, None] + xb[None, :]) % mi
                counts += np.bincount(flat.ravel(), minlength=group.order)
    return RepProfile(group, tuple(counts.tolist()))


def _slot_digits(a: GroupSubset, b: GroupSubset) -> int:
    """Decimal digits per packed slot: the least D with 10**D > min(|A|, |B|).
    No coefficient of the linear convolution exceeds min(|A|, |B|), so none
    can carry into the next slot."""
    return len(str(min(a.card, b.card)))


@lru_cache(maxsize=1024)
def _packed_layout(orders: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Radices 2*m_i - 1, which leave room for every index sum before the
    fold, their row-major strides, and the slot count prod(2*m_i - 1)."""
    radices = tuple(2 * mi - 1 for mi in orders)
    strides = [0] * len(radices)
    acc = 1
    for i in range(len(radices) - 1, -1, -1):
        strides[i] = acc
        acc *= radices[i]
    return radices, tuple(strides), acc


def _is_elementary_two(group: Group) -> bool:
    """Every order is 1 or 2: the flat index is the bit vector of Z_2^k."""
    return all(mi <= 2 for mi in group.orders)


# _choose_engine's weights in nanoseconds, fitted to perfbench/grid.py and
# wider shapes on a 2-core Xeon VM (Python 3.11, numpy 2.4, libmpdec 2.5.1).
_PAIR_NS = 8  # per pair and cyclic factor; a 2-group counts as one factor
_BINCOUNT_SLOT_NS = 2  # per group element, once per chunk of pairs
_PRODUCT_CALL_NS = 10_000  # the decimal product's fixed cost above pairs'
_PRODUCT_DIGIT_NS = 3  # per packed digit and bit of the digit count
_STAGE_NS = 7_000  # per butterfly stage, over the three Hadamard passes
_BUTTERFLY_NS = 5  # per group element and butterfly stage


def _choose_engine(a: GroupSubset, b: GroupSubset) -> str:
    """Pick "naive" or "fast" by comparing the two engines' predicted cost,
    in integer arithmetic only."""
    group = a.group
    pair_cost = 0
    if a.card and b.card:
        chunks = -(-a.card // max(1, _CHUNK // b.card))
        factors = len(group.orders) if _lane_masks(group) is None else 1
        pair_cost = a.card * b.card * factors * _PAIR_NS
        pair_cost += chunks * group.order * _BINCOUNT_SLOT_NS
    if _is_elementary_two(group):
        stages = group.order.bit_length() - 1
        fast_cost = stages * (_STAGE_NS + group.order * _BUTTERFLY_NS)
    else:
        # N log2 N over the N packed digits (the number-theoretic
        # transform), plus a fixed cost per call.
        n = _packed_layout(group.orders)[2] * _slot_digits(a, b)
        fast_cost = _PRODUCT_CALL_NS + n * n.bit_length() * _PRODUCT_DIGIT_NS
    return "fast" if fast_cost < pair_cost else "naive"


# Exact decimal arithmetic: any rounding or invalid operation raises, so a
# product computed in this context is the exact integer product or an error.
# The exponent limits are the widest, so no product that fits in memory
# overflows.
_EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, InvalidOperation]
)
_ZERO, _ONE = ord("0"), ord("1")


def _positions(group: Group, s: GroupSubset, strides: tuple[int, ...]) -> np.ndarray:
    """The packed positions sum(c_i * stride_i) of the elements of s."""
    coords = _coord_arrays(group, _indices(s))
    return sum(c * stride for c, stride in zip(coords, strides))


def _decimal_product(pos_a: np.ndarray, pos_b: np.ndarray, total: int, digits: int) -> np.ndarray:
    """Slots of the product of two packed indicators, lowest first, by one
    Decimal multiply in _EXACT; slot j is the digits of weight 10**(digits*j)
    up to 10**(digits*j + digits - 1)."""

    def pack(pos: np.ndarray) -> Decimal:
        text = np.full(total * digits, _ZERO, dtype=np.uint8)
        text[(total - pos) * digits - 1] = _ONE  # most significant slot first
        return _EXACT.create_decimal(text.tobytes().decode("ascii"))

    pa = pack(pos_a)
    text = str(_EXACT.multiply(pa, pa if pos_b is pos_a else pack(pos_b)))
    if len(text) > total * digits:
        raise VerificationError("packed product overflows its slots")
    raw = np.frombuffer(text.rjust(total * digits, "0").encode("ascii"), dtype=np.uint8)
    place = 10 ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    return ((raw.reshape(total, digits) - _ZERO).astype(np.int64) @ place)[::-1]


def _convolve_packed(a: GroupSubset, b: GroupSubset) -> np.ndarray:
    """Exact linear convolution of the two indicator arrays by one
    _decimal_product of the packed integers, followed by per-axis cyclic
    folding."""
    group = a.group
    radices, strides, total = _packed_layout(group.orders)
    pos_a = _positions(group, a, strides)
    pos_b = pos_a if b == a else _positions(group, b, strides)
    arr = _decimal_product(pos_a, pos_b, total, _slot_digits(a, b))
    # A carry between slots loses 10**digits - 1 of the mass.
    if int(arr.sum()) != a.card * b.card:
        raise VerificationError("packed product carried between slots")
    arr = arr.reshape(radices)
    for axis, mi in enumerate(group.orders):
        if mi == 1:
            continue
        head = arr[(slice(None),) * axis + (slice(0, mi),)]
        tail = arr[(slice(None),) * axis + (slice(mi, 2 * mi - 1),)]
        head[(slice(None),) * axis + (slice(0, mi - 1),)] += tail
        arr = head
    return arr.reshape(group.order)


# Past Z_2^31 the uint64 transform would wrap the final counts; Z_2^32 would
# need a 32 GiB vector anyway.
_MAX_HADAMARD_RANK = 31


def _hadamard(v: np.ndarray) -> np.ndarray:
    """In-place +-1 Walsh-Hadamard transform of a length-2^k unsigned vector:
    k butterfly stages (x, y) -> (x + y, x - y), exact modulo 2**64."""
    n, half = v.size, 1
    while half < n:
        w = v.reshape(-1, 2, half)
        x, y = w[:, 0], w[:, 1]
        x += y
        y *= 2
        np.subtract(x, y, out=y)  # (x + y) - 2y = x - y without a temporary
        half *= 2
    return v


def _convolve_hadamard(a: GroupSubset, b: GroupSubset) -> np.ndarray:
    """R_{A,B} = H(H 1_A * H 1_B) / 2^k on a group whose orders are all 1 or
    2, where a + b is the XOR of flat indices.  The vectors are uint64 and
    wrap: every step is a ring operation, so each entry is exact modulo 2^64,
    and each final entry 2^k R(g) <= 2^k min(|A|, |B|) <= 2^(2k) is below
    2^64 for k <= 31."""
    n = a.group.order
    k = n.bit_length() - 1
    if k > _MAX_HADAMARD_RANK:
        raise UnsupportedGroupError(f"Z_2^{k} is past the Hadamard route's Z_2^31")
    fa = _hadamard(_unpack_mask(a.bits, n).astype(np.uint64))
    fb = fa if b == a else _hadamard(_unpack_mask(b.bits, n).astype(np.uint64))
    return _hadamard(fa * fb) >> k


def rep_profile_fast(a: GroupSubset, b: GroupSubset | None = None) -> "RepProfile":
    """Exact R_{A,B} by the Walsh-Hadamard transform on Z_2^k, else by one
    exact product of the packed indicators."""
    if b is None:
        b = a
    if b.group != a.group:
        raise GroupMismatchError("profile of subsets of different groups")
    convolve = _convolve_hadamard if _is_elementary_two(a.group) else _convolve_packed
    return RepProfile(a.group, tuple(convolve(a, b).tolist()))


def rep_profile(
    a: GroupSubset,
    b: GroupSubset | None = None,
    *,
    method: str = "auto",
    cross_check: bool = False,
) -> "RepProfile":
    """Dispatch between the exact engines.  method: auto | naive | fast.

    auto predicts each engine's cost in integer nanoseconds and runs the
    cheaper.  Pair enumeration costs |A|*|B| times the number of cyclic
    factors, or times one when every order is a power of two (the lane-wise
    add of flat indices), plus a pass over the group per chunk of pairs.
    The fast engine costs, on Z_2^k, k butterfly stages over the 2^k
    entries plus a fixed cost per stage; elsewhere, the decimal product:
    N log2 N for the N = prod(2*m_i - 1) * D packed digits plus a fixed
    cost per call.  Sparse sets such as Singer sets therefore enumerate
    pairs; dense sets take the fast engine.  cross_check recomputes through
    the other engine and compares.
    """
    if method == "auto":
        method = _choose_engine(a, a if b is None else b)
    if method == "naive":
        engine, other = rep_profile_naive, rep_profile_fast
    elif method == "fast":
        engine, other = rep_profile_fast, rep_profile_naive
    else:
        raise ValueError(f"unknown method {method!r}")
    profile = engine(a, b)
    if cross_check and other(a, b).counts != profile.counts:
        raise VerificationError("pair enumeration and the fast engine disagree")
    return profile


def rep_diff_profile(
    a: GroupSubset, *, method: str = "auto", cross_check: bool = False
) -> "RepProfile":
    """R_{A,-A}: counts of ordered pairs with a - a' = g."""
    return rep_profile(a, a.negate(), method=method, cross_check=cross_check)


@dataclass(frozen=True)
class RepProfile:
    """Exact counts R(g) for every flat index g of the group."""

    group: Group
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.group.order:
            raise ValueError("profile length must equal the group order")

    def __getitem__(self, g: int) -> int:
        return self.counts[self.group.check_element(g)]

    @cached_property
    def max_rep(self) -> int:
        return max(self.counts)

    def mass(self) -> int:
        """Total count over the group; equals |A|*|B|."""
        return sum(self.counts)

    def level_set(self, i: int) -> list[int]:
        """All g with R(g) = i, ascending."""
        return [g for g, c in enumerate(self.counts) if c == i]

    def spectrum(self) -> "RepSpectrum":
        return RepSpectrum(dict(Counter(self.counts)), self.max_rep)


@dataclass(frozen=True)
class RepSpectrum:
    """Histogram |S_i| = #{g : R(g) = i}, keyed by the count i."""

    histogram: dict[int, int]
    max_rep: int

    def __getitem__(self, i: int) -> int:
        return self.histogram.get(i, 0)

    def support(self) -> list[int]:
        return sorted(self.histogram)


def spectrum(a: GroupSubset, b: GroupSubset | None = None, *, method: str = "auto") -> RepSpectrum:
    return rep_profile(a, b, method=method).spectrum()


class _Slots:
    """Counts over Z_m packed in one int: slot g holds the count at g in
    w = (bound + 2).bit_length() + 1 bits, bound the largest count the
    caller stores.  No count (at most bound) or add-and-mask threshold
    (at most bound + 1) reaches a slot's top bit, so no carry crosses slots
    and every test on all of Z_m is one add and one mask.  With rot(X, e) moving slot x to
    x + e mod m, adding e to a set A (member indicator, 0/1 slots) adds
    2·rot(A, e) + dbl(e) to its representation counts."""

    def __init__(self, m: int, bound: int):
        self.m = m
        w = self.w = (bound + 2).bit_length() + 1
        self.full = (1 << (w * m)) - 1
        ones = self.ones = self.full // ((1 << w) - 1)
        self.top = ones << (w - 1)
        self.cover_add = ones * ((1 << (w - 1)) - 1)

    def rot(self, X: int, e: int) -> int:
        """X with slot x moved to slot x + e mod m, for 0 <= e < m."""
        w = self.w
        return ((X << (w * e)) | (X >> (w * (self.m - e)))) & self.full

    def step(self, e: int) -> tuple[int, int, int, int]:
        """(up, down, bit(e), dbl(e)): 2·rot(X, e) for 0/1 slots is
        ((X << up) | (X >> down)) & full, since bit w·(m - e) - 1 of X is
        clear; bit(e) is slot e and dbl(e) = bit(2e mod m)."""
        w, m = self.w, self.m
        return w * e + 1, w * (m - e) - 1, 1 << (w * e), 1 << (w * (2 * e % m))

    def exceeds(self, X: int, t: int) -> bool:
        """Whether some slot of X is above t."""
        return (X + self.cover_add - self.ones * t) & self.top != 0

    def max_rep(self, X: int, guess: int) -> int:
        """The largest slot of X by "some slot > t" tests, stepping from
        guess, so a near guess costs a test or two.  Slot g of Y is
        X[g] + 2^(w-1) - 1 - t, whose top bit is set iff X[g] > t."""
        ones, top, t = self.ones, self.top, guess
        Y = X + self.cover_add - ones * t
        while Y & top:
            Y -= ones
            t += 1
        while t and not (Y + ones) & top:
            Y += ones
            t -= 1
        return t

    def zeros(self, X: int) -> int:
        return self.m - ((X + self.cover_add) & self.top).bit_count()

    def decode(self, X: int) -> tuple[int, ...]:
        w, mask = self.w, (1 << self.w) - 1
        return tuple((X >> (w * g)) & mask for g in range(self.m))
