"""Exact representation-function profiles over finite abelian groups.

R_{A,B}(g) counts ordered pairs (a, b) in A x B with a + b = g.  Two exact
engines are provided: a vectorized pair-enumeration baseline
(rep_profile_naive) and an engine of exact transforms and packed products
(rep_profile_fast).  Both return identical integer counts; rep_profile
picks one by _choose_engine and can cross-check it against the other.
Flat indices and coordinates convert one way, by numpy's row-major
np.ravel_multi_index and np.unravel_index over Group.shape, which leaves
out the order-1 factors; the subset maps of groups (negate, translate,
dilate_shift) take the same route.

Pair enumeration takes one of two branches.  Where every order is a power
of two, cyclic groups such as Z_65536 included, the flat index packs the
coordinates in lanes of log2(m_i) bits, and a sum is one lane-wise add
with each lane's carry out dropped, ((a & L) + (b & L)) ^ ((a ^ b) & H),
H the top bit of each lane and L the bits below it.  Every other group
adds coordinates and ravels the sums with mode="wrap", which reduces each
coordinate mod m_i.  Pairs are taken in chunks of max(_CHUNK, order) // |B|
rows of A against all of B, so a chunk's index block is at most
max(_CHUNK, order) int64s, as is the bincount over the group.  The first
chunk's bincount is the count array and later chunks add into it: at most
a few arrays of 8 * max(_CHUNK, order) bytes are alive at once (one per axis
as well, for the per-axis sums of a chunk), and a sparse set in a large
group, such as a Singer set, is counted in one or two chunks.

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
  number-theoretic transform.  Each operand's text runs only up to its
  highest occupied slot, and an empty operand is 0.  The product's digits
  are read back by Horner's rule over the D digit columns, in place in the
  one int64 slot array with no (slots x D) int64 temporary; a check that
  the slots sum to |A| |B| catches any carry, and each axis is folded mod
  m_i.

A RepProfile stores its counts once, as the engine's read-only int64 array,
which every reader uses; the tuple counts is made only when it is asked for.
"""

from __future__ import annotations

from collections.abc import Iterator
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
from functools import cached_property
from math import prod

import numpy as np

from .groups import (
    Group,
    GroupMismatchError,
    GroupSubset,
    UnsupportedGroupError,
    VerificationError,
)

_CHUNK = 1 << 16


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


def rep_profile_naive(a: GroupSubset, b: GroupSubset | None = None) -> "RepProfile":
    """Exact R_{A,B} by enumerating all |A|*|B| pairs (vectorized in chunks).

    A chunk is max(_CHUNK, order) // |B| rows of A against all of B, so one
    chunk covers every pair of a sparse set in a large group.  The first
    chunk's bincount is the count array and the others add into it."""
    if b is None:
        b = a
    if b.group != a.group:
        raise GroupMismatchError("profile of subsets of different groups")
    group = a.group
    counts = None
    ea, eb = np.flatnonzero(a.mask), np.flatnonzero(b.mask)
    for block in _pair_sums(group, ea, eb):
        part = np.bincount(block.ravel(), minlength=group.order)
        if counts is None:
            counts = part
        else:
            counts += part
    if counts is None:
        counts = np.zeros(group.order, dtype=np.int64)
    return RepProfile(group, counts)


def _pair_sums(group: Group, ea: np.ndarray, eb: np.ndarray) -> Iterator[np.ndarray]:
    """The flat indices of a + b for a in ea, b in eb, as 2-D blocks of
    max(_CHUNK, order) // |B| rows (at least one) each."""
    if not (ea.size and eb.size):
        return
    step = max(1, max(_CHUNK, group.order) // eb.size)
    if (masks := _lane_masks(group)) is not None:
        # Lane-wise add: in a lane of b bits the low parts are each below
        # 2^(b-1), so their sum may carry into the lane's top bit but never
        # out of the lane, and the XOR adds the top bits mod 2.
        low, high = masks
        la, ha, lb, hb = ea & low, ea & high, eb & low, eb & high
        for lo in range(0, ea.size, step):
            hi = lo + step
            yield (la[lo:hi, None] + lb[None, :]) ^ (ha[lo:hi, None] ^ hb[None, :])
    else:
        shape = group.shape
        ca = np.unravel_index(ea, shape)
        cb = np.unravel_index(eb, shape)
        for lo in range(0, ea.size, step):
            # The per-axis sums are freed once the block is made.
            yield np.ravel_multi_index(
                [xa[lo : lo + step, None] + xb[None, :] for xa, xb in zip(ca, cb)],
                shape, mode="wrap",
            )


def _slot_digits(a: GroupSubset, b: GroupSubset) -> int:
    """Decimal digits per packed slot: the least D with 10**D > min(|A|, |B|).
    No coefficient of the linear convolution exceeds min(|A|, |B|), so none
    can carry into the next slot."""
    return len(str(min(a.card, b.card)))


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
        chunks = -(-a.card // max(1, max(_CHUNK, group.order) // b.card))
        factors = len(group.shape) if _lane_masks(group) is None else 1
        pair_cost = a.card * b.card * factors * _PAIR_NS
        pair_cost += chunks * group.order * _BINCOUNT_SLOT_NS
    if _is_elementary_two(group):
        stages = group.order.bit_length() - 1
        fast_cost = stages * (_STAGE_NS + group.order * _BUTTERFLY_NS)
    else:
        # N log2 N over the N packed digits (the number-theoretic
        # transform), plus a fixed cost per call.
        n = prod(2 * mi - 1 for mi in group.orders) * _slot_digits(a, b)
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


def _decimal_product(pos_a: np.ndarray, pos_b: np.ndarray, total: int, digits: int) -> np.ndarray:
    """Slots of the product of two packed indicators, lowest first, by one
    Decimal multiply in _EXACT; slot j is the digits of weight 10**(digits*j)
    up to 10**(digits*j + digits - 1).  Each operand is written only up to
    its highest occupied slot, and the product's slots are read back by
    Horner's rule over their digits into one int64 array of total slots."""

    def pack(pos: np.ndarray) -> Decimal:
        if not pos.size:
            return Decimal(0)
        top = int(pos.max()) + 1
        text = np.full(top * digits, _ZERO, dtype=np.uint8)
        text[(top - pos) * digits - 1] = _ONE  # most significant slot first
        return _EXACT.create_decimal(text.tobytes().decode("ascii"))

    pa = pack(pos_a)
    text = str(_EXACT.multiply(pa, pa if pos_b is pos_a else pack(pos_b)))
    if len(text) > total * digits:
        raise VerificationError("packed product overflows its slots")
    used = -(-len(text) // digits)
    cols = np.frombuffer(text.rjust(used * digits, "0").encode("ascii"), dtype=np.uint8)
    cols = (cols - _ZERO).reshape(used, digits)
    slots = np.zeros(total, dtype=np.int64)
    head = slots[used - 1 :: -1]  # the used slots, most significant first
    head[:] = cols[:, 0]
    for j in range(1, digits):
        head *= 10
        head += cols[:, j]
    return slots


def _convolve_packed(a: GroupSubset, b: GroupSubset) -> np.ndarray:
    """Exact linear convolution of the two indicator arrays by one
    _decimal_product of the packed integers, followed by per-axis cyclic
    folding."""
    group, shape = a.group, a.group.shape
    # Radices 2*m_i - 1 leave room for every index sum before the fold.
    radices = tuple(2 * mi - 1 for mi in shape)

    def positions(s: GroupSubset) -> np.ndarray:
        return np.ravel_multi_index(np.unravel_index(np.flatnonzero(s.mask), shape), radices)

    pos_a = positions(a)
    pos_b = pos_a if b == a else positions(b)
    arr = _decimal_product(pos_a, pos_b, prod(radices), _slot_digits(a, b))
    # A carry between slots loses 10**digits - 1 of the mass.
    if int(arr.sum()) != a.card * b.card:
        raise VerificationError("packed product carried between slots")
    arr = arr.reshape(radices)
    for axis, mi in enumerate(shape):
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
    2^64 for k <= 31.  The counts R(g) <= 2^31 are returned as int64."""
    k = a.group.order.bit_length() - 1
    if k > _MAX_HADAMARD_RANK:
        raise UnsupportedGroupError(f"Z_2^{k} is past the Hadamard route's Z_2^31")
    fa = _hadamard(a.mask.astype(np.uint64))
    fb = fa if b == a else _hadamard(b.mask.astype(np.uint64))
    return (_hadamard(fa * fb) >> k).astype(np.int64)


def rep_profile_fast(a: GroupSubset, b: GroupSubset | None = None) -> "RepProfile":
    """Exact R_{A,B} by the Walsh-Hadamard transform on Z_2^k, else by one
    exact product of the packed indicators."""
    if b is None:
        b = a
    if b.group != a.group:
        raise GroupMismatchError("profile of subsets of different groups")
    convolve = _convolve_hadamard if _is_elementary_two(a.group) else _convolve_packed
    return RepProfile(a.group, convolve(a, b))


def rep_profile(
    a: GroupSubset, b: GroupSubset | None = None, *, cross_check: bool = False
) -> "RepProfile":
    """Exact R_{A,B} by the engine that _choose_engine picks.

    _choose_engine predicts each engine's cost in integer nanoseconds and
    the cheaper runs.  Pair enumeration costs |A|*|B| times the number of
    cyclic factors above order 1, or times one when every order is a power
    of two (the lane-wise add of flat indices), plus a pass over the group
    per chunk of max(_CHUNK, order) // |B| rows of A.  The fast engine
    costs, on Z_2^k, k butterfly stages over the 2^k entries plus a fixed
    cost per stage; elsewhere, the decimal
    product: N log2 N for the N = prod(2*m_i - 1) * D packed digits plus a
    fixed cost per call.  Sparse sets such as Singer sets therefore
    enumerate pairs; dense sets take the fast engine.  cross_check reruns
    the engine that was not picked and compares.  To force one engine,
    call rep_profile_naive or rep_profile_fast.
    """
    if _choose_engine(a, a if b is None else b) == "naive":
        engine, other = rep_profile_naive, rep_profile_fast
    else:
        engine, other = rep_profile_fast, rep_profile_naive
    profile = engine(a, b)
    if cross_check and other(a, b) != profile:
        raise VerificationError("pair enumeration and the fast engine disagree")
    return profile


def rep_diff_profile(a: GroupSubset, *, cross_check: bool = False) -> "RepProfile":
    """R_{A,-A}: counts of ordered pairs with a - a' = g."""
    return rep_profile(a, a.negate(), cross_check=cross_check)


@dataclass(frozen=True, eq=False)
class RepProfile:
    """Exact counts R(g) for every flat index g of the group.

    array, the one store, is a read-only int64 copy of any 1-D array or
    sequence of non-negative integers of the group's length, or that array
    itself, not copied, if it is int64 already (as an engine's is).  counts,
    a tuple, is made from it on first use.  Equal groups and counts are equal."""

    group: Group
    array: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.array)
        if arr.ndim != 1 or arr.dtype.kind not in "iu":
            raise TypeError(f"profile counts must be 1-D integers, not {arr.dtype} {arr.shape}")
        if len(arr) != self.group.order:
            raise ValueError("profile length must equal the group order")
        if arr.dtype == np.uint64 and arr.max() >= 2**63:
            raise OverflowError("profile counts of 2^63 or more do not fit in int64")
        arr = arr.astype(np.int64, copy=False)
        if arr.min() < 0:
            raise ValueError("profile counts must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @cached_property
    def counts(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RepProfile) and self.group == other.group and (
            np.array_equal(self.array, other.array))

    def __hash__(self) -> int:
        return hash((self.group, self.array.tobytes()))

    def __getitem__(self, g: int) -> int:
        return int(self.array[self.group.check_element(g)])

    @cached_property
    def max_rep(self) -> int:
        return int(self.array.max())

    def mass(self) -> int:
        """Total count over the group; |A|*|B| for an engine's profile.  Summed in int64 where
        max_rep * order < 2^63 (engine profiles of order under 3 * 10^9), else in Python ints."""
        if self.max_rep * len(self.array) < 2**63:
            return int(self.array.sum())
        return sum(self.array.tolist())

    def level_set(self, i: int) -> list[int]:
        """All g with R(g) = i, ascending."""
        return np.flatnonzero(self.array == i).tolist()

    def spectrum(self) -> "RepSpectrum":
        """The histogram of the counts by np.bincount, keyed in the order
        each count first occurs in the array."""
        hist = np.bincount(self.array).tolist()
        distinct = len(hist) - hist.count(0)
        # First-seen order from chunks 64, 128, 256, ... long, read until
        # every count has shown (update keeps a key where it first went in):
        # 64 entries or under twice the shortest prefix that shows them all.
        seen, lo = {}, 0
        while len(seen) < distinct:
            seen.update(dict.fromkeys(self.array[lo : 2 * lo + 64].tolist()))
            lo = 2 * lo + 64
        return RepSpectrum({i: hist[i] for i in seen}, len(hist) - 1)


@dataclass(frozen=True)
class RepSpectrum:
    """Histogram |S_i| = #{g : R(g) = i}, keyed by the count i."""

    histogram: dict[int, int]
    max_rep: int

    def __getitem__(self, i: int) -> int:
        return self.histogram.get(i, 0)

    def support(self) -> list[int]:
        return sorted(self.histogram)

    @cached_property
    def square_sum(self) -> int:
        """Sum of R(g)^2 over the group, from the histogram."""
        return sum(n * i * i for i, n in self.histogram.items())


def spectrum(a: GroupSubset, b: GroupSubset | None = None) -> RepSpectrum:
    """rep_profile(a, b).spectrum().  With b None and |A|^2 below the
    order, the histogram comes from the pair sums (sparse_spectrum), with
    no count per group element."""
    if b is None and a.card**2 < a.group.order:
        return sparse_spectrum(a)
    return rep_profile(a, b).spectrum()


def sparse_spectrum(a: GroupSubset) -> RepSpectrum:
    """rep_profile(a).spectrum(), histogram key order included, from the
    |A|^2 pair sums alone, with no array as long as the group: R(g) is the
    multiplicity of g among the sums, and S_0 is the order less the number
    of distinct sums.  Where |A|^2 is below the order, the sums are fewer
    than the group's elements."""
    ea = np.flatnonzero(a.mask)
    blocks = [block.ravel() for block in _pair_sums(a.group, ea, ea)]
    sums, counts = np.unique(np.concatenate(blocks) if blocks else ea, return_counts=True)
    hist = np.bincount(counts, minlength=1).tolist()
    hist[0] = a.group.order - sums.size
    # Over g = 0, 1, ... the counts show in the order of the sorted sums,
    # with 0 first at the least g that is not a sum.  The sums are distinct
    # and ascending, so sums[i] == i holds for a prefix, and g is its length.
    if hist[0]:
        counts = np.insert(counts, np.count_nonzero(sums == np.arange(sums.size)), 0)
    return RepSpectrum({i: hist[i] for i in dict.fromkeys(counts.tolist())}, len(hist) - 1)

