"""Exact representation-function profiles over finite abelian groups.

R_{A,B}(g) counts ordered pairs (a, b) in A x B with a + b = g.  Two exact
routes are provided: a vectorized pair-enumeration baseline and a packed
big-integer multiplication that realizes the cyclic convolution in one
arbitrary-precision product.  Both return identical integer counts, and
rep_profile can cross-check one against the other.

Pair enumeration adds flat indices mod m in a cyclic group and factor by
factor in other groups, except where every order is a power of two: there
the flat index packs the coordinates in lanes of log2(m_i) bits, and a sum
is one lane-wise add with each lane's carry out dropped,
((a & L) + (b & L)) ^ ((a ^ b) & H), H the top bit of each lane and L the
bits below it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import Group, GroupMismatchError, GroupSubset, VerificationError

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


def rep_profile_naive(a: GroupSubset, b: GroupSubset | None = None) -> "RepProfile":
    """Exact R_{A,B} by enumerating all |A|*|B| pairs (vectorized in chunks)."""
    if b is None:
        b = a
    if b.group != a.group:
        raise GroupMismatchError("profile of subsets of different groups")
    group = a.group
    counts = np.zeros(group.order, dtype=np.int64)
    ea = np.asarray(a.elements(), dtype=np.int64)
    eb = np.asarray(b.elements(), dtype=np.int64)
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


def _slot_width(a: GroupSubset, b: GroupSubset) -> int:
    """Bytes per packed slot: coefficients are bounded by min(|A|, |B|), so
    this width can never carry into the next slot."""
    bound = min(a.card, b.card)
    width = 1
    while (1 << (8 * width)) <= bound:
        width *= 2
    return width


# _choose_engine's weights in nanoseconds, fitted to perfbench/grid.py and
# wider shapes on a 2-core Xeon VM (Python 3.11, numpy 2.4).
_PAIR_NS = 8  # per pair and cyclic factor; a 2-group counts as one factor
_BINCOUNT_SLOT_NS = 2  # per group element, once per chunk of pairs
_PACKED_BLOCK = 64  # bytes of packed buffer per Karatsuba unit
_KARATSUBA_UNIT_NS = 226


def _karatsuba_units(blocks: int) -> int:
    """About blocks**log2(3): CPython multiplies big ints by Karatsuba, three
    half-size products per level.  Interpolated linearly between powers of
    two so that the cost grows smoothly with the buffer."""
    blocks = max(blocks, 1)
    j = blocks.bit_length() - 1
    return 3**j * (2 * blocks - (1 << j)) >> j


def _choose_engine(a: GroupSubset, b: GroupSubset) -> str:
    """Pick "naive" or "fast" by comparing the two engines' predicted cost,
    in integer arithmetic only."""
    orders = a.group.orders
    pair_cost = 0
    if a.card and b.card:
        chunks = -(-a.card // max(1, _CHUNK // b.card))
        factors = len(orders) if _lane_masks(a.group) is None else 1
        pair_cost = a.card * b.card * factors * _PAIR_NS
        pair_cost += chunks * a.group.order * _BINCOUNT_SLOT_NS
    slots = 1
    for mi in orders:
        slots *= 2 * mi - 1
    blocks = slots * _slot_width(a, b) // _PACKED_BLOCK
    packed_cost = _karatsuba_units(blocks) * _KARATSUBA_UNIT_NS
    return "fast" if packed_cost < pair_cost else "naive"


def _pack(group: Group, s: GroupSubset, strides: list[int], total: int, dtype: str) -> int:
    """Indicator of s laid out at the packed positions sum(c_i * stride_i)."""
    coords = _coord_arrays(group, np.asarray(s.elements(), dtype=np.int64))
    pos = np.zeros(len(coords[0]), dtype=np.int64)
    for c, stride in zip(coords, strides):
        pos += c * stride
    buf = np.zeros(total, dtype=dtype)
    buf[pos] = 1
    return int.from_bytes(buf.tobytes(), "little")


def _convolve_packed(a: GroupSubset, b: GroupSubset) -> np.ndarray:
    """Exact linear convolution of the two indicator arrays via one big-int
    multiply, followed by per-axis cyclic folding."""
    group = a.group
    width = _slot_width(a, b)
    if width > 4:
        raise VerificationError("convolution coefficients exceed 32-bit slots")

    # Linear radices 2*m_i - 1 leave room for index sums before folding.
    radices = [2 * mi - 1 for mi in group.orders]
    strides = [0] * len(radices)
    acc = 1
    for i in range(len(radices) - 1, -1, -1):
        strides[i] = acc
        acc *= radices[i]
    total = acc

    dtype = {1: "<u1", 2: "<u2", 4: "<u4"}[width]
    pa = _pack(group, a, strides, total, dtype)
    pb = pa if b == a else _pack(group, b, strides, total, dtype)
    raw = (pa * pb).to_bytes(total * width, "little")
    arr = np.frombuffer(raw, dtype=dtype).astype(np.int64).reshape(radices)

    for axis, mi in enumerate(group.orders):
        if mi == 1:
            continue
        head = arr[(slice(None),) * axis + (slice(0, mi),)]
        tail = arr[(slice(None),) * axis + (slice(mi, 2 * mi - 1),)]
        head[(slice(None),) * axis + (slice(0, mi - 1),)] += tail
        arr = head
    return arr.reshape(group.order)


def rep_profile_fast(a: GroupSubset, b: GroupSubset | None = None) -> "RepProfile":
    """Exact R_{A,B} via packed multiplication."""
    if b is None:
        b = a
    if b.group != a.group:
        raise GroupMismatchError("profile of subsets of different groups")
    return RepProfile(a.group, tuple(_convolve_packed(a, b).tolist()))


def rep_profile(
    a: GroupSubset,
    b: GroupSubset | None = None,
    *,
    method: str = "auto",
    cross_check: bool = False,
) -> "RepProfile":
    """Dispatch between the exact routes.  method: auto | naive | fast.

    auto predicts each engine's cost in integer arithmetic and runs the
    cheaper.  Pair enumeration costs |A|*|B| times the number of cyclic
    factors, or times one when every order is a power of two (the lane-wise
    add of flat indices), plus a pass over the group per chunk of pairs.
    Packing costs a Karatsuba multiply of its buffer: prod(2*m_i - 1) slots
    of the slot width in bytes, three half-size products per doubling.
    Sparse sets such as Singer sets therefore enumerate pairs, as do groups
    whose packed buffer blows up (Z_2^k); dense sets in cyclic or few-factor
    groups are packed.  cross_check recomputes through the other route and
    compares.
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
        raise VerificationError("pair enumeration and packed convolution disagree")
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
