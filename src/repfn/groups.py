"""Finite abelian groups as products of cyclic factors, plus dense subsets.

A group is a tuple of cyclic orders (m_1, ..., m_k); elements are flat
indices 0..m-1 in row-major mixed radix (the last factor varies fastest).
A subset is one read-only bool mask over those indices, and every map of
its members (negate, translate, dilate_shift) is one coordinate map: unravel
over Group.shape, u*c + t on each axis, ravel back with mode="wrap".
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np


class InvalidElementError(ValueError):
    """An element index or coordinate falls outside its group."""


class UnsupportedGroupError(ValueError):
    """The operation needs a cyclic group but got a multi-factor one."""


class GroupMismatchError(ValueError):
    """Two subsets that must live in the same group do not."""


class VerificationError(RuntimeError):
    """An internal exact self-check failed; indicates a bug, not bad input."""


def _exact_int(x, error: type[ValueError], what: str) -> int:
    """x as an int when it is one (an int, a numpy integer or an integral
    float); a value int() would truncate, round or parse raises error."""
    i = int(x)
    if i != x:
        raise error(f"{what} {x!r} is not an integer")
    return i


@dataclass(frozen=True)
class Group:
    """Direct product Z_{m_1} x ... x Z_{m_k} with flat element indices."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(_exact_int(x, ValueError, "cyclic order") for x in self.orders)
        if not orders:
            raise ValueError("a group needs at least one cyclic factor")
        if any(x < 1 for x in orders):
            raise ValueError(f"cyclic orders must be >= 1, got {orders}")
        object.__setattr__(self, "orders", orders)

    @classmethod
    def cyclic(cls, m: int) -> "Group":
        return cls((m,))

    @cached_property
    def order(self) -> int:
        n = 1
        for x in self.orders:
            n *= x
        return n

    @cached_property
    def shape(self) -> tuple[int, ...]:
        """The orders above 1, as the numpy shape of the flat indices: an
        order-1 factor has no coordinate and leaves the row-major flat index
        as it is, so any number of them fits numpy's 64 dimensions.  (1,)
        for the trivial group."""
        return tuple(mi for mi in self.orders if mi > 1) or (1,)

    @property
    def is_cyclic(self) -> bool:
        return len(self.orders) == 1

    def check_element(self, x: int) -> int:
        x = _exact_int(x, InvalidElementError, "index")
        if not 0 <= x < self.order:
            raise InvalidElementError(f"index {x} outside [0, {self.order})")
        return x

    def elements(self) -> range:
        return range(self.order)

    def decode(self, index: int) -> tuple[int, ...]:
        """Flat index -> coordinate tuple (row-major, last coordinate fastest).

        decode, encode, add and neg are public reference arithmetic, one
        element at a time: nothing in repfn calls them, since its engines
        work on whole arrays, and the tests check those array routes
        against them."""
        index = self.check_element(index)
        coords = []
        for mi in reversed(self.orders):
            index, r = divmod(index, mi)
            coords.append(r)
        return tuple(reversed(coords))

    def encode(self, coords: Sequence[int]) -> int:
        """Coordinate tuple -> flat index; inverse of decode.  Reference
        arithmetic, as decode says."""
        if len(coords) != len(self.orders):
            raise InvalidElementError(
                f"expected {len(self.orders)} coordinates, got {len(coords)}"
            )
        index = 0
        for c, mi in zip(coords, self.orders):
            c = _exact_int(c, InvalidElementError, "coordinate")
            if not 0 <= c < mi:
                raise InvalidElementError(f"coordinate {c} outside [0, {mi})")
            index = index * mi + c
        return index

    def add(self, x: int, y: int) -> int:
        """Coordinate-wise sum mod each factor, as a flat index.  Reference
        arithmetic, as decode says."""
        if self.is_cyclic:
            return (self.check_element(x) + self.check_element(y)) % self.orders[0]
        cx = self.decode(x)
        cy = self.decode(y)
        return self.encode([(a + b) % mi for a, b, mi in zip(cx, cy, self.orders)])

    def neg(self, x: int) -> int:
        """Coordinate-wise negation mod each factor, as a flat index.
        Reference arithmetic, as decode says."""
        if self.is_cyclic:
            return (-self.check_element(x)) % self.orders[0]
        return self.encode([(-c) % mi for c, mi in zip(self.decode(x), self.orders)])


@dataclass(frozen=True, eq=False)
class GroupSubset:
    """Immutable dense subset of a group.  mask, the one store, is a 1-D bool array of the
    group's order, True at each member, kept read-only, not copied; anything else is refused."""

    group: Group
    mask: np.ndarray

    def __post_init__(self) -> None:
        m = self.mask
        if not (isinstance(m, np.ndarray) and m.dtype == bool and m.shape == (self.group.order,)):
            raise InvalidElementError("a subset needs a 1-D bool mask of the group's order")
        m.setflags(write=False)

    @classmethod
    def from_elements(cls, group: Group, elems: Iterable[int]) -> "GroupSubset":
        return cls._from_indices(group, [group.check_element(e) for e in elems])

    @classmethod
    def _from_indices(cls, group: Group, idx) -> "GroupSubset":
        """The subset at idx: flat indices checked to lie in the group, a bool array or a slice."""
        mask = _group_zeros(group, bool)
        mask[idx] = True
        return cls(group, mask)

    @classmethod
    def empty(cls, group: Group) -> "GroupSubset":
        return cls(group, _group_zeros(group, bool))

    @classmethod
    def full(cls, group: Group) -> "GroupSubset":
        return cls._from_indices(group, slice(None))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupSubset) and self.group == other.group and (
            np.array_equal(self.mask, other.mask))

    def __hash__(self) -> int:
        return hash((self.group, self.mask.tobytes()))

    @cached_property
    def card(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __len__(self) -> int:
        return self.card

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.group.order and bool(self.mask[operator.index(x)])

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def elements(self) -> list[int]:
        """Member indices in ascending order."""
        return np.flatnonzero(self.mask).tolist()

    def union(self, other: "GroupSubset") -> "GroupSubset":
        if other.group != self.group:
            raise GroupMismatchError("union of subsets of different groups")
        return GroupSubset(self.group, self.mask | other.mask)

    __or__ = union

    def _image(self, target: Group, u: int, t: Sequence[int]) -> "GroupSubset":
        """{u*a + t} in target: coordinates c over group.shape go to u*c + t_c, reduced
        by ravel's wrap over target.shape; linear in |A| * factors, 2^16 members at a time."""
        wide = abs(u) * self.group.order + max(t) >= 2**63  # past int64: exact Python ints
        members, mask = np.flatnonzero(self.mask), _group_zeros(target, bool)
        for lo in range(0, members.size, 1 << 16):  # holds 2^16 * factors coordinates
            coords = np.unravel_index(members[lo : lo + (1 << 16)], self.group.shape)
            image = [((u * c.astype(object) + tc) % mi).astype(np.int64) if wide else u * c + tc
                     for c, tc, mi in zip(coords, t, target.shape)]
            mask[np.ravel_multi_index(image, target.shape, mode="wrap")] = True
        return GroupSubset(target, mask)

    def negate(self) -> "GroupSubset":
        """The pointwise negation {-a : a in A}; a bijective image of A."""
        return self._image(self.group, -1, (0,) * len(self.group.shape))

    def translate(self, t: int) -> "GroupSubset":
        """The shift {a + t : a in A}."""
        g = self.group
        return self._image(g, 1, np.unravel_index(g.check_element(t), g.shape))

    def dilate_shift(self, c: int, t: int, target: Group) -> "GroupSubset":
        """Map each member b, via its representative in [0, s), to (c*b + t) mod m.
        Source and target must both be cyclic; the canonical representative
        pins down what "double then reduce" means when s does not divide m."""
        if not self.group.is_cyclic or not target.is_cyclic:
            raise UnsupportedGroupError("dilate_shift needs cyclic source and target")
        c = _exact_int(c, ValueError, "multiplier")
        return self._image(target, c % target.order, (target.check_element(t),))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"orders": list(self.group.orders), "elements": self.elements()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_text(self) -> str:
        lines = ["orders " + " ".join(str(mi) for mi in self.group.orders)]
        lines.extend(str(e) for e in self.elements())
        return "\n".join(lines) + "\n"


def _group_zeros(group: Group, dtype) -> np.ndarray:
    """A zero array over the group's flat indices; MemoryError, naming the
    order, where there is no room for it."""
    try:
        return np.zeros(group.order, dtype=dtype)
    except (MemoryError, ValueError) as exc:
        # numpy refuses an order of 2^63 or more with a ValueError.
        raise MemoryError(f"a group of order {group.order} is too large to load") from exc


def _int_array(xs: list[int]) -> np.ndarray:
    """Plain ints as int64, or as exact Python ints when one needs more bits."""
    try:
        return np.array(xs, dtype=np.int64)
    except OverflowError:
        return np.array(xs, dtype=object)


def _check_range(group: Group, xs: list[int], idx: np.ndarray) -> None:
    """Raise check_element's error for the first x outside the group, found
    in one pass over idx, the array of xs."""
    outside = (idx < 0) | (idx >= group.order)
    if outside.any():
        group.check_element(xs[int(outside.argmax())])


def subset_from_json_dict(data: dict) -> GroupSubset:
    """Parse the JSON set format; extra keys are ignored so report documents
    that embed a set round-trip unchanged.  orders and elements must be lists
    of JSON integers; floats, strings and booleans are rejected."""
    try:
        orders = data["orders"]
        elems = data["elements"]
    except (KeyError, TypeError) as exc:
        raise ValueError("set document needs 'orders' and 'elements'") from exc
    # Exact integers only: int() would truncate 7.9, read "123" as digits
    # and true as 1, silently changing the set.
    if not (isinstance(orders, list) and isinstance(elems, list)) or not set(
        map(type, orders + elems)
    ) <= {int}:
        raise ValueError("'orders' and 'elements' must be JSON lists of integers")
    group = Group(tuple(orders))
    idx = _int_array(elems)
    if (idx[1:] <= idx[:-1]).any():
        raise ValueError("element indices must be strictly increasing")
    _check_range(group, elems, idx)
    return GroupSubset._from_indices(group, idx)


def _decimal(tok: str) -> int:
    """A plain decimal integer: ASCII digits after an optional '-'."""
    digits = tok[1:] if tok.startswith("-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a plain decimal integer: {tok!r}")
    return int(tok)


def subset_from_text(text: str) -> GroupSubset:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split()[0] != "orders":
        raise ValueError("text set format needs a leading 'orders m1 m2 ...' line")
    orders = tuple(_decimal(tok) for tok in lines[0].split()[1:])
    group = Group(orders)
    elems = [_decimal(ln) for ln in lines[1:]]
    if len(set(elems)) != len(elems):
        raise ValueError("duplicate element index in set file")
    return GroupSubset.from_elements(group, elems)


def parse_subset(text: str) -> GroupSubset:
    """Sniff JSON vs text set format and parse accordingly."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON set file: {exc}") from exc
        return subset_from_json_dict(data)
    return subset_from_text(text)


def read_subset(path: str) -> GroupSubset:
    """The set in the file at path, decoded as strict UTF-8 whatever the locale."""
    with open(path, "rb") as fh:
        return parse_subset(fh.read().decode("utf-8"))
