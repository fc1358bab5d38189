"""Perfect difference sets in Z_{p^2+p+1} from the degree-3 extension of GF(p).

For a prime p, powers of a primitive element of GF(p^3) whose coordinate on
x^2 vanishes give a (p+1)-element set D with R_{D,-D}(t) = 1 for every
t != 0.  All field arithmetic is field_mul on coefficient triples mod p; the
construction is deterministic, picking the lexicographically least monic
irreducible cubic and the least primitive element under it.  The walk over
one period takes about 2*sqrt(n) products, baby steps and giant steps, and
gets every x^2 coordinate from them through one bilinear form Q by two exact
int64 matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .groups import Group, GroupSubset, VerificationError
from .profiles import rep_diff_profile

DEFAULT_PRIME_BOUND = 1000

Triple = tuple[int, int, int]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class FieldCtx:
    """GF(p^3) presented as GF(p)[x] mod a monic irreducible cubic.

    modulus stores (c, b, a, 1) for x^3 + a*x^2 + b*x + c, coefficients in
    ascending degree; elements are triples (c0, c1, c2) meaning
    c0 + c1*x + c2*x^2.
    """

    p: int
    modulus: tuple[int, int, int, int]
    primitive: Triple


def field_mul(ctx: FieldCtx, u: Triple, v: Triple) -> Triple:
    p = ctx.p
    c, b, a, _ = ctx.modulus
    u0, u1, u2 = u
    v0, v1, v2 = v
    # Schoolbook product w0..w4, then x^4 and x^3 reduced in turn by
    # x^3 = -(a*x^2 + b*x + c).  Python ints are exact, so each coefficient
    # is taken mod p once, at the end.
    w4 = u2 * v2
    w3 = u1 * v2 + u2 * v1 - a * w4
    w2 = u0 * v2 + u1 * v1 + u2 * v0 - b * w4 - a * w3
    w1 = u0 * v1 + u1 * v0 - c * w4 - b * w3
    w0 = u0 * v0 - c * w3
    return (w0 % p, w1 % p, w2 % p)


def field_pow(ctx: FieldCtx, u: Triple, e: int) -> Triple:
    acc: Triple = (1, 0, 0)
    base = u
    while e:
        if e & 1:
            acc = field_mul(ctx, acc, base)
        base = field_mul(ctx, base, base)
        e >>= 1
    return acc


def _least_irreducible_cubic(p: int) -> tuple[int, int, int, int]:
    """(c, b, a, 1) for the lexicographically least (a, b, c) making
    x^3 + a*x^2 + b*x + c irreducible.  A cubic over a field is irreducible
    iff it has no root, and it has one iff -c is a value of
    t^3 + a*t^2 + b*t, so each (a, b) takes one pass over t."""
    for a in range(p):
        for b in range(p):
            values = {((t + a) * t + b) * t % p for t in range(p)}
            for c in range(p):
                if -c % p not in values:
                    return (c, b, a, 1)
    raise VerificationError("no irreducible cubic found")


def _element_order_is_full(ctx: FieldCtx, u: Triple, factors: list[int]) -> bool:
    q = ctx.p**3 - 1
    for f in factors:
        if field_pow(ctx, u, q // f) == (1, 0, 0):
            return False
    return True


def field_ctx_build(p: int) -> FieldCtx:
    """Deterministic GF(p^3): least irreducible (a, b, c) lexicographically,
    then the least primitive triple ordered by (c2, c1, c0)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    chosen = _least_irreducible_cubic(p)
    ctx = FieldCtx(p, chosen, (0, 0, 0))
    factors = _prime_factors(p**3 - 1)
    # The triples with c1 = c2 = 0 form GF(p): their orders divide
    # p - 1 < p^3 - 1, so the scan starts at (0, 1, 0).
    for c2 in range(p):
        for c1 in range(0 if c2 else 1, p):
            for c0 in range(p):
                u = (c0, c1, c2)
                if _element_order_is_full(ctx, u, factors):
                    return FieldCtx(p, chosen, u)
    raise VerificationError("no primitive element found; field arithmetic is broken")


@dataclass(frozen=True)
class PerfectDifferenceSet:
    """D in Z_n, n = p^2 + p + 1, with every nonzero difference hit exactly once."""

    p: int
    n: int
    subset: GroupSubset

    @property
    def elements(self) -> list[int]:
        return self.subset.elements()


def singer_set(p: int) -> PerfectDifferenceSet:
    """Build the perfect difference set for the prime p <= DEFAULT_PRIME_BOUND
    and verify it.

    Decides alpha^i for i in [0, n): scaling by alpha^n multiplies an element
    by a nonzero scalar of the base field, which preserves vanishing of the
    x^2 coordinate, so every membership class is decided inside one period.
    The x^2 coordinates over that period come from _x2_coordinates, field_mul
    baby and giant steps joined by one bilinear form, and the set is then
    re-checked by pair enumeration.  The result is immutable, so it is
    built once per p and then shared.
    """
    # The bound comes first: is_prime is trial division, slow on a large p.
    if p > DEFAULT_PRIME_BOUND:
        raise ValueError(f"{p} exceeds the configured prime bound {DEFAULT_PRIME_BOUND}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _build_singer_set(p)


def _x2_coordinates(ctx: FieldCtx, n: int) -> np.ndarray:
    """The x^2 coordinate c_i of alpha^i, in [0, p), for i in [0, n).

    Baby steps alpha^j for j <= B = isqrt(n - 1) + 1 are field_mul products;
    those with j < B are the rows of S, and alpha^B steps the giant steps
    alpha^(kB) for k < K = ceil(n/B), the rows of G.  The x^2 coordinate of
    g*s is the bilinear form g Q s^T, with Q[a][b] the x^2 coordinate of
    x^(a+b), so c_{kB+j} is entry (k, j) of (G @ Q % p) @ S^T % p.  Every
    entry of G, Q and S lies in [0, p), and G @ Q is reduced mod p before the
    second product, so each entry of either int64 product is at most
    3(p - 1)^2 < 2^63 for any p whose n fits in memory: both are exact.
    """
    p = ctx.p
    b = isqrt(n - 1) + 1
    baby = [(1, 0, 0)]
    for _ in range(b):
        baby.append(field_mul(ctx, baby[-1], ctx.primitive))
    giant = [(1, 0, 0)]
    for _ in range(-(-n // b) - 1):
        giant.append(field_mul(ctx, giant[-1], baby[b]))
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    q = np.array([[field_mul(ctx, e, f)[2] for f in units] for e in units], dtype=np.int64)
    gq = np.array(giant, dtype=np.int64) @ q % p
    return (gq @ np.array(baby[:b], dtype=np.int64).T % p).ravel()[:n]


@lru_cache(maxsize=32)
def _build_singer_set(p: int) -> PerfectDifferenceSet:
    ctx = field_ctx_build(p)
    n = p * p + p + 1
    elems = np.flatnonzero(_x2_coordinates(ctx, n) == 0).tolist()
    subset = GroupSubset.from_elements(Group.cyclic(n), elems)
    if subset.card != p + 1:
        raise VerificationError(f"expected {p + 1} elements, built {subset.card}")
    diff = rep_diff_profile(subset)
    if diff[0] != p + 1 or diff.spectrum()[1] != n - 1:
        raise VerificationError("difference profile is not identically 1 off zero")
    return PerfectDifferenceSet(p, n, subset)
