"""Perfect difference sets in Z_{p^2+p+1} from the degree-3 extension of GF(p).

For a prime p, powers of a primitive element of GF(p^3) whose coordinate on
x^2 vanishes give a (p+1)-element set D with R_{D,-D}(t) = 1 for every
t != 0.  All field arithmetic is done on coefficient triples mod p; the
construction is deterministic, picking the lexicographically least monic
irreducible cubic and the least primitive element under it.  The x^2
coordinates of alpha^i over one period obey a linear recurrence of order 3,
which is evaluated in baby-step/giant-step blocks by one exact int64 matrix
product rather than one step per exponent.
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
    # Schoolbook product, degree <= 4.
    w = [0] * 5
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                w[i + j] = (w[i + j] + ui * vj) % p
    # Reduce with x^3 = -(a*x^2 + b*x + c), top degree first.
    for d in (4, 3):
        t = w[d]
        if t:
            w[d] = 0
            w[d - 1] = (w[d - 1] - a * t) % p
            w[d - 2] = (w[d - 2] - b * t) % p
            w[d - 3] = (w[d - 3] - c * t) % p
    return (w[0], w[1], w[2])


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


def _x2_recurrence(ctx: FieldCtx) -> tuple[int, int, int]:
    """(t, s, d) such that the x^2 coordinate c_i of alpha^i obeys
    c_{i+3} = t*c_{i+2} - s*c_{i+1} + d*c_i (mod p).

    Multiplication by alpha is a linear map M of GF(p)^3; by Cayley-Hamilton
    M^3 = t*M^2 - s*M + d*I with t, s, d the trace, the sum of principal 2x2
    minors and the determinant of M, and every coordinate of M^i * 1 obeys
    the same recurrence.
    """
    cols = [field_mul(ctx, ctx.primitive, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = cols
    t = m00 + m11 + m22
    s = m00 * m11 - m01 * m10 + m00 * m22 - m02 * m20 + m11 * m22 - m12 * m21
    d = (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )
    return t % ctx.p, s % ctx.p, d % ctx.p


def singer_set(p: int) -> PerfectDifferenceSet:
    """Build the perfect difference set for the prime p <= DEFAULT_PRIME_BOUND
    and verify it.

    Decides alpha^i for i in [0, n): scaling by alpha^n multiplies an element
    by a nonzero scalar of the base field, which preserves vanishing of the
    x^2 coordinate, so every membership class is decided inside one period.
    The x^2 coordinates over that period come from _x2_coordinates, one
    exact int64 product of baby-step and giant-step blocks, and the set is
    then re-checked by pair enumeration.  The result is immutable, so it is
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

    With S_j = (c_j, c_{j+1}, c_{j+2}) and C the companion matrix of the
    recurrence, S_{j+1} = C*S_j, so c_{kB+j} = u_k . S_j with u_k the first
    row of C^{kB}.  Baby steps: the recurrence run from S_0 gives S_j for
    j < B = isqrt(n - 1) + 1.  Giant steps: u_{k+1} = u_k*C^B for
    k < K = ceil(n/B), where column i of C^B is the state B steps after the
    i-th unit vector.  Every entry of the (K x 3) @ (3 x B) product is at
    most 3(p - 1)^2 < 2^63 for any p whose n fits in memory, so it is exact.
    """
    p = ctx.p
    t, s, d = _x2_recurrence(ctx)
    b = isqrt(n - 1) + 1

    def run(c0: int, c1: int, c2: int) -> list[int]:
        """c_0 .. c_{b+2} of the sequence that starts (c0, c1, c2)."""
        seq = [c0, c1, c2]
        for _ in range(b):
            c0, c1, c2 = c1, c2, (t * c2 - s * c1 + d * c0) % p
            seq.append(c2)
        return seq

    # x^2 coordinates of alpha^0, alpha^1 and alpha^2.
    baby = run(0, ctx.primitive[2], field_mul(ctx, ctx.primitive, ctx.primitive)[2])
    states = np.array([baby[0:b], baby[1 : b + 1], baby[2 : b + 2]], dtype=np.int64)
    jump = [run(*e)[b : b + 3] for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    rows = [(1, 0, 0)]
    for _ in range(-(-n // b) - 1):
        u = rows[-1]
        rows.append(tuple((u[0] * x + u[1] * y + u[2] * z) % p for x, y, z in jump))
    return (np.array(rows, dtype=np.int64) @ states % p).ravel()[:n]


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
