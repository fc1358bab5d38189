"""Output checks for the benchmark, written without importing repfn.

Every check_* function takes a parsed CLI body and raises CheckFailed when
the output is wrong.  Profiles are recomputed by code of
this module: pair counting for sparse sets, a roll-and-add sum for small
dense groups, and an exact big-integer cyclic product for large cyclic
groups.  Nothing here rounds a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

import numpy as np


class CheckFailed(Exception):
    """The program's output is wrong."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- exact profiles ------------------------------------------------------------

_PAIR_LIMIT = 2_000_000


def _coords(orders: list[int], elems: np.ndarray) -> list[np.ndarray]:
    out = []
    rest = elems.astype(np.int64)
    for m in reversed(orders):
        out.append(rest % m)
        rest = rest // m
    return out[::-1]


def _by_pairs(orders, a, b) -> np.ndarray:
    ca, cb = _coords(orders, np.asarray(a)), _coords(orders, np.asarray(b))
    flat = np.zeros((len(a), len(b)), dtype=np.int64)
    for xa, xb, m in zip(ca, cb, orders):
        flat = flat * m + (xa[:, None] + xb[None, :]) % m
    return np.bincount(flat.ravel(), minlength=prod(orders))


def _by_bigint(n: int, a, b) -> np.ndarray:
    # One product of packed indicators, reduced mod 2^(8*w*n) - 1: a slot at
    # index i + j >= n wraps to i + j - n, which is the cyclic sum.  Every
    # count is at most min(|A|, |B|) < 256^w, so no slot carries into the next.
    w = next(w for w in (1, 2, 4) if 256**w > min(len(a), len(b)))

    def pack(elems) -> int:
        buf = bytearray(n * w)
        for e in elems:
            buf[e * w] = 1
        return int.from_bytes(buf, "little")

    bits = 8 * w * n
    full = pack(a) * pack(b)
    cyc = (full & ((1 << bits) - 1)) + (full >> bits)
    return np.frombuffer(cyc.to_bytes(n * w, "little"), dtype=f"<u{w}").astype(np.int64)


def _by_rolls(orders, a, b) -> np.ndarray:
    # R(g) = sum over b in B of 1_A(g - b): add one shifted copy of 1_A per b.
    ind = np.zeros(prod(orders), dtype=np.int64)
    ind[np.asarray(a, dtype=np.int64)] = 1
    ind = ind.reshape(orders)
    axes = tuple(range(len(orders)))
    acc = np.zeros_like(ind)
    for shift in zip(*(c.tolist() for c in _coords(orders, np.asarray(b)))):
        acc += np.roll(ind, shift, axis=axes)
    return acc.ravel()


def profile(orders: list[int], a: list[int], b: list[int]) -> list[int]:
    """Exact R_{A,B}(g) for every flat index g (row-major, last axis fastest)."""
    n = prod(orders)
    if not a or not b:
        counts = np.zeros(n, dtype=np.int64)
    elif len(a) * len(b) <= _PAIR_LIMIT:
        counts = _by_pairs(orders, a, b)
    elif len(orders) == 1:
        counts = _by_bigint(n, a, b)
    else:
        counts = _by_rolls(orders, a, b)
    return [int(c) for c in counts]


def negation(orders: list[int]) -> np.ndarray:
    """neg[g] is the flat index of -g."""
    flat = np.zeros(prod(orders), dtype=np.int64)
    for c, m in zip(_coords(orders, np.arange(prod(orders))), orders):
        flat = flat * m + (-c) % m
    return flat


def negate(orders: list[int], elems: list[int]) -> list[int]:
    return sorted(int(x) for x in negation(orders)[np.asarray(elems, dtype=np.int64)])


def histogram(counts: list[int]) -> dict[int, int]:
    hist: dict[int, int] = {}
    for c in counts:
        hist[c] = hist.get(c, 0) + 1
    return hist


def rational(x) -> Fraction:
    if isinstance(x, dict):
        return Fraction(x["num"], x["den"])
    require(isinstance(x, int) and not isinstance(x, bool), f"not an exact number: {x!r}")
    return Fraction(x)


# -- set documents -----------------------------------------------------------


def _set_of(body: dict, orders: list[int]) -> list[int]:
    require(body.get("orders") == orders, f"orders {body.get('orders')} != {orders}")
    elems = body["elements"]
    n = prod(orders)
    require(all(isinstance(e, int) and 0 <= e < n for e in elems), "element out of range")
    require(all(x < y for x, y in zip(elems, elems[1:])), "elements not strictly increasing")
    return elems


def check_singer(body: dict, p: int) -> None:
    n = p * p + p + 1
    elems = _set_of(body, [n])
    require(len(elems) == p + 1 and body["card"] == p + 1, "a Singer set has p + 1 elements")
    require(body["p"] == p and body["n"] == n, "wrong p or n")
    diffs = profile([n], elems, negate([n], elems))
    require(diffs[0] == p + 1 and all(c == 1 for c in diffs[1:]),
            "some nonzero difference does not occur exactly once")


def _doubled_set(body: dict, p: int) -> tuple[list[int], list[int], int]:
    n = p * p + p + 1
    m = 2 * n
    elems = _set_of(body, [m])
    require(body["m"] == m and body["card"] == len(elems), "wrong m or card")
    return elems, profile([m], elems, elems), m


def check_11b_scan(body: dict, p: int) -> None:
    elems, counts, m = _doubled_set(body, p)
    n = m // 2
    require(len(elems) == 2 * (p + 1) and max(counts) <= 4, "11b: |A| = 2(p+1), max <= 4")
    per_l = body["per_l"]
    half = (p * p - p) // 2
    require(len(per_l) == n, "11b: one scan row per shift")
    require(all(x_odd == half and s0 == x_odd + x_even for x_odd, x_even, s0 in per_l),
            "11b: x_odd = (p^2 - p)/2 for every shift")
    even_total = sum(row[1] for row in per_l)
    require(even_total == half * half, "11b: even counts sum to ((p^2 - p)/2)^2")
    require(rational(body["avg_even"]) == Fraction(even_total, n), "11b: avg_even = sum / n")
    require(body["x_odd"] == half, "11b: reported x_odd")
    zeros = counts.count(0)
    require(body["best_s0"] == zeros, "11b: best_s0 differs from the recomputed zero count")
    require(8 * zeros < 3 * m, "11b: best_s0 < 3m/8")
    require(per_l[body["best_l"]][2] == zeros, "11b: best_l row disagrees with best_s0")


def check_11b_shift(body: dict, p: int, l: int) -> None:
    elems, counts, m = _doubled_set(body, p)
    require(body["l"] == l, "11b: wrong shift echoed")
    require(len(elems) == 2 * (p + 1) and max(counts) <= 4, "11b: |A| = 2(p+1), max <= 4")
    odd_zeros = sum(1 for g in range(1, m, 2) if counts[g] == 0)
    require(odd_zeros == (p * p - p) // 2, "11b: x_odd = (p^2 - p)/2")
    require(sum(1 for e in elems if e % 2) == p + 1, "11b: half the elements are odd")


def check_12b(body: dict, p: int) -> None:
    n = p * p + p + 1
    elems = _set_of(body, [n])
    require(body["m"] == n and len(elems) == p + 1 == body["card"], "12b: |A| = p + 1 in Z_n")
    counts = profile([n], elems, elems)
    require(max(counts) <= 2 and histogram(counts).get(2, 0) == (n - 1) // 2,
            "12b: |S_2| = (m - 1)/2")
    require(body["s2"] == (n - 1) // 2, "12b: reported s2")


def check_13b(body: dict, p: int) -> None:
    elems, counts, m = _doubled_set(body, p)
    require(len(elems) == 2 * (p + 1) and max(counts) <= 4, "13b: |A| = 2(p+1), max <= 4")
    require(histogram(counts).get(4, 0) == m // 2 - 1, "13b: |S_4| = m/2 - 1")
    require(body["s4"] == m // 2 - 1, "13b: reported s4")


# -- spectrum / diff-profile -------------------------------------------------


def check_spectrum(body: dict, orders: list[int], elems: list[int], counts: list[int]) -> None:
    """counts: the benchmark's own R_{A,A}."""
    n = prod(orders)
    require(body["orders"] == orders and body["card"] == len(elems), "wrong orders or card")
    hist = {int(k): v for k, v in body["histogram"].items()}
    require(hist == histogram(counts), "histogram differs from the recomputed profile")
    require(sum(hist.values()) == n, "histogram does not sum to the group order")
    require(body["mass"] == len(elems) ** 2, "mass != |A|^2")
    require(body["max_rep"] == max(counts), "wrong max_rep")


def check_diff_profile(body: dict, orders: list[int], elems: list[int], counts: list[int]) -> None:
    """counts: the benchmark's own R_{A,-A}."""
    got = body["counts"]
    require(body["orders"] == orders and body["card"] == len(elems), "wrong orders or card")
    require(got == counts, "difference profile differs from the recomputed one")
    require(sum(got) == len(elems) ** 2 and got[0] == len(elems), "mass or R(0) wrong")
    arr = np.asarray(got)
    require(bool((arr == arr[negation(orders)]).all()), "R(g) != R(-g)")


# -- verify ---------------------------------------------------------------------

_SUITE_ALL = (
    ["LEMMA_QUADRATIC"] * 7
    + ["LEMMA_CARD", "T11A", "T12A", "T13A"]
    + ["EQ21", "EQ22", "EQ41", "EQ42", "LEMMA_QUADRATIC", "S4_CHAIN"]
)
_LOWER = {"LEMMA_QUADRATIC", "T11A", "EQ22", "EQ41"}
# These rhs values are outward-rounded enclosures of an irrational bound, so
# "holds" implies the rational comparison but not the other way round.
_ENCLOSED = {"T11A", "T12A", "T13A"}
_CAPS = {"T11A": 5, "T12A": 5, "T13A": 7, "EQ21": 5, "EQ42": 5, "S4_CHAIN": 7}


def check_verify(body: dict, trials: int) -> None:
    reports = body["reports"]
    require(body["counts"]["fails"] == 0, "a report fails")
    per_case: dict[str, list[dict]] = {}
    for rep in reports:
        per_case.setdefault(rep["case"], []).append(rep)
    require(len(per_case) == 9 + 2 * trials, f"expected {9 + 2 * trials} cases, got {len(per_case)}")
    tally = {"holds": 0, "fails": 0, "not-applicable": 0}
    for label, reps in per_case.items():
        require([r["claim_id"] for r in reps] == _SUITE_ALL, f"{label}: wrong report list")
        for r in reps:
            status, claim = r["status"], r["claim_id"]
            tally[status] += 1
            if status == "not-applicable":
                require(r["slack"] is None and r["extra"]["max_rep"] > _CAPS[claim],
                        f"{label} {claim}: not-applicable without a failed hypothesis")
                continue
            lhs, rhs = rational(r["lhs"]), rational(r["rhs"])
            slack = lhs - rhs if claim in _LOWER else rhs - lhs
            require(rational(r["slack"]) == slack, f"{label} {claim}: slack != signed lhs - rhs")
            require(r["holds"] == (status == "holds"), f"{label} {claim}: holds flag")
            if status == "holds":
                require(slack >= 0, f"{label} {claim}: holds with negative slack")
            elif claim not in _ENCLOSED:
                require(slack < 0, f"{label} {claim}: fails with nonnegative slack")
    require(tally == {
        "holds": body["counts"]["holds"],
        "fails": body["counts"]["fails"],
        "not-applicable": body["counts"]["not_applicable"],
    }, "status counts disagree with the reports")


# -- ruzsa ----------------------------------------------------------------------


def check_certificate(cert: dict, m: int, r: int) -> int:
    """Plain double loop: the set covers Z_m and no count exceeds the claimed
    cap, which is at most r.  Returns the claimed cap."""
    require(cert is not None and cert["orders"] == [m] and cert["verified"], "no verified certificate")
    elems = cert["elements"]
    require(all(isinstance(e, int) and 0 <= e < m for e in elems), "certificate element out of range")
    require(len(set(elems)) == len(elems), "repeated certificate element")
    counts = [0] * m
    for a in elems:
        for b in elems:
            counts[(a + b) % m] += 1
    cap = cert["claimed_r"]
    require(min(counts) >= 1, "certificate does not cover Z_m")
    require(max(counts) <= cap <= r, "certificate exceeds its claimed cap")
    return cap


def check_ruzsa_value(body: dict, m: int, value: int) -> None:
    require(body["status"] == "VALUE" and body["value"] == value, f"R_{m} should be {value}")
    require(body["lo"] == body["hi"] == value, "value bracket not closed")
    check_certificate(body["certificate"], m, value)
    for r, status in body["probes"]:
        require(status == ("SAT" if r >= value else "UNSAT"), f"probe r={r} says {status}")
    if body["unsat_record"] is not None:
        require(body["unsat_record"]["status"] == "UNSAT", "unsat record is not UNSAT")


def check_ruzsa_decision(body: dict, m: int, r: int, expected: str) -> None:
    require(body["m"] == m and body["r"] == r and body["status"] == expected,
            f"({m}, {r}) should be {expected}, got {body['status']}")
    if expected == "SAT":
        check_certificate(body["certificate"], m, r)
    else:
        require(body["certificate"] is None, "UNSAT with a certificate")


def check_heuristic(body: dict, m: int) -> int:
    require(body["m"] == m and body["status"] == "SAT", "heuristic did not return SAT")
    cap = check_certificate(body["certificate"], m, m)
    require(body["achieved_r"] == cap, "achieved_r differs from the certificate cap")
    return cap
