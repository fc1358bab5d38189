"""Search for additive bases of Z_m with a small maximum representation count.

Both paths keep their counters as slot-packed ints (profiles._Slots),
updated and tested by whole-word arithmetic.  The exact path is a
depth-first branch and bound over subsets of Z_m on three of them (members,
representation counts and pairs of still-available elements), with a lazy
coverage-infeasibility prune; it can prove UNSAT.  It splits the space by
differences.  Case U: some difference b - a in A is a unit u, and
x -> u^-1(x - a) maps A onto a set containing {0, 1} with the same
spectrum, so {0, 1} is fixed.  Case N: every difference in A is a
non-unit; 0 is fixed by translation and an element with a unit difference
to a member is never included.  UNSAT needs both cases drained.  The
heuristic path is a seeded local search on two (members and representation
counts), run by `threads` workers in turn; it only ever claims verified
upper bounds.  Every SAT or heuristic result carries a certificate
re-checked through the pair-enumeration profile, never through the
search's own counters.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Iterable

from .bounds import ceil_sqrt
from .groups import Group, GroupSubset, VerificationError
from .profiles import _Slots, rep_profile_naive
from .singer import DEFAULT_PRIME_BOUND, is_prime, singer_set

DEFAULT_NODE_BUDGET = 200_000
DEFAULT_MOVES = 20_000
_RESTART_EVERY = 400
_TIME_CHECK_MASK = 1023


class SearchStatus(str, Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    EXHAUSTED = "EXHAUSTED"


def _check_args(m: int, r: int, budget: int) -> None:
    if m < 1:
        raise ValueError("modulus m must be at least 1")
    if r < 1:
        raise ValueError("target cap r must be at least 1")
    if budget < 1:
        raise ValueError("node budget must be positive")


@dataclass(frozen=True)
class SearchCertificate:
    """A claimed basis of Z_m with max representation count <= claimed_r;
    verified is set only by the independent re-check."""

    m: int
    elements: tuple[int, ...]
    claimed_r: int
    verified: bool

    def subset(self) -> GroupSubset:
        return GroupSubset.from_elements(Group.cyclic(self.m), self.elements)


def make_certificate(m: int, elements: Iterable[int], claimed_r: int) -> SearchCertificate:
    """Re-check the basis property and the cap via the pair-enumeration
    profile."""
    subset = GroupSubset.from_elements(Group.cyclic(m), elements)
    profile = rep_profile_naive(subset)
    ok = all(c >= 1 for c in profile.counts) and profile.max_rep <= claimed_r
    return SearchCertificate(m, tuple(subset.elements()), claimed_r, ok)


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    certificate: SearchCertificate | None
    nodes: int
    prunes: dict[str, int]
    wall_time_s: float
    notes: tuple[str, ...]


class _BudgetExceeded(Exception):
    pass


class _ExactSearch(_Slots):
    """DFS over subsets of Z_m in ascending element order, include branch
    first, on three slot-packed ints: A (member indicator), R
    (representation counts) and P (ordered pairs of available elements
    summing to g; at the node for e these are the members, all below e, and
    every x >= e).  Including e gives R + 2·rot(A, e) + dbl(e) and
    excluding it P - 2·rot(A | above(e), e) - dbl(e), above(e) being the
    slots x > e.  Children get their ints as arguments, so undo is the
    caller keeping its own.

    The whole-word checks equal checks on the touched slots alone.  Every
    node on the path has all R[g] <= r, so an include is a max_rep prune iff
    some new slot of R exceeds r.  No node on the path has a g with
    P[g] = R[g] = 0 (true at the root, kept by includes, pruned on
    excludes), so an exclude is a coverage prune iff a slot of P | R is 0.

    The space is split by differences, and run() drains the two cases in
    turn on one node counter, budget and deadline.  Case U: some difference
    b - a in A is a unit u; then x -> u^-1(x - a) maps A onto a set
    containing {0, 1} with R_{phi A}(u^-1(g - 2a)) = R_A(g), so the DFS
    starts at e = 2 on the members [0, 1], every element still available.
    Case N: every difference in A is a non-unit; 0 is fixed by translation
    and the include of e is barred when A & rot(Units, e) != 0, i.e. when
    e - a is a unit for some member a (units are closed under negation).  A
    barred e still takes the exclude branch, so P keeps its meaning.  Both
    cases run through one _dfs, whose per-e bar mask (the last entry of
    steps[e]) is 0 in case U."""

    def __init__(self, m: int, r: int, node_budget: int, time_budget: float | None):
        # No count exceeds m, and the largest threshold is the cap r.
        super().__init__(m, max(m, r))
        self.node_budget = node_budget
        w, ones = self.w, self.ones
        self.cap_add = self.cover_add - ones * r
        self.steps = [
            self.step(e) + (ones >> (w * (e + 1)) << (w * (e + 1)), 0) for e in range(m)
        ]
        self.members = [0]
        self.nodes = 0
        self.case_nodes = [0, 0]
        self.barred = 0
        self.prunes = {"max_rep": 0, "coverage": 0}
        self.deadline = time.monotonic() + time_budget if time_budget is not None else None
        self.witness: list[int] | None = None

    def run(self) -> bool:
        """Case U, then case N; True as soon as either finds a basis."""
        m = self.m
        P = m * self.ones
        if m > 1:
            # The forced include of 1 into A = {0} takes the max_rep test.
            _, _, bit, dbl = self.step(1)
            R = 1 + 2 * bit + dbl
            if (R + self.cap_add) & self.top:
                self.prunes["max_rep"] += 1
            else:
                self.members = [0, 1]
                try:
                    if self._dfs(2, 1 | bit, R, P):
                        return True
                finally:
                    self.case_nodes[0] = self.nodes
        w = self.w
        units = sum(1 << (w * x) for x in range(m) if gcd(x, m) == 1)
        self.steps = [s[:5] + (self.rot(units, e),) for e, s in enumerate(self.steps)]
        self.members = [0]
        start = self.nodes
        try:
            return self._dfs(1, 1, 1, P)
        finally:
            self.case_nodes[1] = self.nodes - start

    def _dfs(self, e: int, A: int, R: int, P: int) -> bool:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _BudgetExceeded
        if (
            self.deadline is not None
            and (self.nodes & _TIME_CHECK_MASK) == 0
            and time.monotonic() > self.deadline
        ):
            raise _BudgetExceeded
        top, cover_add, members = self.top, self.cover_add, self.members
        if (R + cover_add) & top == top:
            self.witness = list(members)
            return True
        if e == self.m:
            return False

        # Include branch first.  In case N, e is barred if it has a unit
        # difference to a member.
        up, down, bit, dbl, above, bar = self.steps[e]
        if A & bar:
            self.barred += 1
        else:
            R2 = R + (((A << up) | (A >> down)) & self.full) + dbl
            if (R2 + self.cap_add) & top:
                self.prunes["max_rep"] += 1
            else:
                members.append(e)
                ok = self._dfs(e + 1, A | bit, R2, P)
                members.pop()
                if ok:
                    return True

        X = A | above
        P2 = P - (((X << up) | (X >> down)) & self.full) - dbl
        if ((P2 | R) + cover_add) & top != top:
            self.prunes["coverage"] += 1
            return False
        return self._dfs(e + 1, A, R, P2)


def exists_basis(
    m: int,
    r: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float | None = None,
) -> SearchOutcome:
    """Exact decision: does Z_m admit an additive basis with max count <= r.

    The space is split by differences (see _ExactSearch): case U, where some
    difference in A is a unit and A is mapped onto a set containing {0, 1},
    then case N, where every difference is a non-unit.  UNSAT is only
    returned after both symmetry-reduced cases are fully drained; running
    out of budget in either yields EXHAUSTED instead.  The notes give each
    case's argument and the nodes it took.  node_budget caps the visited
    nodes and time_budget (seconds) the wall time.
    """
    _check_args(m, r, node_budget)
    if time_budget is not None and time_budget <= 0:
        raise ValueError("time budget must be positive")
    t0 = time.monotonic()
    search = _ExactSearch(m, r, node_budget, time_budget)
    cert = None
    try:
        status = SearchStatus.SAT if search.run() else SearchStatus.UNSAT
    except _BudgetExceeded:
        status = SearchStatus.EXHAUSTED
    nodes_u, nodes_n = search.case_nodes
    notes = [
        "case U: some difference b - a in A is a unit u; x -> u^-1(x - a) maps A "
        "onto a set containing {0, 1} and R_{phiA}(u^-1(g - 2a)) = R_A(g), so 0 "
        f"and 1 are fixed in A; took {nodes_u} nodes",
        "case N: every difference in A is a non-unit; translation fixes 0 in A "
        "(translating a basis preserves its spectrum) and includes with a unit "
        "difference to a member are barred; "
        + (
            f"took {nodes_n} nodes, {search.barred} includes barred"
            if nodes_n
            else "not searched"
        ),
    ]
    if status is SearchStatus.EXHAUSTED:
        notes.append("budget exhausted before both cases were drained")
    if status is SearchStatus.SAT:
        cert = make_certificate(m, search.witness, r)
        if not cert.verified:
            raise VerificationError("witness failed the independent re-check")
    return SearchOutcome(
        status, cert, search.nodes, dict(search.prunes), time.monotonic() - t0, tuple(notes)
    )


@dataclass(frozen=True)
class RuzsaResult:
    """Outcome of the minimum-cap search for Z_m.

    value is set only when every probe below it proved UNSAT and the probe at
    it proved SAT; otherwise [lo, hi] brackets the answer (lo from UNSAT
    proofs, hi from a verified certificate).
    """

    m: int
    value: int | None
    lo: int
    hi: int
    certificate: SearchCertificate | None
    unsat_record: SearchOutcome | None
    probes: tuple[tuple[int, SearchStatus], ...]
    nodes: int
    wall_time_s: float

    @property
    def exact(self) -> bool:
        return self.value is not None


def ruzsa_number(
    m: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float | None = None,
) -> RuzsaResult:
    """Least r such that Z_m has an additive basis with max count <= r.

    Probes r = 1, 2, ... with the exact search; the full group is a basis
    with max count m, so the loop always terminates by r = m.  If a probe
    exhausts its budget the result degrades to a bracket, never to a guess.
    """
    if m < 1:
        raise ValueError("modulus m must be at least 1")
    t0 = time.monotonic()
    prev_unsat: SearchOutcome | None = None
    probes: list[tuple[int, SearchStatus]] = []
    nodes = 0
    for r in range(1, m + 1):
        out = exists_basis(m, r, node_budget=node_budget, time_budget=time_budget)
        probes.append((r, out.status))
        nodes += out.nodes
        if out.status is SearchStatus.SAT:
            return RuzsaResult(
                m, r, r, r, out.certificate, prev_unsat, tuple(probes), nodes,
                time.monotonic() - t0,
            )
        if out.status is SearchStatus.UNSAT:
            prev_unsat = out
            continue
        # Budget ran out at this r: bracket with a heuristic upper bound.
        heur = heuristic_upper_bound(m, m, moves=min(node_budget, DEFAULT_MOVES))
        hi_cert = heur.certificate
        hi = hi_cert.claimed_r if hi_cert is not None else m
        if hi < r:
            raise VerificationError("certified upper bound contradicts an UNSAT proof")
        return RuzsaResult(
            m, None, r, hi, hi_cert, prev_unsat, tuple(probes), nodes,
            time.monotonic() - t0,
        )
    raise VerificationError("the full group must be found as a basis by r = m")


# -- heuristic local search --------------------------------------------------


def _seed_pool(m: int) -> list[tuple[int, ...] | None]:
    """Restart seeds: None means a fresh random draw; when m has the
    perfect-difference-set order p^2 + p + 1 the set itself is seeded too."""
    pool: list[tuple[int, ...] | None] = [None]
    p = 1
    while p * p + p + 1 < m:
        p += 1
    if p * p + p + 1 == m and is_prime(p) and p <= DEFAULT_PRIME_BOUND:
        pool.append(tuple(singer_set(p).elements))
    return pool


class _LocalSearch(_Slots):
    """One worker: hill-climb with sideways moves and periodic restarts over
    the lexicographic objective (uncovered, max count, excess over r, |A|).

    The state is two slot-packed ints, A (member indicator) and R
    (representation counts), plus the sorted member list that rng.choice
    draws from.  Moves update them in place; a rejected move is undone by
    restoring the A and R saved before it and putting each moved element
    back in the member list.  The shift constants of each e are made per
    call, since a table of them for every e of a large m costs more memory
    than the moves save.  Each objective term is a whole-word test or count,
    and the terms past uncovered are taken only for moves that leave no more
    elements uncovered than the current objective."""

    def __init__(self, m: int, r: int, rng: random.Random, pool: list[tuple[int, ...] | None]):
        super().__init__(m, max(m, r))
        self.r = r
        self.rng = rng
        self.pool = pool
        self.restarts = 0
        self.A = self.R = 0
        self.members: list[int] = []
        self.best: tuple[tuple[int, int, int, int], tuple[int, ...]] | None = None

    def add(self, e: int) -> None:
        up, down, bit, dbl = self.step(e)
        A = self.A
        self.R += (((A << up) | (A >> down)) & self.full) + dbl
        self.A = A | bit
        insort(self.members, e)

    def remove(self, e: int) -> None:
        members = self.members
        del members[bisect_left(members, e)]
        up, down, bit, dbl = self.step(e)
        A = self.A = self.A ^ bit
        self.R -= (((A << up) | (A >> down)) & self.full) + dbl

    def _excess(self) -> int:
        """sum of max(0, R[g] - r): slot g of Y is R[g] - r under its top
        bit where R[g] >= r, so masking the rest leaves the terms, which are
        summed one bit plane at a time."""
        w, ones = self.w, self.ones
        Y = self.R + ones * ((1 << (w - 1)) - self.r)
        hit = Y & self.top
        Y &= hit - (hit >> (w - 1))
        return sum((Y & (ones << k)).bit_count() << k for k in range(w - 1))

    def _objective(self, uncovered: int, guess: int) -> tuple[int, int, int, int]:
        # One move changes each slot by at most 2, so the previous max is a
        # near guess.
        peak = self.max_rep(self.R, guess)
        return (uncovered, peak, self._excess() if peak > self.r else 0, len(self.members))

    def _restart(self) -> tuple[int, int, int, int]:
        base = self.pool[self.restarts % len(self.pool)]
        self.restarts += 1
        if base is None:
            size = max(1, min(self.m, ceil_sqrt(2 * self.m)))
            base = self.rng.sample(range(self.m), size)
        self.A = self.R = 0
        self.members = []
        for e in base:
            self.add(e)
        obj = self._objective(self.zeros(self.R), 0)
        self._record(obj)
        return obj

    def _record(self, obj: tuple[int, int, int, int]) -> None:
        if obj[0] == 0 and (self.best is None or obj < self.best[0]):
            self.best = (obj, tuple(self.members))

    def run(self, moves: int) -> None:
        cur = self._restart()
        rng = self.rng
        m, w = self.m, self.w
        add, remove = self.add, self.remove
        for step in range(moves):
            if step and step % _RESTART_EVERY == 0:
                cur = self._restart()
            members = self.members
            card = len(members)
            roll = rng.random()
            if card == 0:
                kind = "add"
            elif card == m:
                kind = "remove"
            elif cur[0] > 0:
                kind = "add" if roll < 0.6 else ("swap" if roll < 0.9 else "remove")
            else:
                kind = "remove" if roll < 0.4 else ("swap" if roll < 0.9 else "add")
            # A swap removes out_e and adds in_e; add and remove do one each.
            out_e = in_e = None
            if kind != "add":
                out_e = rng.choice(members)
            if kind != "remove":
                in_e = rng.randrange(m)
                while self.A >> (w * in_e) & 1:
                    in_e = rng.randrange(m)
            saved = self.A, self.R
            if out_e is not None:
                remove(out_e)
            if in_e is not None:
                add(in_e)
            uncovered = self.zeros(self.R)
            if uncovered <= cur[0] and (cand := self._objective(uncovered, cur[1])) <= cur:
                cur = cand
                self._record(cur)
            else:
                self.A, self.R = saved
                if in_e is not None:
                    del members[bisect_left(members, in_e)]
                if out_e is not None:
                    insort(members, out_e)


def heuristic_upper_bound(
    m: int,
    r: int,
    *,
    moves: int = DEFAULT_MOVES,
    seed: int = 0,
    threads: int = 1,
) -> SearchOutcome:
    """Best verified basis certificate reachable within the move budget.

    Runs `threads` workers one after another, each proposing `moves` moves,
    with seeds derived as Random(f"{seed}/{w}"), so the outcome is a
    deterministic function of (m, r, moves, seed, threads).  The full group
    is always considered, so a verified certificate (possibly the trivial
    one with max count m) is always returned; the status is SAT when its cap
    meets r and EXHAUSTED otherwise.  UNSAT is never claimed.
    """
    _check_args(m, r, moves)
    if threads < 1:
        raise ValueError("threads must be at least 1")
    t0 = time.monotonic()
    pool = _seed_pool(m)
    notes = ["restart seed pool: random draws" + ("" if len(pool) == 1 else " plus the perfect difference set")]

    # The full group has R(g) = m at every g, so its objective is closed form.
    full_obj = (0, m, m * max(0, m - r), m)
    # (objective, worker index) ordering makes the merge deterministic; the
    # full-group fallback ranks behind any worker's find of equal objective.
    best = (full_obj, threads, tuple(range(m)))

    for w in range(threads):
        worker = _LocalSearch(m, r, random.Random(f"{seed}/{w}"), pool)
        worker.run(moves)
        if worker.best is not None:
            cand = (worker.best[0], w, worker.best[1])
            if cand < best:
                best = cand

    obj, _, elements = best
    cert = make_certificate(m, elements, obj[1])
    if not cert.verified:
        raise VerificationError("heuristic winner failed the independent re-check")
    met = cert.claimed_r <= r
    notes.append(
        f"target cap r={r} {'met' if met else 'not reached'}; best verified cap {cert.claimed_r}"
    )
    return SearchOutcome(
        SearchStatus.SAT if met else SearchStatus.EXHAUSTED,
        cert,
        moves * threads,
        {},
        time.monotonic() - t0,
        tuple(notes),
    )
