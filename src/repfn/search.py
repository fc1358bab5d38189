"""Search for additive bases of Z_m with a small maximum representation count.

Both paths keep their counters in _Slots, the one slot layout of this
module: every count in a fixed-width slot of one int, tested by whole-word
arithmetic and updated by one flip rule: toggling e in a 0/1 slot set S,
S' = S ^ bit(e), changes S's ordered pair counts by rot(S + S', e).  No
search subclasses it; each builds its own.  The exact path is
_exact_search, one function over one layout: a depth-first branch and bound
over subsets of Z_m on four counters (members, their representation counts,
available elements and their pair counts), with a lazy
coverage-infeasibility prune; it can prove UNSAT.  It splits the space by
differences.  Case U: some difference b - a in A is a unit u, and
x -> u^-1(x - a) maps A onto a set containing {0, 1} with the same
spectrum, so {0, 1} is fixed.  Case N: every difference in A is a
non-unit; 0 is fixed by translation and an element with a unit difference
to a member is never included.  UNSAT needs both cases drained.  The
heuristic path is _local_search, a seeded local search on two counters
(members and representation counts), run `threads` times in turn with the
best find passed from run to run, the first run's best being B_m, a basis of
at most 2*ceil(sqrt(m)) - 1 members.  Each run is one loop that holds its
state in locals; a rejected move leaves it as it is and every element is
drawn from getrandbits.  Its counts are at most |A|, since R_A(g) counts
members a with g - a in A, so each run builds its own _Slots at the width
its sets need, not the width m needs, and packs again at twice the cap
once |A| is at the cap and a move would add an element.  It only ever
claims verified upper bounds.  Every SAT or heuristic result carries a
certificate re-checked through the pair-enumeration profile, never through
the search's own counters.  No clock enters a search: each outcome is a
function of its arguments alone, and work is counted in nodes or moves.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from math import gcd, isqrt
from typing import Iterable

from .bounds import ceil_sqrt
from .groups import Group, GroupSubset, VerificationError, _group_zeros
from .profiles import rep_profile_naive
from .singer import DEFAULT_PRIME_BOUND, is_prime, singer_set

DEFAULT_NODE_BUDGET = 200_000
DEFAULT_MOVES = 20_000
_RESTART_EVERY = 400


class SearchStatus(str, Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    EXHAUSTED = "EXHAUSTED"


def _check_args(m: int, r: int, budget: int, unit: str) -> None:
    if m < 1:
        raise ValueError("modulus m must be at least 1")
    if r < 1:
        raise ValueError("target cap r must be at least 1")
    if budget < 1:
        raise ValueError(f"{unit} budget must be positive")


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
    ok = int(profile.array.min()) >= 1 and profile.max_rep <= claimed_r
    return SearchCertificate(m, tuple(subset.elements()), claimed_r, ok)


@dataclass(frozen=True)
class SearchOutcome:
    status: SearchStatus
    certificate: SearchCertificate | None
    nodes: int
    prunes: dict[str, int]
    notes: tuple[str, ...]


class _Slots:
    """Counts over Z_m packed in one int, the one slot layout of this
    module.  No search subclasses it: the exact search builds one at the
    width m needs, and each local-search run one at the width its sets
    need.  Slot g holds the count at g in
    w = (bound + 2).bit_length() + 1 bits, bound the largest count the
    caller stores; cap = 2^(w-1) - 3 is the largest bound of that width.
    No count (at most cap) or add-and-mask threshold (at most cap + 1)
    reaches a slot's top bit, so no carry crosses slots and every test on
    all of Z_m is one add and one mask.  With rot(X, e) moving slot x to
    x + e mod m, one flip rule updates the ordered pair counts of a set S
    (0/1 slots) when e goes in or out: with S' = S ^ bit(e), they change by
    exactly rot(S + S', e), added when e goes in and subtracted when it
    comes out.  For e not in S, S + S' = 2S + bit(e), whose rotation by e
    is the pairs (e, s) and (s, e) for s in S plus (e, e) at 2e; for e in
    S, S and S' swap roles."""

    def __init__(self, m: int, bound: int):
        self.m = m
        w = self.w = (bound + 2).bit_length() + 1
        self.cap = (1 << (w - 1)) - 3
        self.full = (1 << (w * m)) - 1
        ones = self.ones = self.full // ((1 << w) - 1)
        self.top = ones << (w - 1)
        self.cover_add = ones * ((1 << (w - 1)) - 1)

    def rot(self, X: int, e: int) -> int:
        """X with slot x moved to slot x + e mod m, for 0 <= e < m."""
        w = self.w
        return ((X << (w * e)) | (X >> (w * (self.m - e)))) & self.full

    def flip(self, S: int, e: int) -> tuple[int, int]:
        """(S', rot(S + S', e)) for S' = S ^ bit(e): S with e toggled and
        the change of its pair counts by the flip rule.  The searches'
        hot loops inline these lines."""
        S2 = S ^ (1 << (self.w * e))
        return S2, self.rot(S + S2, e)

    def pack(self, elements: Iterable[int]) -> tuple[int, int]:
        """(A, R) for a set: its indicator and its pair counts, built by the
        flip rule one element at a time."""
        A = R = 0
        for e in elements:
            A, D = self.flip(A, e)
            R += D
        return A, R

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

    def excess(self, R: int, r: int) -> int:
        """sum of max(0, R[g] - r), for 0 <= r <= cap: slot g of Y is
        R[g] - r under its top bit where R[g] >= r, so masking the rest
        leaves the terms, which are summed one bit plane at a time."""
        w, ones = self.w, self.ones
        Y = R + ones * ((1 << (w - 1)) - r)
        hit = Y & self.top
        Y &= hit - (hit >> (w - 1))
        return sum((Y & (ones << k)).bit_count() << k for k in range(w - 1))

    def decode(self, X: int) -> tuple[int, ...]:
        w, mask = self.w, (1 << self.w) - 1
        return tuple((X >> (w * g)) & mask for g in range(self.m))


def _exact_search(
    m: int, r: int, node_budget: int, stack=list
) -> tuple[bool | None, list[int] | None, int, list[int], int, dict[str, int]]:
    """DFS over subsets of Z_m in ascending element order, include branch
    first, on four counters in one _Slots layout: A (member indicator), R
    (its representation counts), V (available indicator: at the node for e,
    the members, all below e, and every x >= e) and P (ordered pairs of V
    summing to g).  Both branches take the flip rule of _Slots: including e
    gives A' = A ^ bit(e) and R + rot(A + A', e), excluding it gives
    V' = V ^ bit(e) and P - rot(V + V', e).  steps[e] is the per-depth
    table (w·e, w·(m - e), bit(e)), built once.  The DFS is one loop: a
    node whose exclude branch is still to come waits as (e, A, R, P, V) on
    a stack made by stack(), so undo is a pop and no depth limit applies to
    m; a test passes a stack that checks each node pushed.

    The whole-word checks equal checks on the touched slots alone.  Every
    node on the path has all R[g] <= r, so an include is a max_rep prune iff
    some new slot of R exceeds r.  No node on the path has a g with
    P[g] = R[g] = 0 (true at the root, kept by includes, pruned on
    excludes), so an exclude is a coverage prune iff a slot of P | R is 0.

    The space is split by differences, and the two cases are drained in
    turn on one node counter and budget.  Case U: some difference b - a in
    A is a unit u; then x -> u^-1(x - a) maps A onto a set containing
    {0, 1} with R_{phi A}(u^-1(g - 2a)) = R_A(g), so the DFS starts at
    e = 2 on the members {0, 1}, every element still available.
    Case N: every difference in A is a non-unit; 0 is fixed by translation
    and the include of e is barred when A & rot(Units, e) != 0, i.e. when
    e - a is a unit for some member a (units are closed under negation).  A
    barred e still takes the exclude branch, so P keeps its meaning.

    Returns (found, witness, nodes, case_nodes, barred, prunes): found is
    True at a basis, whose members are the witness, False once both cases
    are drained and None past the node budget; case_nodes counts each case."""
    # No count exceeds m, and the largest threshold is the cap r.
    lay = _Slots(m, max(m, r))
    w, full, ones, top, cover_add = lay.w, lay.full, lay.ones, lay.top, lay.cover_add
    cap_add = cover_add - ones * r
    # Each node is one element deeper than the node it came from, and the
    # roots start at e <= 2, so node n has e <= n + 1; a node past the
    # budget stops before it reads steps.
    steps = [(w * e, w * (m - e), 1 << (w * e)) for e in range(min(m, node_budget + 2))]
    nodes = barred = max_rep = coverage = 0
    case_nodes = [0, 0]
    witness: list[int] | None = None
    found: bool | None = False
    # (case, e, A, R): case U from the members {0, 1}, whose root takes
    # the max_rep test, then case N from {0}.
    roots = []
    if m > 1:
        A, R = lay.pack((0, 1))
        if (R + cap_add) & top:
            max_rep += 1
        else:
            roots.append((0, 2, A, R))
    roots.append((1, 1, 1, 1))
    for case, e, A, R in roots:
        # In case N, e is barred if it has a unit difference to a member.
        units = case and sum(1 << (w * x) for x in range(m) if gcd(x, m) == 1)
        P, V = m * ones, ones
        start = nodes
        waiting = stack()
        push, pop = waiting.append, waiting.pop
        while True:
            nodes += 1
            if nodes > node_budget:
                found = None
                break
            if (R + cover_add) & top == top:
                witness = [x for x, a in enumerate(lay.decode(A)) if a]
                found = True
                break
            if e < m:
                # Include branch first; the exclude branch waits on the
                # stack.
                push((e, A, R, P, V))
                we, wme, bit = steps[e]
                # Every member is below e, so of rot(units, e) only the
                # slots that wrap past m can meet A; units is 0 in case U.
                if units and A & (units >> wme):
                    barred += 1
                else:
                    A2 = A ^ bit
                    T = A + A2
                    R2 = R + (((T << we) | (T >> wme)) & full)
                    if (R2 + cap_add) & top:
                        max_rep += 1
                    else:
                        e, A, R = e + 1, A2, R2
                        continue
            # Take the exclude branch of the deepest waiting node that
            # passes the coverage test; none left means drained.
            while waiting:
                e, A, R, P, V = pop()
                we, wme, bit = steps[e]
                V2 = V ^ bit
                T = V + V2
                P2 = P - (((T << we) | (T >> wme)) & full)
                if ((P2 | R) + cover_add) & top == top:
                    e, P, V = e + 1, P2, V2
                    break
                coverage += 1
            else:
                break
        case_nodes[case] = nodes - start
        if found is not False:
            break
    return found, witness, nodes, case_nodes, barred, {"max_rep": max_rep, "coverage": coverage}


_RUN_STATUS = {True: SearchStatus.SAT, False: SearchStatus.UNSAT, None: SearchStatus.EXHAUSTED}


def exists_basis(
    m: int,
    r: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Exact decision: does Z_m admit an additive basis with max count <= r.

    The space is split by differences (see _exact_search): case U, where some
    difference in A is a unit and A is mapped onto a set containing {0, 1},
    then case N, where every difference is a non-unit.  UNSAT is only
    returned after both symmetry-reduced cases are fully drained; running
    out of budget in either yields EXHAUSTED instead.  The notes give each
    case's argument and the nodes it took.  node_budget caps the visited
    nodes, and is the only stop, so the outcome is a function of
    (m, r, node_budget) alone.
    """
    _check_args(m, r, node_budget, "node")
    found, witness, nodes, (nodes_u, nodes_n), barred, prunes = _exact_search(m, r, node_budget)
    cert = None
    status = _RUN_STATUS[found]
    notes = [
        "case U: some difference b - a in A is a unit u; x -> u^-1(x - a) maps A "
        "onto a set containing {0, 1} and R_{phiA}(u^-1(g - 2a)) = R_A(g), so 0 "
        f"and 1 are fixed in A; took {nodes_u} nodes",
        "case N: every difference in A is a non-unit; translation fixes 0 in A "
        "(translating a basis preserves its spectrum) and includes with a unit "
        "difference to a member are barred; "
        + (
            f"took {nodes_n} nodes, {barred} includes barred"
            if nodes_n
            else "not searched"
        ),
    ]
    if status is SearchStatus.EXHAUSTED:
        notes.append("budget exhausted before both cases were drained")
    if status is SearchStatus.SAT:
        cert = make_certificate(m, witness, r)
        if not cert.verified:
            raise VerificationError("witness failed the independent re-check")
    return SearchOutcome(status, cert, nodes, prunes, tuple(notes))


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

    @property
    def exact(self) -> bool:
        return self.value is not None


def ruzsa_number(
    m: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RuzsaResult:
    """Least r such that Z_m has an additive basis with max count <= r.

    Probes r = 1, 2, ... with the exact search; the full group is a basis
    with max count m, so the loop always terminates by r = m.  Each probe
    gets node_budget nodes.  If a probe exhausts its budget the result
    degrades to a bracket, never to a guess; its upper end comes from the
    seed-0 heuristic, so the result is a function of (m, node_budget) alone.
    """
    if m < 1:
        raise ValueError("modulus m must be at least 1")
    prev_unsat: SearchOutcome | None = None
    probes: list[tuple[int, SearchStatus]] = []
    nodes = 0
    for r in range(1, m + 1):
        out = exists_basis(m, r, node_budget=node_budget)
        probes.append((r, out.status))
        nodes += out.nodes
        if out.status is SearchStatus.SAT:
            return RuzsaResult(m, r, r, r, out.certificate, prev_unsat, tuple(probes), nodes)
        if out.status is SearchStatus.UNSAT:
            prev_unsat = out
            continue
        # Budget ran out at this r: bracket with a heuristic upper bound.
        heur = heuristic_upper_bound(m, m, moves=min(node_budget, DEFAULT_MOVES))
        hi_cert = heur.certificate
        hi = hi_cert.claimed_r
        if hi < r:
            raise VerificationError("certified upper bound contradicts an UNSAT proof")
        return RuzsaResult(m, None, r, hi, hi_cert, prev_unsat, tuple(probes), nodes)
    raise VerificationError("the full group must be found as a basis by r = m")


# -- heuristic local search --------------------------------------------------


def _seed_pool(m: int) -> list[tuple[int, ...] | None]:
    """Restart seeds: None means a fresh random draw; when m has the
    perfect-difference-set order p^2 + p + 1 the set itself is seeded too."""
    pool: list[tuple[int, ...] | None] = [None]
    # m = p^2 + p + 1 exactly when 4m - 3 = (2p + 1)^2.
    s = isqrt(4 * m - 3)
    p = s // 2
    if s * s == 4 * m - 3 and p <= DEFAULT_PRIME_BOUND and is_prime(p):
        pool.append(tuple(singer_set(p).elements))
    return pool


def _local_search(
    m: int,
    r: int,
    pool: list[tuple[int, ...] | None],
    moves: int,
    rng: random.Random,
    best: tuple[tuple[int, int, int, int], tuple[int, ...]],
) -> tuple[tuple[int, int, int, int], tuple[int, ...]]:
    """One run: a hill-climb with sideways moves over the lexicographic
    objective (uncovered, max count, excess over r, |A|), moves moves from
    rng, restarting at the next seed of pool every _RESTART_EVERY of them
    and starting at the first.  best is (objective, members) of the least
    objective found so far, and the run returns it with each find of a
    lesser one.

    The move state, two slot-packed ints A (member indicator) and R
    (representation counts) plus the sorted member list that out-moves draw
    from, lives in locals: a restart builds it from its seed, and only an
    accepted move replaces it, so a rejected move changes nothing.
    Elements are drawn by getrandbits exactly as CPython's rng.choice and
    rng.randrange draw them, so the call sequence is theirs.  Both the take
    and the put of a move are the flip rule of _Slots, with bit(e) and the
    shifts made per move, since a table of them for every e of a large m
    costs more memory than the moves save.  Each objective term is a
    whole-word test or count, and the terms past uncovered are taken only
    for moves that leave no more elements uncovered than the current
    objective; once nothing is uncovered, that test is one mask and compare.

    A and R are packed at the width the run's sets need, not the width m
    needs.  Every count is at most |A|, since R_A(g) = #{a in A : g - a in
    A}, and |A| stays near sqrt(2m), so the run starts at the _Slots width
    for its largest restart seed and widens only when it must: when |A| is
    at the layout's cap and a move puts an element in without taking one
    out, A and R are packed again from the members, for a bound of twice
    the cap, before the move is made.  Swaps keep |A| and every seed fits
    the starting width, so no count outgrows its slot, and the widening
    draws nothing from the rng.  The excess term is taken only when the max
    count exceeds r, so there r < max count <= |A| <= cap."""
    km = m.bit_length()
    size = max(1, min(m, ceil_sqrt(2 * m)))
    lay = _Slots(m, max([size, *(len(b) for b in pool if b is not None)]))
    w, full, ones, top, cover_add, cap = lay.w, lay.full, lay.ones, lay.top, lay.cover_add, lay.cap
    wm = w * m
    random_, getrandbits = rng.random, rng.getrandbits
    for step in range(moves):
        if step % _RESTART_EVERY == 0:
            base = pool[step // _RESTART_EVERY % len(pool)]
            if base is None:
                base = rng.sample(range(m), size)
            A, R = lay.pack(base)
            flags = bytearray(m)
            for e in base:
                flags[e] = 1
            members = sorted(base)
            card = len(members)
            peak = lay.max_rep(R, 0)
            cur = (m - ((R + cover_add) & top).bit_count(), peak,
                   lay.excess(R, r) if peak > r else 0, card)
            if cur < best[0]:
                best = (cur, tuple(members))
        roll = random_()
        # A swap takes out_e out and puts in_e in; add and remove do
        # one each.
        if card == 0:
            take, put = False, True
        elif card == m:
            take, put = True, False
        elif cur[0]:
            # add below 0.6, swap below 0.9, else remove
            take, put = roll >= 0.6, roll < 0.9
        else:
            # remove below 0.4, swap below 0.9, else add
            take, put = roll < 0.9, roll >= 0.4
        if card == cap and put and not take:
            # An add past the cap: widen for the rest of the run.
            lay = _Slots(m, 2 * cap)
            w, full, ones, top, cover_add, cap = lay.w, lay.full, lay.ones, lay.top, lay.cover_add, lay.cap
            wm = w * m
            A, R = lay.pack(members)
        # Draws as rng.choice(members) and rng.randrange(m) make them:
        # getrandbits(n.bit_length()) until the value is below n.
        A2, R2, card2 = A, R, card
        if take:
            k = card.bit_length()
            i = getrandbits(k)
            while i >= card:
                i = getrandbits(k)
            out_e = members[i]
            # The flip rule, inlined: take out_e out of A2.
            we = w * out_e
            A1, A2 = A2, A2 ^ (1 << we)
            T = A1 + A2
            R2 -= ((T << we) | (T >> (wm - we))) & full
            card2 -= 1
        if put:
            while True:
                in_e = getrandbits(km)
                while in_e >= m:
                    in_e = getrandbits(km)
                if not flags[in_e]:
                    break
            # The flip rule, inlined: put in_e into A2.
            we = w * in_e
            A1, A2 = A2, A2 ^ (1 << we)
            T = A1 + A2
            R2 += ((T << we) | (T >> (wm - we))) & full
            card2 += 1
        # Slot g of C is R2[g] + 2^(w-1) - 1, whose top bit is set iff g
        # is covered.
        C = R2 + cover_add
        if cur[0]:
            uncovered = m - (C & top).bit_count()
            if uncovered > cur[0]:
                continue
        elif C & top == top:
            uncovered = 0
        else:
            continue
        # _Slots.max_rep, inlined on C: one move changes each slot by at
        # most 2, so the current max is a near guess.
        peak = cur[1]
        Y = C - ones * peak
        while Y & top:
            Y -= ones
            peak += 1
        while peak and not (Y + ones) & top:
            Y += ones
            peak -= 1
        cand = (uncovered, peak, lay.excess(R2, r) if peak > r else 0, card2)
        if cand > cur:
            continue
        A, R, card, cur = A2, R2, card2, cand
        if take:
            del members[bisect_left(members, out_e)]
            flags[out_e] = 0
        if put:
            insort(members, in_e)
            flags[in_e] = 1
        if cur < best[0]:
            best = (cur, tuple(members))
    return best


def _sqrt_basis(m: int, r: int) -> tuple[tuple[int, int, int, int], tuple[int, ...]]:
    """(objective, members) of B_m = [0, s) | {0, s, 2s, ...} below m, for
    s = ceil(sqrt(m)), in _local_search's objective
    (uncovered, max count, excess over r, |A|).

    B_m is a basis of Z_m: every 0 <= g < m is (g mod s) + floor(g/s)*s,
    the first term in [0, s) and the second a multiple of s below m.  It
    has |B_m| <= s + ceil(m/s) - 1 <= 2s - 1 members, 0 being in both
    parts, and its cap is at most |B_m|, since in R(g) = #{a in B_m :
    g - a in B_m} each a pairs with at most one b.  Its mask is built by two
    slice assignments, so a modulus too large to load fails at once, and its
    counts come from the pair-enumeration profile, about 4m pairs."""
    group = Group.cyclic(m)
    s = ceil_sqrt(m)
    mask = _group_zeros(group, bool)
    mask[:s] = True
    mask[::s] = True
    subset = GroupSubset(group, mask)
    profile = rep_profile_naive(subset)
    peak, counts = profile.max_rep, profile.array
    excess = int((counts[counts > r] - r).sum()) if peak > r else 0
    return (0, peak, excess, subset.card), tuple(subset.elements())


def heuristic_upper_bound(
    m: int,
    r: int,
    *,
    moves: int = DEFAULT_MOVES,
    seed: int = 0,
    threads: int = 1,
) -> SearchOutcome:
    """Best verified basis certificate reachable within the move budget.

    Runs one local search `threads` times in turn, each run proposing
    `moves` moves from Random(f"{seed}/{w}") for w = 0, 1, ..., so the
    outcome is a function of (m, r, moves, seed, threads) alone.  The runs
    start from B_m of _sqrt_basis, and a find replaces the best only with a
    lesser objective, so the first find of the least objective below B_m's
    wins and B_m stands in when there is none.  A verified certificate with
    cap at most |B_m| <= 2*ceil(sqrt(m)) - 1 is always returned; the status
    is SAT when its cap meets r and EXHAUSTED otherwise.  UNSAT is never
    claimed.
    """
    _check_args(m, r, moves, "move")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    pool = _seed_pool(m)
    notes = ["restart seed pool: random draws" + ("" if len(pool) == 1 else " plus the perfect difference set")]

    best = _sqrt_basis(m, r)
    for w in range(threads):
        best = _local_search(m, r, pool, moves, random.Random(f"{seed}/{w}"), best)
    obj, elements = best
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
        tuple(notes),
    )
