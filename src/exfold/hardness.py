"""Instance generators and weakly-parsimonious counting verifiers for the
hardness chain: 3-dimensional matching -> 4-PARTITION -> stacking-count
strands.

The 3DM -> 4-PARTITION step uses a carry-free radix encoding.  The
parsimony verifiers trust no weight: they recount both sides exactly, by
exhaustive searches memoised on what the rest of the search depends on, and
check the predicted multiplicative factor.  Both recounts skip work without
rounding: a 4-PARTITION anchor's last partner is bisected and a run of equal
weights counted at once; the stack search keys the G runs that touch no C
by the sorted lengths of their free blocks, enters equally long ones once,
and packs each state's histogram into one int no count can overflow.  The
chain route for strands beyond enumeration places only chains of two or
more stacked pairs, as vectors of chain counts by length, and takes the
single pairs left over from the closed-form matching count.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod

from .strands import DEFAULT_BPS_ENUM_BUDGET, BudgetExceeded, InvalidInput

CHAIN_CACHE_SIZE = 64  # run-length profiles whose chain packings are kept
BPS_MEMO_STATES = 1 << 18  # matching states count_bps_brute may memoise
CHAIN_MEMO_STATES = 1 << 15  # placement states count_bps_chains may memoise
BPS_STRAND_BASES = 1 << 16  # longest strand gen_bps_from_4part builds
THREEDM_BUDGET = 6  # |X| that count_3dm_brute searches


def _json_fields(text: str, kind: str, names: tuple[str, ...]) -> list:
    """The named fields of a JSON object, in order; ``InvalidInput`` names
    the first missing field."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise InvalidInput(f"a {kind} instance is a JSON object, not a {type(d).__name__}")
    for name in names:
        if name not in d:
            raise InvalidInput(f"{kind} instance has no field {name!r}")
    return [d[name] for name in names]


def _json_list(value, kind: str, name: str, item_ok, items: str) -> list:
    if not isinstance(value, list) or not all(item_ok(v) for v in value):
        raise InvalidInput(f"{kind} field {name!r} must be a list of {items}")
    return value


def _scalar(value) -> bool:
    return not isinstance(value, (list, dict))


def _json_int(value, kind: str, name: str) -> int:
    """An integer or integer string; a float may already have lost digits
    and a fraction is no weight, so both are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise InvalidInput(f"{kind} field {name!r} holds {value!r}, not an integer")


# ---------------------------------------------------------------------------
# #3DM


@dataclass(frozen=True)
class ThreeDMInstance:
    x: tuple
    y: tuple
    z: tuple
    triples: tuple

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "triples", tuple(tuple(t) for t in self.triples))
        if not (len(self.x) == len(self.y) == len(self.z)):
            raise InvalidInput("X, Y, Z must have equal sizes")
        if any(len(set(axis)) != len(axis) for axis in (self.x, self.y, self.z)):
            raise InvalidInput("element sets contain duplicates")
        if len(set(self.triples)) != len(self.triples):
            raise InvalidInput("triples must be distinct")
        for t in self.triples:
            if len(t) != 3 or t[0] not in self.x or t[1] not in self.y or t[2] not in self.z:
                raise InvalidInput(f"triple {t} is not in X x Y x Z")

    def occurrences(self, axis: int, element) -> int:
        """Number of triples with ``element`` in the given coordinate."""
        return sum(1 for t in self.triples if t[axis] == element)

    def to_json(self) -> str:
        return json.dumps({
            "x": list(self.x), "y": list(self.y), "z": list(self.z),
            "triples": [list(t) for t in self.triples],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ThreeDMInstance":
        names = ("x", "y", "z", "triples")
        *axes, triples = _json_fields(text, "3DM", names)
        x, y, z = (tuple(_json_list(v, "3DM", name, _scalar, "scalars"))
                   for name, v in zip(names, axes))
        _json_list(triples, "3DM", "triples",
                   lambda t: isinstance(t, list) and all(map(_scalar, t)),
                   "lists of scalars")
        return cls(x, y, z, tuple(tuple(t) for t in triples))


def count_3dm_brute(inst: ThreeDMInstance) -> int:
    """Perfect matchings by exhaustive search; the empty instance has one."""
    if len(inst.x) > THREEDM_BUDGET:
        raise BudgetExceeded(f"|X| = {len(inst.x)} exceeds the 3DM budget {THREEDM_BUDGET}")
    order = list(inst.x)

    def rec(idx: int, used_y: frozenset, used_z: frozenset) -> int:
        if idx == len(order):
            return 1
        return sum(rec(idx + 1, used_y | {ty}, used_z | {tz}) for tx, ty, tz in inst.triples
                   if tx == order[idx] and ty not in used_y and tz not in used_z)

    return rec(0, frozenset(), frozenset())


# ---------------------------------------------------------------------------
# #4-PARTITION


@dataclass(frozen=True)
class FourPartitionInstance:
    weights: tuple
    bound: int

    def __post_init__(self):
        kind = "4-PARTITION"
        object.__setattr__(self, "weights",
                           tuple(_json_int(w, kind, "weights") for w in self.weights))
        object.__setattr__(self, "bound", _json_int(self.bound, kind, "bound"))
        k, bound = len(self.weights), self.bound
        if k % 4 != 0:
            raise InvalidInput("the number of elements must be a multiple of 4")
        if bound <= 0:
            raise InvalidInput("bound must be positive")
        for w in self.weights:
            if not (bound < 5 * w and 3 * w < bound):
                raise InvalidInput(
                    f"weight {w} is not strictly between {bound}/5 and {bound}/3")

    @property
    def k(self) -> int:
        return len(self.weights)

    def balanced(self) -> bool:
        """Total weight matches bound * k/4; anything else has no solution."""
        return sum(self.weights) == self.bound * (self.k // 4)

    def to_json(self) -> str:
        return json.dumps({
            "weights": [str(w) for w in self.weights],
            "bound": str(self.bound),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FourPartitionInstance":
        weights, bound = _json_fields(text, "4-PARTITION", ("weights", "bound"))
        return cls(tuple(_json_list(weights, "4-PARTITION", "weights", _scalar, "scalars")),
                   bound)


def count_4part_brute(inst: FourPartitionInstance, budget: int = 20) -> int:
    """Partitions into unordered 4-tuples, each summing to the bound.

    Memoised on the sorted tuple of the remaining weights, since the count
    depends only on that multiset.  The lowest remaining weight anchors each
    tuple, so a partition is counted once, and its partners are chosen by
    position, so equal weights still count as distinct elements.  Partner
    pairs are walked in order while the third can still be the largest; it
    is bisected, and a run of equal thirds counts once times its length,
    since equal weights at different positions leave the same remainder."""
    k = inst.k
    if k > budget:
        raise BudgetExceeded(f"k = {k} exceeds the 4-PARTITION budget {budget}")
    if not inst.balanced():
        return 0
    memo: dict[tuple, int] = {(): 1}

    def rec(remaining: tuple) -> int:
        hit = memo.get(remaining)
        if hit is not None:
            return hit
        need, rest = inst.bound - remaining[0], remaining[1:]
        total = 0
        for a in range(len(rest) - 2):
            for b in range(a + 1, len(rest) - 1):
                third = need - rest[a] - rest[b]
                if third < rest[b]:
                    break
                lo = bisect_left(rest, third, b + 1)
                hi = bisect_right(rest, third, lo)
                if hi > lo:
                    child = rest[:a] + rest[a + 1:b] + rest[b + 1:lo] + rest[lo + 1:]
                    total += (hi - lo) * rec(child)
        memo[remaining] = total
        return total

    return rec(tuple(sorted(inst.weights)))


# ---------------------------------------------------------------------------
# 3DM -> 4-PARTITION (radix construction)

_CANONICAL_ZERO = ((2, 2, 2, 2), 7)  # violates total = bound * k/4: no solution


@dataclass(frozen=True)
class FourPartitionConstruction:
    instance: FourPartitionInstance
    alpha: int
    degenerate: bool  # True when some element occurs in no triple


def gen_4part_from_3dm(inst: ThreeDMInstance) -> FourPartitionConstruction:
    """Garey-Johnson style weights in a carry-free radix.

    Digits (little-endian, base rho): class tag (u: 8, x: 1, y: 2, z: 4,
    tuple target 15 — the only 4-element multiset over those tags summing to
    15 is one of each); three index-matching digits pairing each u with its
    x, y, z; and an actual/dummy digit where first copies contribute (0,0,4)
    and later copies (1,1,2), so a 4 can only arise all-actual or all-dummy.
    A large constant offset puts every weight strictly inside
    (bound/5, bound/3).  alpha, the partitions per matching, is the product
    of the (N(a)-1)! arrangements of each element's dummy copies.

    When an element occurs in no triple there is no matching, but the plain
    construction could still admit partitions, so a canonical unsolvable
    instance is emitted instead (alpha 1, both counts zero).
    """
    q = len(inst.x)
    occurrences = {(axis, a): inst.occurrences(axis, a)
                   for axis, members in enumerate((inst.x, inst.y, inst.z))
                   for a in members}
    if q and min(occurrences.values()) == 0:
        return FourPartitionConstruction(FourPartitionInstance(*_CANONICAL_ZERO), 1, True)

    rho = 4 * q + 40
    offset = 10 * rho**5

    index = [{a: i + 1 for i, a in enumerate(axis)} for axis in (inst.x, inst.y, inst.z)]
    weights = [offset + 8 + sum((q - index[axis][a]) * rho ** (axis + 1) for axis, a in enumerate(t))
               for t in inst.triples]
    # x, y, z elements: tag 1, 2, 4; the actual/dummy digit of the first and later copies
    for axis, (tag, first, later) in enumerate(((1, 0, 1), (2, 0, 1), (4, 4, 2))):
        for a, i in index[axis].items():
            weights += [offset + tag + i * rho ** (axis + 1) + d4 * rho**4
                        for d4 in [first] + [later] * (occurrences[(axis, a)] - 1)]
    bound = 4 * offset + 15 + q * rho + q * rho**2 + q * rho**3 + 4 * rho**4

    alpha = prod(factorial(count - 1) for count in occurrences.values())
    return FourPartitionConstruction(FourPartitionInstance(tuple(weights), bound), alpha, False)


# ---------------------------------------------------------------------------
# 4-PARTITION -> stacking-count strand


@dataclass(frozen=True)
class BPSInstance:
    strand: str
    target_stacks: int

    def to_json(self) -> str:
        return json.dumps({"strand": self.strand,
                           "target_stacks": self.target_stacks}, sort_keys=True)


def gen_bps_from_4part(inst: FourPartitionInstance) -> BPSInstance:
    """One C-run per element, A separators, then k/4 G-runs of the bound's
    length; the stacking target is met exactly when the C-runs pack into the
    G-runs group-by-group.

    Rejects instances whose total weight falls short of the G capacity:
    slack lets structures hit the target without encoding any partition,
    which would break the counting relation.  A strand longer than
    ``BPS_STRAND_BASES`` raises ``BudgetExceeded`` before it is built.
    """
    total = sum(inst.weights)
    groups = inst.k // 4
    if total < inst.bound * groups:
        raise InvalidInput(
            "total weight below bound * k/4: G-side slack breaks the "
            "stacking correspondence")
    length = total + max(inst.k - 1, 0) + 3 + groups * inst.bound + max(groups - 1, 0)
    if length > BPS_STRAND_BASES:
        raise BudgetExceeded(f"{length} strand bases exceed the budget {BPS_STRAND_BASES}")
    strand = ("A".join("C" * w for w in inst.weights)
              + "AAA"
              + "A".join("G" * inst.bound for _ in range(groups)))
    return BPSInstance(strand, total - inst.k)


# ---------------------------------------------------------------------------
# counting structures by stack count


def _cg_positions(strand: str) -> tuple[list, list]:
    if any(b in "TU" for b in strand):
        raise InvalidInput("stack counting expects strands over A, C, G only")
    return tuple([i for i, b in enumerate(strand, 1) if b == x] for x in "CG")


def count_bps_brute(strand: str, target: int,
                    budget: int = DEFAULT_BPS_ENUM_BUDGET) -> int:
    """Exact count of structures (pseudoknots allowed) with the given number
    of stacks, by exhausting C-G matchings with incremental stack tracking.

    The C's are paired in order, each with nothing or any unused G.  Pairing
    C ``c`` with G ``g`` gains a stack if ``c-1`` pairs ``g+1`` and one if
    ``c+1`` pairs ``g-1``.  The memo key is ``idx``, the used G's of runs
    that touch a C, the partners of ``cpos[idx]-1`` and of the G's next to
    ``cpos[idx:]``, and the sorted lengths of the blocks of free, consecutive
    G's in the open runs, which touch no C.  There a stack only pairs
    consecutive C's with consecutive free G's, so blocks of equal length are
    interchangeable, and equal keys have equal futures once an open partner
    ``p`` of ``cpos[idx]-1`` is keyed as the length of the block topped by
    ``p-1``, the one block its stack can extend.  A state tries each G by a C
    or in that block, and, once for all, times their number, the G's at one
    offset in the other open blocks of one length L, or at offsets o and L-1-o
    unless the next C is ``c+1`` (whose mark is the offset): their children
    have equal keys and gain no stack.  Each state's completions are a
    histogram by stacks gained, packed into one int with slots as wide as the
    matching count ``_matchings``, which bounds every entry, so no slot
    carries into the next.  Past ``BPS_MEMO_STATES`` states the search raises
    ``BudgetExceeded``; it keeps the block shapes of at most as many masks.
    The default pairable-base budget stays far below."""
    cpos, gpos = _cg_positions(strand)
    if len(cpos) + len(gpos) > budget:
        raise BudgetExceeded(
            f"{len(cpos)} + {len(gpos)} pairable bases exceed the budget {budget}")
    gmask = sum(1 << g for g in gpos)  # bit g for the G at position g
    open_g = sum(((1 << len(m[0])) - 1) << (m.start() + 1) for m in re.finditer("G+", strand)
                 if "C" not in strand[max(m.start() - 1, 0):m.end() + 1])
    watched = [sorted({p for c in cpos[idx:] for p in (c - 1, c + 1)
                       if gmask >> p & 1} - {cpos[idx] - 1}) for idx in range(len(cpos))]
    width = _matchings(len(cpos), len(gpos)).bit_length()
    partner: list = [None] * (len(strand) + 2)
    memo: dict[tuple, int] = {}
    shape = lru_cache(BPS_MEMO_STATES)(  # the free blocks, as sorted runs of 1's
        lambda bits: tuple(sorted(f"{bits:b}".replace("0", " ").split())))

    def rec(idx: int, used: int) -> int:
        if idx == len(cpos):
            return 1
        c, avail = cpos[idx], gmask & ~used
        mark = top = partner[c - 1]
        if mark is not None and open_g >> mark & 1:  # -(length of the block topped by mark-1)
            mark = (~avail & (1 << mark) - 1).bit_length() - mark or None
        key = (idx, used & ~open_g, shape(avail & open_g), mark)
        if watched[idx]:
            key += tuple(map(partner.__getitem__, watched[idx]))
        hit = memo.get(key)
        if hit is not None:
            return hit
        free = avail & ~open_g | ((1 << top) - (1 << top + mark) if mark and mark < 0 else 0)
        hist, rest, blocks = rec(idx + 1, used), avail ^ free, {}  # c stays unpaired
        while free:  # one child per G by a C or in the block under mark, lowest first
            bit = free & -free
            g, free = bit.bit_length() - 1, free ^ bit
            gained = (partner[c - 1] == g + 1) + (partner[c + 1] == g - 1)
            partner[c], partner[g] = g, c
            hist += rec(idx + 1, used | bit) << width * gained
            partner[c] = partner[g] = None
        while rest:  # drop the lowest block, block ^ rest; length -> [first's lowest G, count]
            low, rest, block = (rest & -rest).bit_length() - 1, rest & rest + (rest & -rest), rest
            blocks.setdefault((block ^ rest).bit_length() - low, [low, 0])[1] += 1
        fold = cpos[idx + 1:idx + 2] != [c + 1]  # else the next mark reads g's offset
        for size, (low, k) in blocks.items():  # one child per offset (mirror pair if fold)
            for g in range(low, low + size - fold * (size // 2)):  # none gains a stack
                partner[c], partner[g] = g, c
                hist += (k << (fold and 2 * (g - low) + 1 < size)) * rec(idx + 1, used | 1 << g)
                partner[c] = partner[g] = None
        if len(memo) == BPS_MEMO_STATES:
            raise BudgetExceeded(
                f"stack counting needs more than {BPS_MEMO_STATES} matching states")
        memo[key] = hist
        return hist

    return (rec(0, 0) >> width * target) & ((1 << width) - 1) if target >= 0 else 0


def count_bps_chains(strand: str, target: int) -> int:
    """Exact count of structures with the given stack count.

    A matching with a chosen subset of its stacks splits uniquely into
    "chains" of two or more pairs glued by the chosen stacks (consecutive
    C's paired to consecutive G's in reverse) and an arbitrary matching of
    the bases the chains leave, so single pairs come from the closed-form
    ``_matchings``.  Summing x**(pairs - chains) over these splits gives
    sum_M (1+x)**stacks(M), and a binomial inversion isolates each exact
    stack count.  Exact only when no stack can straddle a C/G boundary: at
    most one directly adjacent C/G run pair (generated instances separate
    every run with A's).  The chain multisets grow faster than any
    polynomial in min(#C, #G): past ``CHAIN_MEMO_STATES`` placement states
    it raises ``BudgetExceeded``.
    """
    cpos, gpos = _cg_positions(strand)
    if not cpos or not gpos:
        return 1 if target == 0 else 0
    mixed = sum(1 for a, b in zip(strand, strand[1:]) if {a, b} == {"C", "G"})
    if mixed > 1:
        raise InvalidInput(
            "chain counting is exact only with at most one adjacent C/G "
            f"run boundary; this strand has {mixed}")
    q = _chain_packings(*(tuple(map(len, re.findall(f"{b}+", strand))) for b in "CG"))
    if target < 0:
        return 0
    return sum((-1) ** (s - target) * comb(s, target) * qs
               for s, qs in q if s >= target)


@lru_cache(maxsize=CHAIN_CACHE_SIZE)
def _chain_packings(c_runs: tuple, g_runs: tuple) -> tuple[tuple[int, int], ...]:
    """(s, number of matchings with s chosen stacks) pairs: the coefficients
    of sum_M (1+x)**stacks(M).

    A chain multiset is a count vector whose entry i counts the chains of
    i + 2 pairs.  Kept for the last CHAIN_CACHE_SIZE run-length profiles, so
    that every stack target of one strand shares them; the (runs, vector)
    memo lives for one call, so a process that counts many strands holds
    bounded memory."""
    c, g = sum(c_runs), sum(g_runs)
    room = min(c, g)
    cap = tuple(room // size for size in range(2, min(max(c_runs), max(g_runs)) + 1))
    memo: dict[tuple, int] = {}
    q: dict[int, int] = {}
    for lam in _sub_vectors(cap, room):
        n_c = _placements(c_runs, lam, memo)
        n_g = n_c and _placements(g_runs, lam, memo)  # G states only where C runs hold lam
        if n_g:
            pairs = sum(k * size for size, k in enumerate(lam, 2))
            s = pairs - sum(lam)
            q[s] = q.get(s, 0) + (n_c * n_g * prod(map(factorial, lam))
                                  * _matchings(c - pairs, g - pairs))
    return tuple(q.items())


def _placements(runs: tuple, lam: tuple, memo: dict) -> int:
    """Ways to choose disjoint intervals with chain count vector ``lam``
    across the given runs, memoised in ``memo`` on (runs, lam).  The r
    intervals a run takes, covering ``used`` of its L bases, are ordered in
    r!/prod k_i! ways and spread over its gaps in C(L - used + r, r)."""
    if not any(lam):
        return 1
    if not runs:
        return 0
    total = memo.get((runs, lam))
    if total is None:
        total = 0
        for sub in _sub_vectors(lam, runs[0]):
            r = sum(sub)
            used = sum(k * size for size, k in enumerate(sub, 2))
            rest = tuple(a - b for a, b in zip(lam, sub))
            total += (factorial(r) // prod(map(factorial, sub))
                      * comb(runs[0] - used + r, r) * _placements(runs[1:], rest, memo))
        if len(memo) == CHAIN_MEMO_STATES:
            raise BudgetExceeded(f"chain counting exceeds {CHAIN_MEMO_STATES} placement states")
        memo[(runs, lam)] = total
    return total


def _sub_vectors(cap: tuple, room: int):
    """Chain count vectors at most ``cap`` entrywise whose pairs fit in
    ``room`` bases."""
    if not cap:
        yield ()
        return
    size = len(cap) + 1  # pairs in a chain the last entry counts
    for take in range(min(cap[-1], room // size) + 1):
        for rest in _sub_vectors(cap[:-1], room - take * size):
            yield rest + (take,)


def _matchings(c: int, g: int) -> int:
    """C-G matchings of c C's and g G's, crossings allowed:
    sum_p C(c,p) C(g,p) p!."""
    return sum(comb(c, p) * comb(g, p) * factorial(p) for p in range(min(c, g) + 1))


def count_bps_auto(strand: str, target: int,
                   budget: int = DEFAULT_BPS_ENUM_BUDGET) -> tuple[int, str]:
    """Enumeration when affordable, chain counting otherwise."""
    cpos, gpos = _cg_positions(strand)
    if len(cpos) + len(gpos) <= budget:
        return count_bps_brute(strand, target, budget), "enumeration"
    return count_bps_chains(strand, target), "chain-count"


# ---------------------------------------------------------------------------
# parsimony verifiers


@dataclass(frozen=True)
class ParsimonyReport:
    status: str  # "ok" | "mismatch" | "skipped"
    lhs: object = None
    rhs: object = None
    coefficient: object = None
    route: str = ""
    notes: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> str:
        nums = {"lhs": self.lhs, "rhs": self.rhs, "coefficient": self.coefficient}
        return json.dumps({"status": self.status, "route": self.route, "notes": self.notes,
                           **{k: None if v is None else str(v) for k, v in nums.items()}},
                          sort_keys=True)


def verify_parsimony_bps(inst: FourPartitionInstance,
                         enum_budget: int = DEFAULT_BPS_ENUM_BUDGET) -> ParsimonyReport:
    """Structures at the stacking target == partitions * (k/4)! * (4!)**(k/4)."""
    coeff = factorial(inst.k // 4) * factorial(4) ** (inst.k // 4)
    try:
        bps = gen_bps_from_4part(inst)
        partitions = count_4part_brute(inst)
        lhs, route = count_bps_auto(bps.strand, bps.target_stacks, enum_budget)
    except BudgetExceeded as exc:
        return ParsimonyReport("skipped", coefficient=coeff, notes=str(exc))
    rhs = coeff * partitions
    status = "ok" if lhs == rhs else "mismatch"
    return ParsimonyReport(status, lhs, rhs, coeff, route,
                           notes=f"target_stacks={bps.target_stacks}")


def verify_parsimony_4part(inst: ThreeDMInstance,
                           partition_budget: int = 20) -> ParsimonyReport:
    """Partitions of the generated instance == alpha * perfect matchings."""
    built = gen_4part_from_3dm(inst)
    try:
        matchings = count_3dm_brute(inst)
        partitions = count_4part_brute(built.instance, partition_budget)
    except BudgetExceeded as exc:
        return ParsimonyReport("skipped", coefficient=built.alpha, notes=str(exc))
    rhs = built.alpha * matchings
    status = "ok" if partitions == rhs else "mismatch"
    notes = "degenerate zero-occurrence fallback" if built.degenerate else ""
    return ParsimonyReport(status, partitions, rhs, built.alpha, "enumeration", notes)
