"""Instance generators and weakly-parsimonious counting verifiers for the
hardness chain: 3-dimensional matching -> 4-PARTITION -> stacking-count
strands, plus the multi-strand pair-count verifier.

The 3DM -> 4-PARTITION step uses a carry-free radix encoding; the element
weights are never trusted on their own, the parsimony verifiers recount both
sides exactly and check the predicted multiplicative factor.  The recounts
are exhaustive searches memoised on what the rest of the search depends on:
``count_4part_brute`` on the multiset of the remaining weights, and
``count_bps_brute`` on the next C, the used G's and the partners of the
positions a later stack test reads.  A memo hit stands for the very
completions the plain search would walk again, so every count is the one
the plain search gives.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exactmath import factorial
from .strands import (
    BudgetExceeded,
    InvalidInput,
    StrandSystem,
    StructureSpace,
    enumerate_structures,
)

DEFAULT_BPS_ENUM_BUDGET = 16  # pairable bases (C's plus G's)
CHAIN_CACHE_SIZE = 64  # run-length profiles whose chain packings are kept


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
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InvalidInput(f"{kind} field {name!r} holds {value!r}, not an integer") from None


# ---------------------------------------------------------------------------
# #3DM


@dataclass(frozen=True)
class ThreeDMInstance:
    x: tuple
    y: tuple
    z: tuple
    triples: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))
        object.__setattr__(self, "z", tuple(self.z))
        object.__setattr__(self, "triples", tuple(tuple(t) for t in self.triples))
        if not (len(self.x) == len(self.y) == len(self.z)):
            raise InvalidInput("X, Y, Z must have equal sizes")
        if len(set(self.x)) != len(self.x) or len(set(self.y)) != len(self.y) \
                or len(set(self.z)) != len(self.z):
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


def count_3dm_brute(inst: ThreeDMInstance, budget: int = 6) -> int:
    """Perfect matchings by exhaustive search; the empty instance has one."""
    if len(inst.x) > budget:
        raise BudgetExceeded(f"|X| = {len(inst.x)} exceeds the 3DM budget {budget}")
    order = list(inst.x)

    def rec(idx: int, used_y: frozenset, used_z: frozenset) -> int:
        if idx == len(order):
            return 1
        x = order[idx]
        total = 0
        for (tx, ty, tz) in inst.triples:
            if tx == x and ty not in used_y and tz not in used_z:
                total += rec(idx + 1, used_y | {ty}, used_z | {tz})
        return total

    return rec(0, frozenset(), frozenset())


# ---------------------------------------------------------------------------
# #4-PARTITION


@dataclass(frozen=True)
class FourPartitionInstance:
    weights: tuple
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        object.__setattr__(self, "bound", int(self.bound))
        k, bound = len(self.weights), self.bound
        if k % 4 != 0:
            raise InvalidInput("the number of elements must be a multiple of 4")
        if bound <= 0:
            raise InvalidInput("bound must be positive")
        for w in self.weights:
            if not (Fraction(bound, 5) < w < Fraction(bound, 3)):
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
        kind = "4-PARTITION"
        weights, bound = _json_fields(text, kind, ("weights", "bound"))
        return cls(tuple(_json_int(w, kind, "weights")
                         for w in _json_list(weights, kind, "weights", _scalar, "scalars")),
                   _json_int(bound, kind, "bound"))


def count_4part_brute(inst: FourPartitionInstance, budget: int = 20) -> int:
    """Partitions into unordered 4-tuples, each summing to the bound.

    The search is memoised on the sorted tuple of the remaining weights: the
    number of partitions of a set of labelled elements depends only on the
    multiset of their weights.  The lowest remaining weight anchors each
    tuple, so every partition is counted once, and its three partners are
    chosen by position among the rest, so equal weights still count as
    distinct elements.  The count is therefore the same as that of a plain
    exhaustive search over the elements."""
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
        for trio in itertools.combinations(range(len(rest)), 3):
            if sum(rest[i] for i in trio) == need:
                total += rec(tuple(w for i, w in enumerate(rest) if i not in trio))
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
    labels: tuple  # element names aligned with instance.weights
    degenerate: bool  # True when some element occurs in no triple


def gen_4part_from_3dm(inst: ThreeDMInstance) -> FourPartitionConstruction:
    """Garey-Johnson style weights in a carry-free radix.

    Digits (little-endian, base rho): class tag (u: 8, x: 1, y: 2, z: 4,
    tuple target 15 — the only 4-element multiset over those tags summing to
    15 is one of each); three index-matching digits pairing each u with its
    x, y, z; and an actual/dummy digit where first copies contribute (0,0,4)
    and later copies (1,1,2), so a 4 can only arise all-actual or all-dummy.
    A large constant offset puts every weight strictly inside
    (bound/5, bound/3).

    alpha multiplies the matching count into the partition count: the
    (N(a)-1)! arrangements of each element's dummy copies.

    When an element occurs in no triple the matching count is zero but the
    plain construction could still admit partitions over the remaining
    elements, so a canonical unsolvable instance is emitted instead (alpha 1,
    both counts zero).
    """
    q = len(inst.x)
    occurrences = {(axis, a): inst.occurrences(axis, a)
                   for axis, members in enumerate((inst.x, inst.y, inst.z))
                   for a in members}
    if q and min(occurrences.values()) == 0:
        weights, bound = _CANONICAL_ZERO
        return FourPartitionConstruction(
            FourPartitionInstance(weights, bound), 1,
            tuple(f"zero[{i}]" for i in range(len(weights))), True)

    rho = 4 * q + 40
    offset = 10 * rho**5

    def weight(tag, d1=0, d2=0, d3=0, d4=0):
        return offset + tag + d1 * rho + d2 * rho**2 + d3 * rho**3 + d4 * rho**4

    xi = {a: i + 1 for i, a in enumerate(inst.x)}
    yi = {a: i + 1 for i, a in enumerate(inst.y)}
    zi = {a: i + 1 for i, a in enumerate(inst.z)}

    labels, weights = [], []
    for (tx, ty, tz) in inst.triples:
        labels.append(f"u[{tx},{ty},{tz}]")
        weights.append(weight(8, d1=q - xi[tx], d2=q - yi[ty], d3=q - zi[tz]))
    for a in inst.x:
        for copy in range(1, occurrences[(0, a)] + 1):
            labels.append(f"x[{a}#{copy}]")
            weights.append(weight(1, d1=xi[a], d4=0 if copy == 1 else 1))
    for a in inst.y:
        for copy in range(1, occurrences[(1, a)] + 1):
            labels.append(f"y[{a}#{copy}]")
            weights.append(weight(2, d2=yi[a], d4=0 if copy == 1 else 1))
    for a in inst.z:
        for copy in range(1, occurrences[(2, a)] + 1):
            labels.append(f"z[{a}#{copy}]")
            weights.append(weight(4, d3=zi[a], d4=4 if copy == 1 else 2))
    bound = 4 * offset + 15 + q * rho + q * rho**2 + q * rho**3 + 4 * rho**4

    alpha = 1
    for count in occurrences.values():
        alpha *= factorial(count - 1)
    return FourPartitionConstruction(
        FourPartitionInstance(tuple(weights), bound), alpha, tuple(labels), False)


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
    which would break the counting relation.
    """
    total = sum(inst.weights)
    groups = inst.k // 4
    if total < inst.bound * groups:
        raise InvalidInput(
            "total weight below bound * k/4: G-side slack breaks the "
            "stacking correspondence")
    strand = ("A".join("C" * w for w in inst.weights)
              + "AAA"
              + "A".join("G" * inst.bound for _ in range(groups)))
    return BPSInstance(strand, total - inst.k)


# ---------------------------------------------------------------------------
# counting structures by stack count


def _cg_positions(strand: str) -> tuple[list, list]:
    if any(b in "TU" for b in strand):
        raise InvalidInput("stack counting expects strands over A, C, G only")
    cpos = [i for i, b in enumerate(strand, 1) if b == "C"]
    gpos = [i for i, b in enumerate(strand, 1) if b == "G"]
    return cpos, gpos


def count_bps_brute(strand: str, target: int,
                    budget: int = DEFAULT_BPS_ENUM_BUDGET) -> int:
    """Exact count of structures (pseudoknots allowed) with the given number
    of stacks, by exhausting C-G matchings with incremental stack tracking.

    The search pairs the C's in order, each with nothing or with any unused
    G, and is memoised on ``(idx, used-G bitmask, partners of the watched
    positions)``.  Pairing the C at ``c`` with the G at ``g`` gains one stack
    if ``c-1`` is paired with ``g+1`` and one if ``c+1`` is paired with
    ``g-1``, so the watched positions at ``idx`` are the neighbours of the
    C's from ``cpos[idx]`` on that are a G or a C paired earlier.  Every
    later stack test reads only the key and later choices, so two searches
    with equal keys have equal futures.  Each state returns its completions
    as a histogram by stacks gained, and the count is the histogram's entry
    at ``target``: the number the plain exhaustive search gives, one
    completion at a time."""
    cpos, gpos = _cg_positions(strand)
    if len(cpos) + len(gpos) > budget:
        raise BudgetExceeded(
            f"{len(cpos)} + {len(gpos)} pairable bases exceed the budget {budget}")
    gset = set(gpos)
    watched = [sorted({p for c in cpos[idx:] for p in (c - 1, c + 1)
                       if p in gset or p in cpos[:idx]})
               for idx in range(len(cpos))]
    partner: dict[int, int] = {}
    memo: dict[tuple, list] = {}

    def rec(idx: int, used: int) -> list:
        if idx == len(cpos):
            return [1]
        key = (idx, used, tuple(partner.get(p) for p in watched[idx]))
        hit = memo.get(key)
        if hit is not None:
            return hit
        c = cpos[idx]
        hist = list(rec(idx + 1, used))  # c stays unpaired
        for gi, g in enumerate(gpos):
            if used >> gi & 1:
                continue
            gained = (partner.get(c - 1) == g + 1) + (partner.get(c + 1) == g - 1)
            partner[c] = g
            partner[g] = c
            sub = rec(idx + 1, used | 1 << gi)
            del partner[c]
            del partner[g]
            hist.extend([0] * (len(sub) + gained - len(hist)))
            for stacks, n in enumerate(sub):
                hist[stacks + gained] += n
        memo[key] = hist
        return hist

    hist = rec(0, 0)
    return hist[target] if 0 <= target < len(hist) else 0


def _runs(strand: str, letter: str) -> tuple[int, ...]:
    return tuple(len(run) for ch, run in
                 ((k, list(g)) for k, g in itertools.groupby(strand)) if ch == letter)


def count_bps_chains(strand: str, target: int) -> int:
    """Polynomial-size exact count of structures with the given stack count.

    A matching decorated with a subset of its stacks decomposes uniquely
    into "chains": runs of consecutive C positions paired to consecutive G
    positions in reverse.  Summing x**(chain length - 1) over all chain
    packings gives sum_M (1+x)**stacks(M), and a binomial inversion then
    isolates the count per exact stack number.

    Exact only when no stack can straddle a C/G boundary, which needs at
    most one directly adjacent C/G run pair in the strand; generated
    instances separate every run with A's.
    """
    cpos, gpos = _cg_positions(strand)
    if not cpos or not gpos:
        return 1 if target == 0 else 0
    mixed = sum(1 for a, b in zip(strand, strand[1:]) if {a, b} == {"C", "G"})
    if mixed > 1:
        raise InvalidInput(
            "chain counting is exact only with at most one adjacent C/G "
            f"run boundary; this strand has {mixed}")
    q = _chain_packings(_runs(strand, "C"), _runs(strand, "G"))
    if target < 0:
        return 0
    return sum((-1) ** (s - target) * comb(s, target) * qs
               for s, qs in q if s >= target)


@lru_cache(maxsize=CHAIN_CACHE_SIZE)
def _chain_packings(c_runs: tuple, g_runs: tuple) -> tuple[tuple[int, int], ...]:
    """(s, number of chain packings with s glued adjacencies) pairs.

    Kept for the last CHAIN_CACHE_SIZE run-length profiles, so that every
    stack target of one strand shares them; the (runs, lam) memo lives for
    one call, so a process that counts many strands holds bounded memory."""
    max_len = min(max(c_runs), max(g_runs))
    max_total = min(sum(c_runs), sum(g_runs))
    memo: dict[tuple, int] = {}
    q: dict[int, int] = {0: 1}  # the empty packing
    for lam in _length_multisets(max_len, max_total):
        n_c = _placements(c_runs, lam, memo)
        if n_c == 0:
            continue
        n_g = _placements(g_runs, lam, memo)
        if n_g == 0:
            continue
        pairing = 1
        for _, mult in itertools.groupby(lam):
            pairing *= factorial(len(list(mult)))
        s = sum(lam) - len(lam)
        q[s] = q.get(s, 0) + n_c * n_g * pairing
    return tuple(q.items())


def _placements(runs: tuple, lam: tuple, memo: dict) -> int:
    """Ways to choose disjoint intervals with length-multiset ``lam`` across
    the given runs, memoised in ``memo`` on (runs, lam)."""
    if not lam:
        return 1
    if not runs:
        return 0
    total = memo.get((runs, lam))
    if total is None:
        total = sum(_ways_in_run(runs[0], sub)
                    * _placements(runs[1:], _multiset_minus(lam, sub), memo)
                    for sub in _sub_multisets(lam, runs[0]))
        memo[(runs, lam)] = total
    return total


def _length_multisets(max_len: int, max_total: int):
    """Nonempty multisets of interval lengths, as sorted tuples."""
    def rec(smallest: int, room: int):
        for first in range(smallest, max_len + 1):
            if first > room:
                return
            yield (first,)
            for rest in rec(first, room - first):
                yield (first,) + rest
    yield from rec(1, max_total)


def _sub_multisets(multiset: tuple, capacity: int):
    """Sub-multisets (as sorted tuples) whose total fits in capacity."""
    items = sorted(set(multiset))
    counts = {v: multiset.count(v) for v in items}

    def rec(idx: int, room: int):
        if idx == len(items):
            yield ()
            return
        v = items[idx]
        top = min(counts[v], room // v)
        for take in range(top + 1):
            for rest in rec(idx + 1, room - take * v):
                yield (v,) * take + rest

    yield from rec(0, capacity)


def _multiset_minus(a: tuple, b: tuple) -> tuple:
    out = list(a)
    for v in b:
        out.remove(v)
    return tuple(out)


def _ways_in_run(length: int, lam: tuple) -> int:
    """Sets of disjoint (possibly touching) intervals with length-multiset
    lam inside one run: arrangements of the multiset times gap patterns."""
    if not lam:
        return 1
    total, r = sum(lam), len(lam)
    if total > length:
        return 0
    perm = factorial(r)
    for _, grp in itertools.groupby(lam):
        perm //= factorial(len(list(grp)))
    return perm * comb(length - total + r, r)


def count_bps_auto(strand: str, target: int,
                   budget: int = DEFAULT_BPS_ENUM_BUDGET) -> tuple[int, str]:
    """Enumeration when affordable, chain counting otherwise."""
    cpos, gpos = _cg_positions(strand)
    if len(cpos) + len(gpos) <= budget:
        return count_bps_brute(strand, target, budget), "enumeration"
    return count_bps_chains(strand, target), "chain-count"


# ---------------------------------------------------------------------------
# multi-strand pair-count verifier


def count_multi_pkf_brute(system: StrandSystem, pair_count: int,
                          budget: int = 24) -> int:
    """Unpseudoknotted (some ordering) multi-strand structures with exactly
    the given number of pairs; connectivity is not required."""
    space = StructureSpace(allow_pseudoknots=False)
    return sum(1 for s in enumerate_structures(system, space, budget)
               if len(s.pairs) == pair_count)


# ---------------------------------------------------------------------------
# parsimony verifiers


@dataclass(frozen=True)
class ParsimonyReport:
    status: str  # "ok" | "mismatch" | "skipped" | "invalid"
    lhs: object = None
    rhs: object = None
    coefficient: object = None
    route: str = ""
    notes: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> str:
        return json.dumps({
            "status": self.status,
            "lhs": None if self.lhs is None else str(self.lhs),
            "rhs": None if self.rhs is None else str(self.rhs),
            "coefficient": None if self.coefficient is None else str(self.coefficient),
            "route": self.route,
            "notes": self.notes,
        }, sort_keys=True)


def verify_parsimony_bps(inst: FourPartitionInstance,
                         enum_budget: int = DEFAULT_BPS_ENUM_BUDGET,
                         partition_budget: int = 20) -> ParsimonyReport:
    """Structures at the stacking target == partitions * (k/4)! * (4!)**(k/4)."""
    try:
        bps = gen_bps_from_4part(inst)
    except InvalidInput as exc:
        return ParsimonyReport("invalid", notes=str(exc))
    coeff = factorial(inst.k // 4) * factorial(4) ** (inst.k // 4)
    try:
        partitions = count_4part_brute(inst, partition_budget)
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
