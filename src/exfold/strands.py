"""Strands, multi-stranded systems, secondary structures, and the structural
predicates and enumerators everything else consumes.

Conventions used throughout the package:

* Bases are one-character strings from ``ACGTU``; the only complementary
  pairings are A-T, A-U and C-G (no wobble pairs).
* A base is addressed either by a ``BaseRef`` (strand id, 1-based index
  within the strand) or, once an ordering of the strands is fixed, by its
  1-based *flat* index in the concatenation of the strands.
* Nicks sit between consecutive strands of a flattening: "nick after flat
  position p" is stored as the integer p (conceptually p + 1/2).
* ``flattening(system, ordering)`` returns one shared, cached ``Flattening``
  per (system, ordering); callers must not mutate it.

Sorted flat pairs ``(i, j)``, i < j, under one ``Flattening`` are the form
every predicate, enumerator and energy model computes on.  A
``SecondaryStructure`` of ``BaseRef`` pairs exists at the edge: a public
function that receives one converts it once, with ``Flattening.flat_pairs``,
and the enumerator builds one only for a structure it yields.

The enumerator tests crossings incrementally, as each pair is pushed, and
yields structures in lexicographic order of their sorted flat pair tuples.
In a knot-free space with a minimum hairpin it first drops the same-strand
candidates too short to close a hairpin, which no admissible structure
holds; the budget still counts them.  Each pair set is built from its
parent's, so a push hashes one ``BaseRef`` pair.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

VALID_BASES = "ACGTU"

_COMPLEMENTARY = {
    frozenset("AT"),
    frozenset("AU"),
    frozenset("CG"),
}

DEFAULT_PAIR_BUDGET = 64
FLATTENING_CACHE_SIZE = 128


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive computation would exceed its declared budget."""


class InvalidInput(ValueError):
    """Raised for malformed strands, structures, or instance files."""


def complementary(a: str, b: str) -> bool:
    """True iff {a, b} is A-T, A-U or C-G."""
    return frozenset((a, b)) in _COMPLEMENTARY


class BaseRef(NamedTuple):
    strand: int
    index: int  # 1-based position within the strand


@dataclass(frozen=True)
class Strand:
    id: int
    sequence: str

    def __post_init__(self):
        if not self.sequence:
            raise InvalidInput(f"strand {self.id} has an empty sequence")
        bad = set(self.sequence) - set(VALID_BASES)
        if bad:
            raise InvalidInput(f"strand {self.id} has invalid bases {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass(frozen=True)
class StrandSystem:
    """An ordered multiset of strands; the tuple order is the system's
    intrinsic flattening order (identity ordering).

    The hash and ``ids`` are computed once, at construction, so a
    ``flattening(system, ...)`` cache hit costs O(1), not a pass over every
    strand.  A stored str-based hash is only valid in the process that made
    it (str hashes are salted per process), so ``__reduce__`` pickles the
    strands alone and unpickling constructs the system afresh."""

    strands: tuple[Strand, ...]

    def __post_init__(self):
        if not self.strands:
            raise InvalidInput("a strand system needs at least one strand")
        ids = tuple(s.id for s in self.strands)
        if len(set(ids)) != len(ids):
            raise InvalidInput(f"duplicate strand ids in {list(ids)}")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_hash", hash(self.strands))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), (self.strands,)

    @classmethod
    def from_sequences(cls, *sequences: str) -> "StrandSystem":
        return cls(tuple(Strand(i + 1, seq) for i, seq in enumerate(sequences)))

    @property
    def c(self) -> int:
        return len(self.strands)

    @property
    def n(self) -> int:
        return sum(len(s) for s in self.strands)

    def strand_by_id(self, sid: int) -> Strand:
        for s in self.strands:
            if s.id == sid:
                return s
        raise InvalidInput(f"no strand with id {sid}")

    def circular_orderings(self) -> Iterator[tuple[int, ...]]:
        """All (c-1)! circular orderings, first strand pinned, deterministic."""
        first, rest = self.ids[0], sorted(self.ids[1:])
        for perm in itertools.permutations(rest):
            yield (first,) + perm


class Flattening:
    """Positional bookkeeping for a strand system under one ordering."""

    def __init__(self, system: StrandSystem, ordering: Optional[Sequence[int]] = None):
        ordering = tuple(ordering) if ordering is not None else system.ids
        if sorted(ordering) != sorted(system.ids):
            raise InvalidInput(f"ordering {ordering} does not permute strand ids {system.ids}")
        self.system = system
        self.ordering = ordering
        self.sequence = "".join(system.strand_by_id(t).sequence for t in ordering)
        self._flat_of: dict[BaseRef, int] = {}
        self._ref_of: list[BaseRef] = []
        nicks = set()
        pos = 0
        for t in ordering:
            strand = system.strand_by_id(t)
            for i in range(1, len(strand) + 1):
                pos += 1
                ref = BaseRef(t, i)
                self._flat_of[ref] = pos
                self._ref_of.append(ref)
            if pos < system.n:
                nicks.add(pos)  # nick between pos and pos + 1
        self.nicks: frozenset[int] = frozenset(nicks)

    def flat(self, ref: BaseRef) -> int:
        try:
            return self._flat_of[ref]
        except KeyError:
            raise InvalidInput(f"base {ref} is not in the system") from None

    def ref(self, pos: int) -> BaseRef:
        return self._ref_of[pos - 1]

    def base(self, pos: int) -> str:
        return self.sequence[pos - 1]

    def flat_pairs(self, structure: "SecondaryStructure") -> list[tuple[int, int]]:
        out = []
        for a, b in structure.pairs:
            i, j = self.flat(a), self.flat(b)
            out.append((i, j) if i < j else (j, i))
        out.sort()
        return out

    def nick_count(self, lo: int, hi: int) -> int:
        """Number of nicks in the half-integer interval [lo+1/2, hi+1/2];
        by convention zero when hi < lo."""
        if hi < lo:
            return 0
        return sum(1 for p in self.nicks if lo <= p <= hi)

    def connected(self, pairs) -> bool:
        """Connectivity of the strand graph with one edge per inter-strand
        pair, for flat pairs under this flattening."""
        if len(self.ordering) == 1:
            return True
        root = {sid: sid for sid in self.ordering}

        def find(x):
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        parts = len(root)
        for i, j in pairs:
            a, b = find(self.ref(i).strand), find(self.ref(j).strand)
            if a != b:
                root[a] = b
                parts -= 1
        return parts == 1

    def hairpins_ok(self, pairs, min_hairpin: int) -> bool:
        """Every same-strand flat pair (i, j) (no nick between i and j) that
        encloses only unpaired bases encloses at least ``min_hairpin``."""
        if min_hairpin <= 0:
            return True
        paired = {p for pair in pairs for p in pair}
        return not any(j - i - 1 < min_hairpin and self.nick_count(i, j - 1) == 0
                       and paired.isdisjoint(range(i + 1, j))
                       for i, j in pairs)


_cached_flattening = functools.lru_cache(maxsize=FLATTENING_CACHE_SIZE)(Flattening)


def flattening(system: StrandSystem, ordering: Optional[Sequence[int]] = None) -> Flattening:
    """The shared ``Flattening`` of ``system`` under ``ordering`` (identity
    when None), built once per (system, ordering) while it stays cached."""
    return _cached_flattening(system, system.ids if ordering is None else tuple(ordering))


@dataclass(frozen=True)
class SecondaryStructure:
    """A set of base pairs; each pair is a frozenset-free canonical 2-tuple of
    BaseRefs ordered by (strand id position in the system tuple, index)."""

    pairs: frozenset[tuple[BaseRef, BaseRef]]

    @classmethod
    def from_refs(cls, system: StrandSystem, pairs) -> "SecondaryStructure":
        flat = flattening(system)
        canon = []
        for a, b in pairs:
            a, b = BaseRef(*a), BaseRef(*b)
            if flat.flat(a) > flat.flat(b):
                a, b = b, a
            canon.append((a, b))
        return cls(frozenset(canon))

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted_flat(self, system: StrandSystem) -> list[tuple[int, int]]:
        return flattening(system).flat_pairs(self)


EMPTY_STRUCTURE = SecondaryStructure(frozenset())


@dataclass(frozen=True)
class StructureSpace:
    """Which structures count as members of the ensemble.

    ``pairing="all"`` drops the complementarity requirement; it exists for
    combinatorial calibration against the closed-form matching counts and is
    never used by the energy models.
    """

    allow_pseudoknots: bool = True
    require_connected: bool = False
    min_hairpin: int = 0
    pairing: str = "complementary"  # or "all"

    def __post_init__(self):
        if self.pairing not in ("complementary", "all"):
            raise InvalidInput(f"unknown pairing rule {self.pairing!r}")
        if self.min_hairpin < 0:
            raise InvalidInput("min_hairpin must be >= 0")


def nn_space() -> StructureSpace:
    return StructureSpace(allow_pseudoknots=False, require_connected=True, min_hairpin=3)


def all_pairs_space() -> StructureSpace:
    """For the acceptance tests' closed-form matching counts."""
    return StructureSpace(pairing="all")


# ---------------------------------------------------------------------------
# predicates


def validate_structure(system: StrandSystem, structure: SecondaryStructure) -> Optional[str]:
    """None when valid, else a message naming the first offending pair/base."""
    flat = flattening(system)
    pos = flat._flat_of
    for a, b in structure.pairs:
        for ref in (a, b):
            if ref not in pos:
                if ref.strand not in system.ids:
                    return f"base {ref} names an unknown strand"
                return f"base {ref} out of range"
    seen: set[BaseRef] = set()
    ordered = sorted(structure.pairs, key=lambda p: (pos[p[0]], pos[p[1]]))
    for a, b in ordered:
        if a == b:
            return f"pair ({a}, {b}) joins a base to itself"
        if pos[a] > pos[b]:
            return f"pair ({a}, {b}) is reversed: {a} comes after {b} in the flat order"
        for ref in (a, b):
            if ref in seen:
                return f"base {ref} appears in more than one pair"
            seen.add(ref)
    for a, b in ordered:
        x, y = flat.base(pos[a]), flat.base(pos[b])
        if not complementary(x, y):
            return f"pair ({a}, {b}) is not complementary: {x}-{y}"
    return None


def check_structure(system: StrandSystem, structure: SecondaryStructure) -> None:
    msg = validate_structure(system, structure)
    if msg is not None:
        raise InvalidInput(msg)


def is_unpseudoknotted_single(flat_pairs) -> bool:
    """No two pairs cross under the flattened order."""
    pairs = sorted(flat_pairs)
    return not any(i < k < j < l
                   for (i, j), (k, l) in itertools.combinations(pairs, 2))


def is_unpseudoknotted_multi(
    system: StrandSystem, structure: SecondaryStructure
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Search the (c-1)! circular orderings for a crossing-free flattening.

    Returns (True, witness ordering) or (False, None).
    """
    for ordering in system.circular_orderings():
        if is_unpseudoknotted_single(flattening(system, ordering).flat_pairs(structure)):
            return True, ordering
    return False, None


def is_connected(system: StrandSystem, structure: SecondaryStructure) -> bool:
    """Connectivity of the strand graph with one edge per inter-strand pair."""
    flat = flattening(system)
    return flat.connected(flat.flat_pairs(structure))


def min_hairpin_ok(system: StrandSystem, structure: SecondaryStructure, min_hairpin: int) -> bool:
    """Every same-strand pair enclosing only unpaired bases of that strand
    must enclose at least ``min_hairpin`` of them."""
    flat = flattening(system)
    return flat.hairpins_ok(flat.flat_pairs(structure), min_hairpin)


# ---------------------------------------------------------------------------
# enumeration


def candidate_pairs(system: StrandSystem, space: StructureSpace) -> list[tuple[int, int]]:
    """All admissible flat pairs (i < j) under the space's pairing rule."""
    flat = flattening(system)
    n = system.n
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if space.pairing == "all" or complementary(flat.base(i), flat.base(j)):
                out.append((i, j))
    return out


def enumerate_structures(
    system: StrandSystem,
    space: StructureSpace,
    budget: int = DEFAULT_PAIR_BUDGET,
    fixed_ordering: Optional[Sequence[int]] = None,
) -> Iterator[SecondaryStructure]:
    """Yield every structure of the space exactly once, empty structure first,
    in lexicographic order of the sorted flat pair tuples.

    The search is one loop over an explicit stack: ``chosen`` holds the
    candidate indices of the current structure, increasing, and ``alive``
    the orderings still open after each push.  The loop scans the candidates
    from ``idx`` for one that fits; a push yields the new structure if it is
    admissible and goes on scanning after the pushed index.  When the scan
    runs out, the last index ``m`` is popped, with its alive orderings, and
    the scan resumes at ``m + 1``.  This is the pre-order depth-first walk
    of a recursion that yields its own structure and then extends it by each
    later candidate in turn, so a structure comes right before its
    extensions, and those before any structure whose last index is larger:
    the lexicographic order.

    A knot-free space is pruned incrementally: a pushed pair is tested only
    against the chosen pairs, under the orderings that still leave them
    crossing-free (the circular ones, or ``fixed_ordering`` alone), and the
    branch ends when none is left.  Connectivity and the minimum hairpin are
    checked per yielded structure, since adding a pair can make or break them.

    A knot-free space with ``min_hairpin > 0`` also drops, before the search,
    every same-strand candidate ``(i, j)`` (no nick in ``[i, j-1]``) that
    closes fewer than ``min_hairpin`` bases, the pairs ``hairpins_ok``
    rejects when nothing is paired inside them.  No admissible structure
    holds one: a pair inside it is a shorter such pair, and a pair leaving
    it crosses it under every ordering, since a strand stays contiguous in
    each.  So the answers and their order are unchanged.  The budget counts
    the candidates before this pruning.

    Each structure's ``BaseRef`` pair set is built from its parent's, one
    new pair at a time, so a push hashes one pair, not all of them.
    """
    cands = candidate_pairs(system, space)
    if len(cands) > budget:
        raise BudgetExceeded(
            f"{len(cands)} candidate pairs exceed the enumeration budget {budget}")
    flat = flattening(system)
    min_hairpin = space.min_hairpin
    if min_hairpin and not space.allow_pseudoknots:
        cands = [(i, j) for i, j in cands
                 if j - i - 1 >= min_hairpin or flat.nick_count(i, j - 1)]
    cand_refs = [(flat.ref(i), flat.ref(j)) for i, j in cands]
    if fixed_ordering is not None:
        flattening(system, fixed_ordering)  # raises unless it permutes the strand ids
    if space.allow_pseudoknots:
        orderings = []
    elif fixed_ordering is not None:
        orderings = [fixed_ordering]
    else:
        orderings = list(system.circular_orderings())
    # placed[k][idx]: candidate idx as a sorted flat pair under ordering k
    placed = []
    for ordering in orderings:
        under = flattening(system, ordering)
        position = [0] + [under.flat(flat.ref(p)) for p in range(1, system.n + 1)]
        placed.append([tuple(sorted((position[i], position[j]))) for i, j in cands])

    connected = space.require_connected and system.c > 1

    def admissible() -> bool:
        return ((not connected or flat.connected(pairs))
                and (not min_hairpin or flat.hairpins_ok(pairs, min_hairpin)))

    chosen: list[int] = []  # candidate indices, increasing
    pairs: list[tuple[int, int]] = []  # the chosen candidates' flat pairs
    ref_sets = [frozenset()]  # ref_sets[d]: the BaseRef pairs after d pushes
    occupied = [False] * (system.n + 1)
    alive = [range(len(orderings))]  # alive[d]: orderings open after d pushes
    if admissible():
        yield EMPTY_STRUCTURE
    idx = 0
    while True:
        for idx in range(idx, len(cands)):
            i, j = cands[idx]
            if occupied[i] or occupied[j]:
                continue
            if orderings:
                still = []
                for k in alive[-1]:
                    at = placed[k]
                    a, b = at[idx]
                    for m in chosen:
                        c, d = at[m]
                        if (a < c < b) != (a < d < b):
                            break
                    else:
                        still.append(k)
                if not still:
                    continue
                alive.append(still)
            chosen.append(idx)
            pairs.append((i, j))
            ref_sets.append(ref_sets[-1] | {cand_refs[idx]})
            occupied[i] = occupied[j] = True
            if admissible():
                yield SecondaryStructure(ref_sets[-1])
            idx += 1
            break
        else:
            if not chosen:
                return
            idx = chosen.pop() + 1
            i, j = pairs.pop()
            ref_sets.pop()
            occupied[i] = occupied[j] = False
            if orderings:
                alive.pop()


def count_structures(system: StrandSystem, space: StructureSpace,
                     budget: int = DEFAULT_PAIR_BUDGET) -> int:
    return sum(1 for _ in enumerate_structures(system, space, budget))


# ---------------------------------------------------------------------------
# strand-system text format


def parse_strands(text: str) -> StrandSystem:
    """One strand per line, ACGTU characters, '#' comments, blanks ignored."""
    seqs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        seqs.append(line.upper())
    if not seqs:
        raise InvalidInput("no strands found")
    return StrandSystem.from_sequences(*seqs)


def read_strand_file(path) -> StrandSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_strands(fh.read())
