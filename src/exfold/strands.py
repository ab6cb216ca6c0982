"""Strands, systems, structures, their predicates (``validate_structure``,
``is_unpseudoknotted_multi``, ``Flattening.connected``/``.hairpins_ok``) and
enumerators; also the package's error classes and the budgets the CLI reads.

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
every predicate, enumerator and energy model computes on;
``SecondaryStructure.sorted_flat`` converts ``BaseRef`` pairs to it, and
``place`` puts a checked structure under the ordering it is scored in.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

VALID_BASES = "ACGTU"

_COMPLEMENTARY = {
    frozenset("AT"),
    frozenset("AU"),
    frozenset("CG"),
}

DEFAULT_PAIR_BUDGET = 64
DEFAULT_BPS_ENUM_BUDGET = 16  # hardness enumerates up to this many C's plus G's
FLATTENING_CACHE_SIZE = 128
ORDERING_BUDGET = 5040  # most circular orderings, (c-1)!, a search may read: 8 strands


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive computation would exceed its declared budget."""


class InvalidInput(ValueError):
    """Raised for malformed strands, structures, or instance files."""


class OracleInconsistency(RuntimeError):
    """The oracle's answers violate an invariant the reduction relies on."""


class BudgetViolation(RuntimeError):
    """A reduction exceeded its own declared call budget (internal bug)."""


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

    The hash and ``ids`` are computed once, so a ``flattening`` cache hit
    costs O(1).  str hashes are salted per process, so ``__reduce__``
    pickles the strands alone and unpickling hashes the system afresh."""

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
        """All (c-1)! circular orderings, first strand pinned, deterministic;
        more than ``ORDERING_BUDGET`` of them raises ``BudgetExceeded``."""
        if math.factorial(self.c - 1) > ORDERING_BUDGET:
            raise BudgetExceeded(f"{self.c} strands have {self.c - 1}! circular orderings, "
                                 f"over the budget of {ORDERING_BUDGET}")
        first, rest = self.ids[0], sorted(self.ids[1:])
        return ((first,) + perm for perm in itertools.permutations(rest))


class Flattening:
    """Positional bookkeeping for a strand system under one ordering."""

    def __init__(self, system: StrandSystem, ordering: Optional[Sequence[int]] = None):
        ordering = tuple(ordering) if ordering is not None else system.ids
        if sorted(ordering) != sorted(system.ids):
            raise InvalidInput(f"ordering {ordering} does not permute strand ids {system.ids}")
        self.system = system
        self.ordering = ordering
        seqs = [system.strand_by_id(t).sequence for t in ordering]
        self.sequence, lengths = "".join(seqs), [len(seq) for seq in seqs]
        # v(pi): the order of the cyclic group of the strand rotations that map
        # every strand onto one with an identical sequence
        self.symmetry_order = sum(seqs[s:] + seqs[:s] == seqs for s in range(len(seqs)))
        self._ref_of = [BaseRef(t, i) for t, m in zip(ordering, lengths) for i in range(1, m + 1)]
        self._flat_of = {ref: pos for pos, ref in enumerate(self._ref_of, 1)}
        # a nick after each strand but the last, between p and p + 1
        self.nicks: frozenset[int] = frozenset(itertools.accumulate(lengths[:-1]))
        # nicks_before[p]: the number of nicks before flat position p, p = 0..n+1
        self.nicks_before = list(itertools.accumulate(
            (p in self.nicks for p in range(system.n + 1)), initial=0))
        self._strand_at = [None] + [ref.strand for ref in self._ref_of]
        # _position[p]: the flat position here of identity flat position p
        self._position = [0] + [self._flat_of[BaseRef(s.id, i)]
                                for s in system.strands for i in range(1, len(s) + 1)]

    def flat(self, ref: BaseRef) -> int:
        try:
            return self._flat_of[ref]
        except KeyError:
            raise InvalidInput(f"base {ref} is not in the system") from None

    def ref(self, pos: int) -> BaseRef:
        return self._ref_of[pos - 1]

    def base(self, pos: int) -> str:
        return self.sequence[pos - 1]

    def from_identity(self, pairs) -> Sequence[tuple[int, int]]:
        """Sorted flat pairs here of sorted flat pairs under the identity
        ordering."""
        if self.ordering == self.system.ids:
            return pairs
        at = self._position
        return sorted((at[i], at[j]) if at[i] < at[j] else (at[j], at[i]) for i, j in pairs)

    def nick_count(self, lo: int, hi: int) -> int:
        """Number of nicks in the half-integer interval [lo+1/2, hi+1/2];
        by convention zero when hi < lo."""
        if hi < lo:
            return 0
        before = self.nicks_before
        top = len(before) - 1
        return before[max(0, min(hi + 1, top))] - before[max(0, min(lo, top))]

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

        strand = self._strand_at
        parts = len(root)
        for i, j in pairs:
            a, b = find(strand[i]), find(strand[j])
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


class _Origin(NamedTuple):
    """What the structures of one enumeration share."""

    flat: Flattening  # the system's identity flattening
    circular: bool  # witnesses are circular orderings, not a fixed_ordering
    connected: bool  # every structure yielded is connected
    complementary: bool  # every pair is complementary

    def checked_in(self, system: StrandSystem) -> bool:
        """Its structures pass ``validate_structure`` in ``system``, or in an
        equal one: ``flattening`` caches by equality."""
        return self.complementary and (self.flat.system is system or self.flat.system == system)


class SecondaryStructure:
    """A set of base pairs; each pair is a canonical 2-tuple of BaseRefs
    ordered by (strand id position in the system tuple, index).

    An enumerated structure holds ``(sorted identity-flat pairs, _Origin,
    witness flattening or None)`` in ``_carried`` and leaves ``_pairs``
    unset until first read.  Equality, hash, repr and pickling see ``pairs``
    alone, as for a frozen dataclass with that one field."""

    __slots__ = ("_pairs", "_carried")
    __match_args__ = ("pairs",)

    def __init__(self, pairs: frozenset[tuple[BaseRef, BaseRef]]):
        _set_pairs(self, pairs)
        _set_carried(self, None)

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

    @property
    def pairs(self) -> frozenset[tuple[BaseRef, BaseRef]]:
        try:
            return self._pairs
        except AttributeError:  # enumerated, and read for the first time
            flat_pairs, origin, _ = self._carried
            ref = origin.flat._ref_of
            _set_pairs(self, frozenset((ref[i - 1], ref[j - 1]) for i, j in flat_pairs))
            return self._pairs

    def __len__(self) -> int:
        carried = self._carried
        return len(self.pairs if carried is None else carried[0])

    def sorted_flat(self, system: StrandSystem) -> list[tuple[int, int]]:
        """The sorted flat pairs under ``system``'s identity ordering."""
        carried = self._carried  # enumerated in system or an equal one; "is" spares __eq__
        if carried is not None and (carried[1].flat.system is system
                                    or carried[1].flat.system == system):
            return list(carried[0])
        flat = flattening(system).flat
        return sorted((i, j) if i < j else (j, i)
                      for i, j in ((flat(a), flat(b)) for a, b in self.pairs))

    def stacks(self, system: StrandSystem) -> int:
        """Pairs (i,j) stacked on a pair (i+1,j-1) with no nick between: the
        same count under every ordering, since strands stay contiguous.  In
        sorted order (i+1,j-1) directly follows (i,j) when each base pairs
        once, as ``checked_flat`` makes sure unless the enumeration did."""
        carried = self._carried
        if carried is not None and carried[1].checked_in(system):
            nicks, pairs = carried[1].flat.nicks, carried[0]
        else:
            nicks, pairs = flattening(system).nicks, checked_flat(system, self)
        return sum(1 for (i, j), (d, e) in itertools.pairwise(pairs)
                   if d == i + 1 and e == j - 1 and i not in nicks and e not in nicks)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.pairs,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(pairs={self.pairs!r})"

    def __reduce__(self):
        return type(self), (self.pairs,)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


_set_pairs = SecondaryStructure._pairs.__set__
_set_carried = SecondaryStructure._carried.__set__


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


def nn_space(min_hairpin: int = 3) -> StructureSpace:
    return StructureSpace(allow_pseudoknots=False, require_connected=True,
                          min_hairpin=min_hairpin)


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


def checked_flat(system: StrandSystem, structure: SecondaryStructure) -> list[tuple[int, int]]:
    """``structure.sorted_flat(system)``, once ``validate_structure`` finds no fault."""
    msg = validate_structure(system, structure)
    if msg is not None:
        raise InvalidInput(msg)
    return structure.sorted_flat(system)


def _first_crossing_free(system: StrandSystem, pairs, orderings):
    """(flattening, pairs under it) of the first of ``orderings`` under which
    the sorted identity-flat ``pairs`` do not cross; None if there is none."""
    for ordering in orderings:
        flat = flattening(system, ordering)
        placed = flat.from_identity(pairs)
        if not any(i < k < j < l for (i, j), (k, l) in itertools.combinations(placed, 2)):
            return flat, placed
    return None


def is_unpseudoknotted_multi(
    system: StrandSystem, structure: SecondaryStructure
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Search the (c-1)! circular orderings for a crossing-free flattening.

    Returns (True, witness ordering) or (False, None).
    """
    found = _first_crossing_free(system, structure.sorted_flat(system),
                                 system.circular_orderings())
    return (False, None) if found is None else (True, found[0].ordering)


def place(system: StrandSystem, structure: SecondaryStructure,
          ordering: Optional[Sequence[int]] = None) -> tuple[Flattening, Sequence]:
    """(flattening, sorted flat pairs) of a valid, connected ``structure``
    under ``ordering``, or when None under the first circular ordering that
    leaves it crossing-free.  An enumerated structure whose witness is that
    ordering skips the checks its enumeration made."""
    carried = structure._carried
    if carried is not None:
        flat_pairs, origin, witness = carried
        if (witness is not None and origin.checked_in(system)
                and (origin.circular if ordering is None
                     else tuple(ordering) == witness.ordering)):
            if not origin.connected and not origin.flat.connected(flat_pairs):
                raise InvalidInput("structure is disconnected")
            return witness, witness.from_identity(flat_pairs)
    found = _first_crossing_free(system, checked_flat(system, structure),
                                 system.circular_orderings() if ordering is None else [ordering])
    if found is None:
        raise InvalidInput("structure admits no crossing-free ordering" if ordering is None
                           else "structure is pseudoknotted under this ordering")
    if not found[0].connected(found[1]):
        raise InvalidInput("structure is disconnected")
    return found


# ---------------------------------------------------------------------------
# enumeration


def candidate_pairs(system: StrandSystem, space: StructureSpace) -> list[tuple[int, int]]:
    """All admissible flat pairs (i < j) under the space's pairing rule."""
    seq, n = flattening(system).sequence, system.n
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if space.pairing == "all" or complementary(seq[i - 1], seq[j - 1])]


def enumerate_structures(
    system: StrandSystem,
    space: StructureSpace,
    budget: int = DEFAULT_PAIR_BUDGET,
    fixed_ordering: Optional[Sequence[int]] = None,
) -> Iterator[SecondaryStructure]:
    """Yield every structure of the space exactly once, empty structure first,
    in lexicographic order of the sorted flat pair tuples.

    Candidate ``idx`` is bit ``idx`` of a mask.  ``compat[k][idx]`` holds the
    later candidates that share no base with ``idx`` and, under ordering k,
    do not cross it: exactly one end strictly inside its span, so they are
    the XOR of ``ends[p]`` (the candidates with an end at p) over that span,
    two prefix XORs.  The orderings k are the circular ones, or
    ``fixed_ordering``, in a knot-free space, and one with no crossing term
    under pseudoknots.  Each depth keeps its alive orderings (the chosen
    pairs cross under none of them) with their masks of candidates still
    available; the next candidate is the lowest bit of their union, and
    pushing it keeps the orderings whose mask holds it, each mask ANDed with
    its ``compat`` row.  This pre-order walk yields a structure, then its
    extensions by each later candidate in turn: the lexicographic order.

    Connectivity and, under pseudoknots, the minimum hairpin are checked per
    yielded structure.  A knot-free space with ``min_hairpin > 0`` instead
    drops, after the budget check, every same-strand candidate (no nick in
    ``[i, j-1]``) closing fewer than ``min_hairpin`` bases: a pair inside it
    would be a shorter one, a pair leaving it crosses it under every
    ordering, so no admissible structure holds one.

    A yielded structure carries its sorted identity-flat pairs and, in a
    knot-free space of complementary pairs, the flattening under its first
    alive ordering, the witness ``place`` would otherwise search for.
    """
    cands = candidate_pairs(system, space)
    if len(cands) > budget:
        raise BudgetExceeded(
            f"{len(cands)} candidate pairs exceed the enumeration budget {budget}")
    flat = flattening(system)
    knot_free = not space.allow_pseudoknots
    if space.min_hairpin and knot_free:
        cands = [(i, j) for i, j in cands
                 if j - i - 1 >= space.min_hairpin or flat.nick_count(i, j - 1)]
    if fixed_ordering is not None:
        flattening(system, fixed_ordering)  # raises unless it permutes the strand ids
    ends = [0] * (system.n + 1)
    for idx, (i, j) in enumerate(cands):
        ends[i] |= 1 << idx
        ends[j] |= 1 << idx
    full = (1 << len(cands)) - 1
    free = [full & ~((2 << idx) - 1 | ends[i] | ends[j]) for idx, (i, j) in enumerate(cands)]
    unders = [flattening(system, ordering) for ordering in
              ([] if not knot_free else [fixed_ordering] if fixed_ordering is not None
               else system.circular_orderings())]
    compat = [] if unders else [free]
    for under in unders:
        at, ends_at = under._position, [0] * (system.n + 1)
        for p, mask in enumerate(ends):
            ends_at[at[p]] = mask
        inside = list(itertools.accumulate(ends_at, operator.xor))
        compat.append([free[idx] & ~(inside[max(at[i], at[j]) - 1] ^ inside[min(at[i], at[j])])
                       for idx, (i, j) in enumerate(cands)])

    origin = _Origin(flat, fixed_ordering is None, space.require_connected or system.c == 1,
                     space.pairing == "complementary")
    witnesses = unders if unders and origin.complementary else [None] * len(compat)
    check_connected = space.require_connected and system.c > 1
    check_hairpins = space.min_hairpin and not knot_free
    always = not (check_connected or check_hairpins)

    def admissible() -> bool:
        return ((not check_connected or flat.connected(pairs))
                and (not check_hairpins or flat.hairpins_ok(pairs, space.min_hairpin)))

    new, set_carried = object.__new__, _set_carried
    pairs: list[tuple[int, int]] = []  # the chosen candidates' flat pairs
    stack = []  # per push: the union left to scan and the alive orderings before it
    # alive: the alive orderings as (k, mask of candidates available), or k
    # alone once only one is left, its mask being rest
    alive = 0 if len(compat) == 1 else [(k, full) for k in range(len(compat))]
    rest = full
    if admissible():
        out = new(SecondaryStructure)
        set_carried(out, ((), origin, witnesses[0]))
        yield out
    while True:
        if rest:
            low = rest & -rest
            idx = low.bit_length() - 1
            stack.append((rest ^ low, alive))
            if alive.__class__ is int:
                k = alive
                rest &= compat[k][idx]
            else:
                alive = [(k, avail & compat[k][idx]) for k, avail in alive if avail & low]
                k = alive[0][0]
                if len(alive) == 1:
                    alive, rest = alive[0]
                else:
                    rest = 0
                    for _, avail in alive:
                        rest |= avail
            pairs.append(cands[idx])
            if always or admissible():
                out = new(SecondaryStructure)
                set_carried(out, (tuple(pairs), origin, witnesses[k]))
                yield out
        elif stack:
            rest, alive = stack.pop()
            pairs.pop()
        else:
            return


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
