"""The three energy functions (BPM, BPS, NN), loop decomposition, rotational
symmetry, and NN parameter files.

The stack count, the face walk and the rotational symmetry are computed on
sorted flat pairs under one ``Flattening`` (``_stacks``, ``_faces``,
``_symmetry``).  ``decompose_loops``, ``rotational_symmetry``,
``energy_nn_detail`` and NN ``energy`` validate a structure
(``check_structure``) before converting it, except one that
``enumerate_structures`` yielded from this very system, whose flat pairs
and witness ordering they take as they are.  BPM and BPS ``energy`` never
validate: they score a non-complementary pair, and BPM one that names a
base outside the system.

Energies are integers counting quanta of a global granularity ``delta``
(a positive rational): BPM and BPS use delta = 1, NN parameter sets declare
their own, so every comparison and partition-function identity downstream
is exact.  Magnification is applied by the oracles, not by a model.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .strands import (
    VALID_BASES,
    Flattening,
    InvalidInput,
    SecondaryStructure,
    StrandSystem,
    check_structure,
    flattening,
    is_unpseudoknotted_single,
)

VALID_KINDS = ("bpm", "bps", "nn")
LOG_ROUND_CACHE_SIZE = 1024
# NNParams size table -> its name in messages
SIZE_TABLES = {"hairpin": "hairpin", "bulge": "bulge",
               "interior_size": "interior size", "interior_asym": "interior asymmetry"}


class DecompositionError(InvalidInput):
    """Loop decomposition needs a connected, crossing-free input."""


# ---------------------------------------------------------------------------
# the BaseRef edge, and BPS stacks


def _checked_pairs(system: StrandSystem, ordering: Optional[Sequence[int]],
                   structure: SecondaryStructure) -> tuple[Flattening, list[tuple[int, int]]]:
    """Check ``structure``; convert it under ``ordering``, or when that is
    None under each circular ordering in turn until one leaves it
    crossing-free; then check that it is connected.  Returns the flattening
    and the sorted flat pairs under it.  An enumerated structure whose
    witness is ``ordering``'s, or circular when ``ordering`` is None, skips
    the check and the search, and the connectivity test too if its space
    required connectivity."""
    carried = structure._carried
    if carried is not None:
        flat_pairs, origin, witness = carried
        if (witness is not None and origin.flat.system is system
                and (origin.circular if ordering is None
                     else tuple(ordering) == witness.ordering)):
            if not origin.connected and not origin.flat.connected(flat_pairs):
                raise DecompositionError("structure is disconnected")
            return witness, witness.from_identity(flat_pairs)
    check_structure(system, structure)
    for tried in system.circular_orderings() if ordering is None else [ordering]:
        flat = flattening(system, tried)
        pairs = flat.flat_pairs(structure)
        if is_unpseudoknotted_single(pairs):
            break
    else:
        raise DecompositionError("structure admits no crossing-free ordering"
                                 if ordering is None
                                 else "structure is pseudoknotted under this ordering")
    if not flat.connected(pairs):
        raise DecompositionError("structure is disconnected")
    return flat, pairs


def _stacks(flat: Flattening, pairs: list[tuple[int, int]]) -> int:
    """Stacked couples: (i,j) and (i+1,j-1) both pairs, with no nick inside
    (i, i+1) or (j-1, j).  Strands stay contiguous under every ordering, so
    the count takes none."""
    have = set(pairs)
    return sum(1 for i, j in pairs
               if (i + 1, j - 1) in have and i not in flat.nicks and j - 1 not in flat.nicks)


# ---------------------------------------------------------------------------
# NN parameters


@dataclass(frozen=True)
class NNParams:
    """Toy nearest-neighbour parameter set; all energies in quanta of delta.

    Tables:
      stack[(a, b, c, d)]  pair (i,j) stacked on (i+1,j-1), key is the bases
                           at (i, i+1, j-1, j)
      hairpin[m]           loop of m unpaired bases, m >= 3
      bulge[m]             one-sided loop of m unpaired bases, m >= 1
      interior_size[m]     size term for two-sided loops, m = l1 + l2 >= 2
      interior_asym[s]     asymmetry term, s = |l1 - l2|
      mismatch[(a,b,c,d)]  terminal-mismatch term applied once per closing
                           pair of a two-sided interior loop
    Multiloops use the linear form init + b * per_pair + f * per_free_base.
    The four size tables (``SIZE_TABLES``) are read through ``size_entry``,
    which continues each above its largest explicit size, so a loop of any
    length has an energy.
    """

    delta: Fraction = Fraction(1)
    temperature: Fraction = Fraction(310)
    kbt: Fraction = Fraction(1)
    assoc: int = 0
    multi_init: int = 0
    multi_bp: int = 0
    multi_nt: int = 0
    stack: dict = field(default_factory=dict)
    hairpin: dict = field(default_factory=dict)
    bulge: dict = field(default_factory=dict)
    interior_size: dict = field(default_factory=dict)
    interior_asym: dict = field(default_factory=dict)
    mismatch: dict = field(default_factory=dict)
    min_hairpin: int = 3

    def __post_init__(self):
        if self.delta <= 0 or self.temperature <= 0 or self.kbt <= 0:
            raise InvalidInput("delta, temperature and kbt must be positive")
        # size_entry's lookup copies, where it memoises what it extrapolates;
        # the fields, so equality, repr and dump_nn_params, stay explicit
        object.__setattr__(self, "_sizes", {name: dict(getattr(self, name))
                                            for name in SIZE_TABLES})

    def table_entry(self, table: dict, key, what: str) -> int:
        """A stack or mismatch entry."""
        try:
            return table[key]
        except KeyError:
            raise InvalidInput(f"missing {what} parameter entry for {key!r}") from None

    def size_entry(self, name: str, m: int) -> int:
        """Entry m of the size table ``name``.  Above the table's largest
        explicit size top it is the Jacobson-Stockmayer extrapolation
        table[top] + round(c ln m) - round(c ln max(top, 1)) quanta, with
        c = 7/4 kbt / delta, memoised with every size below m that lacks
        it; below top, a size without an entry is missing."""
        total = self._sizes[name]
        try:
            return total[m]
        except KeyError:
            pass
        table = getattr(self, name)
        if not table or m < max(table):
            raise InvalidInput(f"missing {SIZE_TABLES[name]} parameter entry for {m!r}")
        top, coef = max(table), Fraction(7, 4) * self.kbt
        offset = table[top] - round_log_multiple(coef, max(top, 1), self.delta)
        for k in range(max(total) + 1, m + 1):  # sizes up to max(total) are all here
            total[k] = offset + round_log_multiple(coef, k, self.delta)
        return total[m]

    def size_table(self, name: str, n: int) -> dict:
        """The size table ``name`` continued up to the largest loop of its
        kind on n bases, taken as max(n, 3) for hairpins, max(n, 1) for
        bulges, max(n, 2) for interior sizes and max(n - 2, 0) for
        asymmetries; empty when the table is."""
        limit = {"hairpin": max(n, 3), "bulge": max(n, 1), "interior_size": max(n, 2),
                 "interior_asym": max(n - 2, 0)}[name]
        table, total = getattr(self, name), self._sizes[name]
        if limit > max(table, default=limit):
            self.size_entry(name, limit)  # memoises every size up to limit
        return {m: v for m, v in total.items() if m in table or m <= limit}


@functools.lru_cache(maxsize=LOG_ROUND_CACHE_SIZE)
def round_log_multiple(coef: Fraction, arg: int, delta: Fraction) -> int:
    """Nearest-integer quanta for coef * ln(arg) / delta, an irrational for
    arg >= 2 and coef != 0.

    Computed with 60 significant decimal digits.  A value within 1e-40 of a
    half-integer is refused, not rounded: at that distance the working
    precision no longer decides the side.
    """
    if arg < 1:
        raise InvalidInput("logarithm argument must be >= 1")
    if arg == 1 or coef == 0:
        return 0
    with localcontext() as ctx:
        ctx.prec = 60
        value = (Decimal(coef.numerator * delta.denominator) * Decimal(arg).ln()
                 / Decimal(coef.denominator * delta.numerator))
        nearest = value.to_integral_value()
        if abs(abs(value - nearest) - Decimal("0.5")) < Decimal("1e-40"):
            raise InvalidInput(f"{coef} * ln({arg}) / {delta} is too close to a "
                               "half-integer to round")
        return int(nearest)


# ---------------------------------------------------------------------------
# loop decomposition


@dataclass(frozen=True)
class Loop:
    kind: str
    closing: Optional[tuple[int, int]]  # flat pair owning the face; None for the root
    children: tuple[tuple[int, int], ...]
    free_bases: int
    nick_count: int


def decompose_loops(system: StrandSystem, ordering: Sequence[int],
                    structure: SecondaryStructure) -> list[Loop]:
    """Face decomposition of the polymer graph under ``ordering``.

    The root face always exists (it contains the wrap-around gap of the
    circular layout) and is an exterior loop; every pair owns exactly one
    further face.  Requires a valid, crossing-free, connected input.
    """
    return _faces(*_checked_pairs(system, ordering, structure))


def _faces(flat: Flattening, pairs: list[tuple[int, int]]) -> list[Loop]:
    """Faces of crossing-free sorted flat pairs: the root, then one per pair."""
    children: dict[Optional[tuple[int, int]], list[tuple[int, int]]] = {None: []}
    open_pairs: list[tuple[int, int]] = []
    for pair in pairs:  # sorted; nesting resolved with a sweep
        while open_pairs and open_pairs[-1][1] < pair[0]:
            open_pairs.pop()
        children[open_pairs[-1] if open_pairs else None].append(pair)
        children[pair] = []
        open_pairs.append(pair)
    n = len(flat.sequence)
    before = flat.nicks_before  # so nick_count(lo, hi - 1) is before[hi] - before[lo]

    def face(closing: Optional[tuple[int, int]]) -> Loop:
        kids = tuple(children[closing])
        lo, hi = closing or (0, n + 1)
        free = hi - lo - 1 - sum(e - d + 1 for d, e in kids)
        # nicks bordering the face: inside the closing span, outside every child's
        nicks = before[hi] - before[lo] - sum(before[e] - before[d] for d, e in kids)
        if closing is None:
            return Loop("exterior", None, kids, free, nicks + 1)  # +1: wrap gap
        if nicks:
            return Loop("exterior", closing, kids, free, nicks)
        if not kids:
            return Loop("hairpin", closing, kids, free, 0)
        if len(kids) == 1:
            (d, e), (i, j) = kids[0], closing
            l1, l2 = d - i - 1, j - e - 1
            if l1 == 0 and l2 == 0:
                return Loop("stack", closing, kids, 0, 0)
            if l1 == 0 or l2 == 0:
                return Loop("bulge", closing, kids, l1 + l2, 0)
            return Loop("interior", closing, kids, l1 + l2, 0)
        return Loop("multiloop", closing, kids, free, 0)

    faces = [face(None)] + [face(pair) for pair in pairs]
    assert sum(f.free_bases for f in faces) == n - 2 * len(pairs)
    return faces


# ---------------------------------------------------------------------------
# rotational symmetry


def max_symmetry_order(system: StrandSystem, ordering: Sequence[int]) -> int:
    """v(pi): the largest order of a rotation of the circular ordering that
    maps every strand onto one with an identical sequence."""
    seqs = [system.strand_by_id(t).sequence for t in ordering]
    c = len(seqs)
    best = 1
    for shift in range(1, c):
        if all(seqs[i] == seqs[(i + shift) % c] for i in range(c)):
            best = max(best, c // gcd(c, shift))
    return best


def rotational_symmetry(system: StrandSystem, ordering: Sequence[int],
                        structure: SecondaryStructure) -> int:
    """Largest divisor R of v(pi) whose strand rotation fixes the pair set."""
    check_structure(system, structure)
    flat = flattening(system, ordering)
    return _symmetry(flat, flat.flat_pairs(structure))


def _symmetry(flat: Flattening, pairs: list[tuple[int, int]]) -> int:
    """Rotating by c/R strand slots, for R dividing v(pi), maps strands onto
    strands with equal sequences, so it shifts every flat position by n/R
    (mod n)."""
    n = len(flat.sequence)
    v = max_symmetry_order(flat.system, flat.ordering)
    have = set(pairs)
    best = 1
    for r in range(2, v + 1):
        if v % r:
            continue
        k = n // r
        rotated = {tuple(sorted(((i + k - 1) % n + 1, (j + k - 1) % n + 1)))
                   for i, j in pairs}
        if rotated == have:
            best = r
    return best


# ---------------------------------------------------------------------------
# NN energy


@dataclass(frozen=True)
class NNEnergyDetail:
    loops_quanta: int
    assoc_quanta: int
    symmetry_order: int
    symmetry_quanta: int  # k_B T ln R rounded to the nearest quantum
    symmetry_rounded: bool  # True when the term is irrational (R > 1)

    @property
    def total(self) -> int:
        return self.loops_quanta + self.assoc_quanta + self.symmetry_quanta


def interior_like_energy(flat: Flattening, i: int, d: int, e: int, j: int,
                         params: NNParams) -> int:
    """Energy of the loop closed by (i,j) with single inner pair (d,e):
    stack, bulge, or two-sided interior.  Shared by the face-walk energy and
    the candidate-level recursions so both always agree."""
    l1, l2 = d - i - 1, j - e - 1
    if l1 == 0 and l2 == 0:
        key = (flat.base(i), flat.base(i + 1), flat.base(j - 1), flat.base(j))
        return params.table_entry(params.stack, key, "stack")
    if l1 == 0 or l2 == 0:
        return params.size_entry("bulge", l1 + l2)
    outer = (flat.base(i), flat.base(j), flat.base(i + 1), flat.base(j - 1))
    inner = (flat.base(e), flat.base(d), flat.base(e + 1), flat.base(d - 1))
    return (params.size_entry("interior_size", l1 + l2)
            + params.size_entry("interior_asym", abs(l1 - l2))
            + params.table_entry(params.mismatch, outer, "mismatch")
            + params.table_entry(params.mismatch, inner, "mismatch"))


def loop_energy(loop: Loop, flat: Flattening, params: NNParams) -> int:
    if loop.kind == "exterior":
        return 0
    i, j = loop.closing
    if loop.kind == "hairpin":
        m = j - i - 1
        if m < params.min_hairpin:
            raise InvalidInput(f"hairpin of size {m} is geometrically prohibited")
        return params.size_entry("hairpin", m)
    if loop.kind in ("stack", "bulge", "interior"):
        d, e = loop.children[0]
        return interior_like_energy(flat, i, d, e, j, params)
    if loop.kind == "multiloop":
        b = len(loop.children) + 1
        return params.multi_init + b * params.multi_bp + loop.free_bases * params.multi_nt
    raise InvalidInput(f"unknown loop kind {loop.kind}")


def energy_nn_detail(system: StrandSystem, ordering: Sequence[int],
                     structure: SecondaryStructure, params: NNParams) -> NNEnergyDetail:
    return _nn_detail(*_checked_pairs(system, ordering, structure), params)


def _nn_detail(flat: Flattening, pairs: list[tuple[int, int]],
               params: NNParams) -> NNEnergyDetail:
    loop_sum = sum(loop_energy(loop, flat, params) for loop in _faces(flat, pairs))
    assoc = (len(flat.ordering) - 1) * params.assoc
    r = _symmetry(flat, pairs)
    sym = round_log_multiple(params.kbt, r, params.delta) if r > 1 else 0  # ln 1 = 0
    return NNEnergyDetail(loop_sum, assoc, r, sym, r > 1)


# ---------------------------------------------------------------------------
# model wrapper


@dataclass(frozen=True)
class EnergyModel:
    kind: str
    params: Optional[NNParams] = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise InvalidInput(f"unknown energy model kind {self.kind!r}")
        if self.kind == "nn" and self.params is None:
            raise InvalidInput("the nn model needs a parameter set")

    @property
    def delta(self) -> Fraction:
        return self.params.delta if self.kind == "nn" else Fraction(1)


BPM = EnergyModel("bpm")
BPS = EnergyModel("bps")


def nn_model(params: NNParams) -> EnergyModel:
    return EnergyModel("nn", params=params)


def energy(model: EnergyModel, system: StrandSystem,
           structure: SecondaryStructure,
           ordering: Optional[Sequence[int]] = None) -> int:
    """Energy in quanta of ``model.delta``: minus the pair count (BPM), minus
    the stack count (BPS), or the NN energy.  NN needs a crossing-free
    ordering; without one the first circular ordering that has no crossing
    is used."""
    if model.kind == "bpm":
        return -len(structure)
    if model.kind == "bps":
        carried = structure._carried
        if carried is not None and carried[1].flat.system is system:
            return -_stacks(carried[1].flat, carried[0])
        flat = flattening(system)
        return -_stacks(flat, flat.flat_pairs(structure))
    return _nn_detail(*_checked_pairs(system, ordering, structure), model.params).total


# ---------------------------------------------------------------------------
# parameter file format: line-oriented "key = value" under [section] headers

_SIZE_SECTIONS = {
    "hairpin": "hairpin",
    "bulge": "bulge",
    "interior.size": "interior_size",
    "interior.asym": "interior_asym",
}
_BASE_SECTIONS = {"stack": "stack", "mismatch": "mismatch"}


def dump_nn_params(params: NNParams) -> str:
    lines = ["[global]",
             f"delta = {params.delta.numerator}/{params.delta.denominator}",
             f"temperature = {params.temperature.numerator}/{params.temperature.denominator}",
             f"kbt = {params.kbt.numerator}/{params.kbt.denominator}",
             f"assoc = {params.assoc}",
             f"min_hairpin = {params.min_hairpin}",
             "", "[multi]",
             f"init = {params.multi_init}",
             f"bp = {params.multi_bp}",
             f"nt = {params.multi_nt}"]
    for section, attr in _BASE_SECTIONS.items():
        lines += ["", f"[{section}]"]
        table = getattr(params, attr)
        lines += [f"{''.join(k)} = {v}" for k, v in sorted(table.items())]
    for section, attr in _SIZE_SECTIONS.items():
        lines += ["", f"[{section}]"]
        table = getattr(params, attr)
        lines += [f"{k} = {v}" for k, v in sorted(table.items())]
    return "\n".join(lines) + "\n"


def parse_nn_params(text: str) -> NNParams:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise InvalidInput(f"parameter file line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        sections[current][key] = value

    def quanta(section, key, default=None):
        raw = sections.get(section, {}).get(key)
        if raw is None:
            if default is None:
                raise InvalidInput(f"missing [{section}] {key}")
            return default
        q = Fraction(raw)
        if q.denominator != 1:
            raise InvalidInput(f"[{section}] {key} must be an integer number of quanta")
        return int(q)

    g = sections.get("global", {})
    kwargs = dict(
        delta=Fraction(g.get("delta", "1")),
        temperature=Fraction(g.get("temperature", "310")),
        kbt=Fraction(g.get("kbt", "1")),
        assoc=quanta("global", "assoc", 0),
        min_hairpin=quanta("global", "min_hairpin", 3),
        multi_init=quanta("multi", "init", 0),
        multi_bp=quanta("multi", "bp", 0),
        multi_nt=quanta("multi", "nt", 0),
    )
    for section, attr in _BASE_SECTIONS.items():
        table = {}
        for key, raw in sections.get(section, {}).items():
            if len(key) != 4:
                raise InvalidInput(f"[{section}] keys are 4 bases, got {key!r}")
            table[tuple(key.upper())] = quanta(section, key)
        kwargs[attr] = table
    for section, attr in _SIZE_SECTIONS.items():
        kwargs[attr] = {int(k): quanta(section, k)
                        for k in sections.get(section, {})}
    return NNParams(**kwargs)


def load_nn_params(path) -> NNParams:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_nn_params(fh.read())


def toy_params_file(name: str) -> str:
    """Filesystem path of a shipped parameter file ("toy_nn_a" or
    "toy_nn_b")."""
    from importlib.resources import files
    return str(files("exfold").joinpath(f"data/{name}.txt"))


def _full_base_table(value_of) -> dict:
    """Table entry for every 4-base key."""
    return {key: value_of(*key) for key in itertools.product(VALID_BASES, repeat=4)}


def toy_params_a(n: int = 16) -> NNParams:
    """Stabilizing stacks, mildly costly loops; delta = 1.  The size tables
    are explicit up to the loops of n bases (``NNParams.size_table``);
    ``n`` stays because perfbench passes it, until ROADMAP item 1."""
    params = NNParams(
        delta=Fraction(1),
        temperature=Fraction(310),
        kbt=Fraction(3, 2),
        assoc=2,
        multi_init=3,
        multi_bp=1,
        multi_nt=1,
        stack=_full_base_table(
            lambda a, b, c, d: -3 if {a, d} == {"G", "C"} and {b, c} == {"G", "C"} else -2),
        hairpin={3: 3, 4: 2, 5: 2},
        bulge={1: 3, 2: 3, 3: 4},
        interior_size={2: 2, 3: 2, 4: 3},
        interior_asym={0: 0, 1: 1},
        mismatch=_full_base_table(lambda a, b, c, d: 1 if a == "G" else 0),
    )
    return replace(params, **{name: params.size_table(name, n) for name in SIZE_TABLES})


def toy_params_b(n: int = 16) -> NNParams:
    """Finer quantum (delta = 1/2) with positive hairpin shelf and zero
    mismatch terms.  ``n`` as for ``toy_params_a``."""
    params = NNParams(
        delta=Fraction(1, 2),
        temperature=Fraction(310),
        kbt=Fraction(4, 5),
        assoc=3,
        multi_init=5,
        multi_bp=2,
        multi_nt=1,
        stack=_full_base_table(
            lambda a, b, c, d: -5 if (a, d) in (("G", "C"), ("C", "G")) else -4),
        hairpin={3: 4, 4: 3},
        bulge={1: 4, 2: 5},
        interior_size={2: 3, 3: 4},
        interior_asym={0: 0, 1: 1, 2: 2},
        mismatch=_full_base_table(lambda a, b, c, d: 0),
    )
    return replace(params, **{name: params.size_table(name, n) for name in SIZE_TABLES})
