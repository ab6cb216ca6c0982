"""The three energy functions (BPM, BPS, NN), loop decomposition, rotational
symmetry, and NN parameter files.

The face walk and the rotational symmetry are computed on sorted flat pairs
under one ``Flattening``, for NN from ``strands.place``; every model checks
a structure its enumeration did not (``checked_flat``).  ``Loop`` and
``NNEnergyDetail`` records are built only at the API edge.

Energies are integers counting quanta of a global granularity ``delta``
(a positive rational): BPM and BPS use delta = 1, NN parameter sets declare
their own, so every comparison and partition-function identity downstream
is exact.  Magnification is applied by the oracles, not by a model.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence

from .strands import (
    VALID_BASES,
    Flattening,
    InvalidInput,
    SecondaryStructure,
    StrandSystem,
    checked_flat,
    flattening,
    place,
)

VALID_KINDS = ("bpm", "bps", "nn")
LOG_ROUND_CACHE_SIZE = 1024
# NNParams size table -> its name in messages
SIZE_TABLES = {"hairpin": "hairpin", "bulge": "bulge",
               "interior_size": "interior size", "interior_asym": "interior asymmetry"}


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
    length has an energy.  The defaults are the field defaults below; a
    parameter file (``PARAM_FILE``) sets only the fields it names.
    """

    delta: Fraction = Fraction(1)
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
        if self.delta <= 0 or self.kbt <= 0 or self.min_hairpin < 0:
            raise InvalidInput("delta and kbt must be positive and min_hairpin >= 0")
        # size_entry's lookup copies, where it memoises what it extrapolates, and
        # derived's memo; not fields, so equality, repr and dump_nn_params ignore them
        object.__setattr__(self, "_sizes", {name: dict(getattr(self, name))
                                            for name in SIZE_TABLES})
        object.__setattr__(self, "_derived", {})

    def derived(self, key: tuple, build):
        """build(), kept under ``key`` once it returns; a raise keeps nothing."""
        memo = self._derived
        return memo[key] if key in memo else memo.setdefault(key, build())

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

    def loop_sizes(self, name: str, n: int) -> range:
        """The sizes of the loops of table ``name``'s kind on n bases: from the
        smallest legal one up to max(n, 3) for hairpins, max(n, 1) for bulges,
        max(n, 2) for interior sizes and max(n - 2, 0) for asymmetries."""
        first, floor, less = {"hairpin": (self.min_hairpin, 3, 0), "bulge": (1, 1, 0),
                              "interior_size": (2, 2, 0), "interior_asym": (0, 0, 2)}[name]
        return range(first, max(n - less, floor) + 1)

    def size_table(self, name: str, n: int) -> dict:
        """The size table ``name`` continued up to the largest loop of its
        kind on n bases (``loop_sizes``); empty when the table is."""
        table = getattr(self, name)
        above = range(max(table) + 1, self.loop_sizes(name, n).stop) if table else ()
        return {**table, **{m: self.size_entry(name, m) for m in above}}


def round_log_multiple(coef: Fraction, arg: int, delta: Fraction) -> int:
    """Nearest-integer quanta for coef * ln(arg) / delta, an irrational for
    arg >= 2 and coef != 0.

    Computed with 60 significant decimal digits.  A value within 1e-40 of a
    half-integer is refused, not rounded: at that distance the working
    precision no longer decides the side.
    """
    return _round_log(*coef.as_integer_ratio(), arg, *delta.as_integer_ratio())


@functools.lru_cache(maxsize=LOG_ROUND_CACHE_SIZE)
def _round_log(coef_num: int, coef_den: int, arg: int, delta_num: int, delta_den: int) -> int:
    """``round_log_multiple`` cached on ints, which hash in C, not Fractions."""
    if arg < 1:
        raise InvalidInput("logarithm argument must be >= 1")
    if arg == 1 or coef_num == 0:
        return 0
    with localcontext() as ctx:
        ctx.prec = 60
        value = (Decimal(coef_num * delta_den) * Decimal(arg).ln()
                 / Decimal(coef_den * delta_num))
        nearest = value.to_integral_value()
        if abs(abs(value - nearest) - Decimal("0.5")) < Decimal("1e-40"):
            raise InvalidInput(f"{Fraction(coef_num, coef_den)} * ln({arg}) / "
                               f"{Fraction(delta_num, delta_den)} is too close to a "
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
    """Face decomposition of the polymer graph under ``ordering``: a ``Loop``
    for each face of ``_faces``, the walk ``energy`` reads without them.

    The root face always exists (it contains the wrap-around gap of the
    circular layout) and is an exterior loop; every pair owns exactly one
    further face.  Requires a valid, crossing-free, connected input.
    """
    flat, pairs = place(system, structure, ordering)
    loops = [Loop(_kind(closing, kids, nicks), closing, tuple(kids), free, nicks)
             for closing, kids, free, nicks in _faces(flat, pairs)]
    assert sum(loop.free_bases for loop in loops) == len(flat.sequence) - 2 * len(pairs)
    return loops


def _faces(flat: Flattening, pairs: Sequence[tuple[int, int]]) -> list[list]:
    """The face walk of crossing-free sorted flat pairs: ``[closing pair,
    children, free bases, nicks bordering it]`` for the root (closing None),
    then for each pair in sorted order.  One sweep nests each pair in the
    innermost open one and takes its span, and the nicks inside it, off
    that face's.  The root's nicks count the wrap-around gap, so a face is
    an exterior loop exactly when it has a nick."""
    n, before = len(flat.sequence), flat.nicks_before  # nicks in [lo, hi-1]: before[hi] - before[lo]
    faces = [[None, [], n, before[n + 1] + 1]]  # +1: the wrap gap
    stack = [(n + 1, faces[0])]  # (end, face) of the root and the open pairs
    for d, e in pairs:
        while stack[-1][0] < d:
            stack.pop()
        parent, face = stack[-1][1], [(d, e), [], e - d - 1, before[e] - before[d]]
        parent[1].append(face[0])
        parent[2] -= e - d + 1
        parent[3] -= face[3]
        faces.append(face)
        stack.append((e, face))
    return faces


def _kind(closing: Optional[tuple[int, int]], kids: list, nicks: int) -> str:
    if nicks or len(kids) != 1:
        return "exterior" if nicks else "multiloop" if kids else "hairpin"
    (d, e), (i, j) = kids[0], closing
    return ("interior", "bulge", "stack")[(d == i + 1) + (e == j - 1)]


# ---------------------------------------------------------------------------
# rotational symmetry


def rotational_symmetry(system: StrandSystem, ordering: Sequence[int],
                        structure: SecondaryStructure) -> int:
    """Largest divisor R of v(pi) whose strand rotation fixes the pair set."""
    flat = flattening(system, ordering)
    return _symmetry(flat, flat.from_identity(checked_flat(system, structure)))


def _symmetry(flat: Flattening, pairs: Sequence[tuple[int, int]]) -> int:
    """Rotating by c/R strand slots, for R dividing v(pi), maps strands onto
    strands with equal sequences, so it shifts every flat position by n/R
    (mod n)."""
    v = flat.symmetry_order
    if v == 1:
        return 1
    n, have = len(flat.sequence), set(pairs)
    for r in range(v, 1, -1):  # the largest R first
        k = n // r
        if v % r == 0 and have == {tuple(sorted(((i + k - 1) % n + 1, (j + k - 1) % n + 1)))
                                   for i, j in pairs}:
            return r
    return 1


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
    stack, bulge, or two-sided interior.  ``nn_level_counts`` reads this
    formula off per-call tables and calls it for a term whose table slot is
    empty, so a missing entry raises the same error in both."""
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


def _face_energy(flat: Flattening, closing: Optional[tuple[int, int]], kids: Sequence,
                 free: int, nicks: int, params: NNParams) -> int:
    """Energy of a face of ``_faces``: 0 for an exterior loop (one with a
    nick), else a hairpin, a loop with one inner pair
    (``interior_like_energy``) or a multiloop."""
    if nicks:
        return 0
    i, j = closing
    if not kids:
        if free < params.min_hairpin:
            raise InvalidInput(f"hairpin of size {free} is geometrically prohibited")
        return params.size_entry("hairpin", free)
    if len(kids) == 1:
        d, e = kids[0]
        return interior_like_energy(flat, i, d, e, j, params)
    return params.multi_init + (len(kids) + 1) * params.multi_bp + free * params.multi_nt


def energy_nn_detail(system: StrandSystem, ordering: Sequence[int],
                     structure: SecondaryStructure, params: NNParams) -> NNEnergyDetail:
    terms = _nn_terms(*place(system, structure, ordering), params)
    return NNEnergyDetail(*terms, terms[2] > 1)


def _nn_terms(flat: Flattening, pairs: Sequence[tuple[int, int]],
              params: NNParams) -> tuple[int, int, int, int]:
    """Loop quanta, association quanta, symmetry order R and symmetry quanta
    of placed pairs.  The loops are scored in face order, before the
    symmetry term, so a missing entry or a short hairpin raises first."""
    loops = sum(_face_energy(flat, *face, params) for face in _faces(flat, pairs))
    r = _symmetry(flat, pairs)
    sym = round_log_multiple(params.kbt, r, params.delta) if r > 1 else 0  # ln 1 = 0
    return loops, (len(flat.ordering) - 1) * params.assoc, r, sym


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
    the stack count (BPS), or the NN energy, summed over the faces of
    ``_faces`` without a ``Loop`` or an ``NNEnergyDetail``.  NN needs a
    crossing-free ordering; without one the first circular ordering that
    has no crossing is used.  A structure is checked unless its enumeration
    checked it in ``system`` (``_Origin.checked_in``)."""
    if model.kind == "bpm":
        carried = structure._carried
        return -len(carried[0] if carried is not None and carried[1].checked_in(system)
                    else checked_flat(system, structure))
    if model.kind == "bps":
        return -structure.stacks(system)
    loops, assoc, _, sym = _nn_terms(*place(system, structure, ordering), model.params)
    return loops + assoc + sym


# ---------------------------------------------------------------------------
# parameter file format: line-oriented "key = value" under [section] headers

_BASES = frozenset(VALID_BASES)
# [section] -> {key: NNParams field} for the scalars, or the table field whose
# keys the section lists; parse_nn_params and dump_nn_params both read it
PARAM_FILE = {
    "global": {"delta": "delta", "kbt": "kbt", "assoc": "assoc", "min_hairpin": "min_hairpin"},
    "multi": {"init": "multi_init", "bp": "multi_bp", "nt": "multi_nt"},
    "stack": "stack", "mismatch": "mismatch", "hairpin": "hairpin", "bulge": "bulge",
    "interior.size": "interior_size", "interior.asym": "interior_asym",
}


def dump_nn_params(params: NNParams) -> str:
    """Every field, in ``PARAM_FILE`` order; ``parse_nn_params`` reads it back."""
    lines = []
    for section, fields in PARAM_FILE.items():
        if isinstance(fields, dict):
            entries = [(key, getattr(params, attr)) for key, attr in fields.items()]
        else:
            entries = [("".join(key) if isinstance(key, tuple) else key, value)
                       for key, value in sorted(getattr(params, fields).items())]
        lines += ["", f"[{section}]"] + [
            f"{key} = {value.numerator}/{value.denominator}" if isinstance(value, Fraction)
            else f"{key} = {value}" for key, value in entries]
    return "\n".join(lines[1:]) + "\n"


def parse_rational(text: str, name: str):
    """``text`` as an int, or else a Fraction, for parameter files and CLI flags.
    More than 4300 digits in its numerator or denominator is bad input named
    ``name``; ValueError and ZeroDivisionError reach the caller."""
    # an exponent of 10000 or more, or a run of more digits than int() reads
    if re.search(r"[eE][-+]?0*[1-9]\d{4}", text) or len(text) > 4300 and any(
            len(run) - run.count(".") > 4300 for run in re.findall(r"[\d.]+", text)):
        raise InvalidInput(f"{name} has more than 4300 digits")
    q = int(text) if text.lstrip("-").isdigit() else Fraction(text)  # int() is the faster
    if type(q) is Fraction and max(abs(q.numerator), q.denominator) >= 10**4300:
        raise InvalidInput(f"{name} has more than 4300 digits")
    return q


def parse_nn_params(text: str) -> NNParams:
    """The ``NNParams`` a parameter file names; a field it leaves out keeps its
    default.  An unknown section or key, a key given twice, a stack or
    mismatch key that is not 4 bases from ACGTU, a size key that is not a
    non-negative integer, and a value that is not a rational, has a
    numerator or denominator of more than 4300 digits, or outside delta and
    kbt is not an integer number of quanta, are bad input."""
    kwargs: dict = {}
    section = table = None  # table: kwargs for a scalar section, else its field's dict
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"parameter file line {lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in PARAM_FILE:
                raise InvalidInput(f"{where}: unknown section [{section}]")
            fields = PARAM_FILE[section]
            table = kwargs if isinstance(fields, dict) else kwargs.setdefault(fields, {})
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq or table is None:
            raise InvalidInput(f"{where}: expected 'key = value'")
        name = f"[{section}] {key}"
        if table is kwargs:
            slot = fields.get(key)
            if slot is None:
                raise InvalidInput(f"{where}: unknown key {name}")
        elif fields in SIZE_TABLES:
            if not (key.isascii() and key.isdigit()):
                raise InvalidInput(f"{where}: {name} is not a non-negative integer size")
            slot = int(key)
        else:
            slot = tuple(key.upper())
            if len(slot) != 4 or not _BASES.issuperset(slot):
                raise InvalidInput(f"{where}: {name} is not 4 bases from {VALID_BASES}")
        if slot in table:
            raise InvalidInput(f"{where}: {name} is given twice")
        try:
            quantity = parse_rational(value, f"{where}: {name}")
        except ZeroDivisionError:
            raise InvalidInput(f"{name} has a zero denominator: {value!r}") from None
        except InvalidInput:
            raise
        except ValueError:
            raise InvalidInput(f"{where}: {name} is not a rational: {value!r}") from None
        rational = table is kwargs and isinstance(getattr(NNParams, slot), Fraction)  # delta, kbt
        if not rational and quantity.denominator != 1:
            raise InvalidInput(f"{where}: {name} must be an integer number of quanta")
        table[slot] = Fraction(quantity) if rational else int(quantity)
    return NNParams(**kwargs)


def load_nn_params(path) -> NNParams:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_nn_params(fh.read())


def toy_params_file(name: str) -> str:
    """Filesystem path of a shipped parameter file ("toy_nn_a" or
    "toy_nn_b")."""
    from importlib.resources import files
    return str(files("exfold").joinpath(f"data/{name}.txt"))


_load_shipped = functools.lru_cache(maxsize=None)(load_nn_params)


def _toy_params(name: str, n: int) -> NNParams:
    """The shipped set ``name``, parsed once per process, with copies of its
    tables, the size tables cut or continued to the loops of max(n, 4)
    bases: a cut lower would move the top they continue from."""
    params = _load_shipped(toy_params_file(name))
    return replace(params, stack=dict(params.stack), mismatch=dict(params.mismatch), **{
        table: {m: params.size_entry(table, m) for m in params.loop_sizes(table, max(n, 4))}
        for table in SIZE_TABLES})


def toy_params_a(n: int = 16) -> NNParams:
    """``toy_nn_a.txt``: stabilizing stacks, mildly costly loops; delta = 1.
    Its size tables are explicit up to the loops of max(n, 4) bases."""
    return _toy_params("toy_nn_a", n)


def toy_params_b(n: int = 16) -> NNParams:
    """``toy_nn_b.txt``: delta = 1/2, a positive hairpin shelf and zero
    mismatch terms.  ``n`` as for ``toy_params_a``."""
    return _toy_params("toy_nn_b", n)
