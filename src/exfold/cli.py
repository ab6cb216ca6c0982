"""Batch command-line surface, a thin edge over the library.

Subcommands: enumerate, solve, reduce, levels, hardgen.  All numeric output
is exact ("num/den" rationals, integer quanta); --decimal adds a display
approximation beside the exact field.  Identical inputs produce
byte-identical output.

``_setup`` builds the system, space and model with the library's own
constructors: the NN space is knot-free, connected and takes ``min_hairpin``
from --params; the bpm/bps spaces come from the space flags.  A flag the run
does not read is bad input: one of ``MODEL_FLAGS`` the model does not read,
or --budget on a hardgen action other than verify-bps.

Each ``cmd_*`` imports the modules it runs beyond ``strands`` and ``energy``.

Exit codes: 0 ok, 2 invariant/parsimony mismatch, 3 budget exceeded,
4 bad input, a malformed command line included.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .energy import BPM, BPS, load_nn_params, nn_model, parse_rational
from .strands import (
    DEFAULT_BPS_ENUM_BUDGET,
    DEFAULT_PAIR_BUDGET,
    BudgetExceeded,
    BudgetViolation,
    InvalidInput,
    OracleInconsistency,
    StrandSystem,
    StructureSpace,
    count_structures,
    enumerate_structures,
    nn_space,
    read_strand_file,
)

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_BAD_INPUT = 4

REPORT_EXIT = {"ok": EXIT_OK, "mismatch": EXIT_MISMATCH, "skipped": EXIT_BUDGET}


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _load_system(token: str) -> StrandSystem:
    if set(token) <= set("ACGTUacgtu,"):
        return StrandSystem.from_sequences(*token.upper().split(","))
    return read_strand_file(token)


def _rational(text: str, flag: str) -> Fraction:
    """A --base, -k or --pf-threshold value; a zero denominator or 4300+ digits is bad input."""
    try:
        return Fraction(parse_rational(text, flag))
    except ZeroDivisionError:
        raise InvalidInput(f"zero denominator in {text!r}") from None


def _non_negative(text: str) -> int:
    """A --budget value."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _digits(text: str) -> int:
    """A --decimal value, at most Python's default int-to-text digit limit."""
    if _non_negative(text) > 4300:
        raise argparse.ArgumentTypeError(f"{text!r} exceeds 4300 digits")
    return int(text)


# model-dependent flag -> the models that read it; each defaults to None,
# so a given one shows, a zero included
MODEL_FLAGS = {"--params": ("nn",), "--dp": ("nn",), "--symmetry": ("nn",),
               "--pseudoknots": ("bpm", "bps"), "--connected": ("bpm", "bps"),
               "--min-hairpin": ("bpm", "bps"), "--all-pairs": ("bpm", "bps")}


def _setup(args):
    """(system, space, model) from the strands, --model and the space flags
    (their defaults in levels, which has none); an NN parameter file is used
    as loaded, its size tables continuing above their largest entry as in
    the library."""
    system = _load_system(args.strands)
    if args.model == "nn":
        if not args.params:
            raise InvalidInput("--model nn needs --params FILE")
        params = load_nn_params(args.params)
        return system, nn_space(params.min_hairpin), nn_model(params)
    space = StructureSpace(
        allow_pseudoknots=bool(getattr(args, "pseudoknots", None)),
        require_connected=bool(getattr(args, "connected", None)),
        min_hairpin=getattr(args, "min_hairpin", None) or 0,
        pairing="all" if getattr(args, "all_pairs", None) else "complementary",
    )
    return system, space, BPM if args.model == "bpm" else BPS


def _add_model_flags(p: argparse.ArgumentParser, **strands):
    p.add_argument("strands", **strands)
    p.add_argument("--model", choices=("bpm", "bps", "nn"), default="bpm")
    p.add_argument("--params", help="nn parameter file")


def _add_space_flags(p: argparse.ArgumentParser):
    p.add_argument("--pseudoknots", action="store_true", default=None,
                   help="admit crossing structures")
    p.add_argument("--connected", action="store_true", default=None,
                   help="require the strand graph to be connected")
    p.add_argument("--min-hairpin", type=int, dest="min_hairpin",
                   help="smallest hairpin loop (default 0)")


def _add_budget_flag(p: argparse.ArgumentParser):
    p.add_argument("--budget", type=_non_negative, default=DEFAULT_PAIR_BUDGET,
                   help="maximum number of candidate pairs to enumerate over")


def cmd_enumerate(args) -> int:
    system, space, _ = _setup(args)
    if args.dump:
        structures = list(enumerate_structures(system, space, args.budget))
        payload = {
            "count": len(structures),
            "structures": [[list(pair) for pair in s.sorted_flat(system)]
                           for s in structures],
        }
    else:
        payload = {"count": count_structures(system, space, args.budget)}
    _emit(payload)
    return EXIT_OK


def cmd_solve(args) -> int:
    from .exactmath import rat_to_str
    from .oracles import check_base, dos_brute, pf_decimal

    base = None if args.base is None else check_base(_rational(args.base, "--base"))
    threshold = None if args.pf_threshold is None else _rational(args.pf_threshold,
                                                                 "--pf-threshold")
    if base is None and threshold is not None:
        raise InvalidInput("--pf-threshold needs --base")
    system, space, model = _setup(args)
    dos = dos_brute(system, space, model, args.budget)
    payload = {
        "delta": rat_to_str(model.delta),
        "mfe": str(dos.mfe()),
        "dos": {str(g): str(c) for g, c in sorted(dos.counts.items())},
        "count": str(dos.total()),
    }
    if base is not None:
        pf = dos.pf(base)
        payload["base"] = rat_to_str(base)
        payload["pf"] = rat_to_str(pf)
        if args.decimal:
            payload["pf_decimal"] = pf_decimal(pf, args.decimal)
        if threshold is not None:
            payload["dpf"] = pf >= threshold
    if args.level is not None:
        payload["ssel"] = str(dos.ssel(args.level))
        payload["dmfe"] = dos.mfe() <= args.level
    _emit(payload)
    return EXIT_OK


# name -> what reductions.<name, "_" for "-"> takes after the oracle: the
# levels, the base, -k as a rational ("k") or as an integer level ("level")
REDUCTIONS = {
    "dmfe-via-mfe": ("k",),
    "dpf-via-pf": ("k",),
    "mfe-via-dmfe": ("levels",),
    "mfe-via-ssel": ("levels",),
    "pf-via-ssel": ("levels", "base"),
    "ssel-via-pf": ("levels", "base", "level"),
    "dmfe-via-dpf": ("levels", "k"),
    "pf-via-dpf": ("levels", "base"),
}


def cmd_reduce(args) -> int:
    from . import reductions
    from .exactmath import rat_to_str
    from .levels import candidate_levels
    from .oracles import make_oracle, pf_decimal

    base = _rational(args.base, "--base")
    k = None if args.k is None else _rational(args.k, "-k")
    system, space, model = _setup(args)
    oracle = make_oracle(system, space, model, base)

    def argument(kind):
        if kind == "levels":
            return candidate_levels(system, model)
        if kind == "base":
            return base
        if kind == "level" and (k is None or k.denominator != 1):
            raise InvalidInput(f"{args.reduction} needs an integer -k level")
        if k is None:
            raise InvalidInput(f"{args.reduction} needs -k")
        return int(k) if kind == "level" else k

    reduce = getattr(reductions, args.reduction.replace("-", "_"))
    answer, transcript = reduce(oracle, *map(argument, REDUCTIONS[args.reduction]))
    is_rational = isinstance(answer, Fraction)
    payload = {"reduction": args.reduction,
               "answer": rat_to_str(answer) if is_rational else answer,
               "calls": transcript.call_count}
    if args.decimal and is_rational:
        payload["answer_decimal"] = pf_decimal(answer, args.decimal)
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            fh.write(transcript.to_json() + "\n")
    _emit(payload)
    return EXIT_OK


def cmd_levels(args) -> int:
    from .levels import candidate_levels, levels_bpm

    nn = args.model == "nn"
    if args.n is not None and (nn or args.strands is not None):
        raise InvalidInput(f"levels --model {args.model}{' with strands' if args.strands else ''}"
                           " does not read -n")
    if args.n is not None:
        print(levels_bpm(args.n).to_json())
        return EXIT_OK
    if args.strands is None or (nn and args.params is None):
        raise InvalidInput("--model nn needs strands and --params FILE" if nn
                           else "need -n or strands")
    system, _, model = _setup(args)
    print(candidate_levels(system, model, bool(args.dp), bool(args.symmetry)).to_json())
    return EXIT_OK


def cmd_hardgen(args) -> int:
    from . import hardness

    if args.budget is not None and args.action != "verify-bps":
        raise InvalidInput(f"hardgen {args.action} does not read --budget")
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    if args.action == "4part-from-3dm":
        built = hardness.gen_4part_from_3dm(hardness.ThreeDMInstance.from_json(text))
        _emit({
            "instance": json.loads(built.instance.to_json()),
            "alpha": str(built.alpha),
            "degenerate": built.degenerate,
        })
        return EXIT_OK
    if args.action == "bps-from-4part":
        bps = hardness.gen_bps_from_4part(hardness.FourPartitionInstance.from_json(text))
        print(bps.to_json())
        return EXIT_OK
    if args.action == "verify-bps":
        report = hardness.verify_parsimony_bps(
            hardness.FourPartitionInstance.from_json(text),
            DEFAULT_BPS_ENUM_BUDGET if args.budget is None else args.budget)
    else:
        report = hardness.verify_parsimony_4part(hardness.ThreeDMInstance.from_json(text))
    print(report.to_json())
    return REPORT_EXIT[report.status]


class _Parser(argparse.ArgumentParser):
    """A malformed command line exits EXIT_BAD_INPUT: argparse's own 2 is
    this program's mismatch code.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exfold",
        description="exact secondary-structure thermodynamics toolkit")
    parser.add_argument("--decimal", type=_digits, default=0,
                        help="also render rationals with this many decimal digits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list/count structures of a space")
    _add_model_flags(p)
    p.add_argument("--all-pairs", action="store_true", default=None, dest="all_pairs",
                   help="ignore complementarity (calibration mode)")
    p.add_argument("--dump", action="store_true")
    _add_space_flags(p)
    _add_budget_flag(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("solve", help="exact MFE/DoS/PF answers via the brute oracle")
    _add_model_flags(p)
    p.add_argument("--base", help="rational Boltzmann base per quantum, e.g. 2 or 1/2")
    p.add_argument("--level", type=int, help="energy level (quanta) for ssel/dmfe")
    p.add_argument("--pf-threshold", dest="pf_threshold",
                   help="rational threshold for dpf")
    _add_space_flags(p)
    _add_budget_flag(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="run one arrow of the reduction map")
    p.add_argument("reduction", choices=REDUCTIONS)
    _add_model_flags(p)
    p.add_argument("--base", default="2")
    p.add_argument("-k", help="threshold/level argument where applicable; write a "
                              "negative non-integer as -k=-1/2")
    p.add_argument("--transcript", help="write the oracle-call transcript here")
    _add_space_flags(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("levels", help="candidate energy-level sets")
    _add_model_flags(p, nargs="?")
    p.add_argument("-n", type=int, help="base count for bpm/bps closed forms")
    p.add_argument("--dp", action="store_true", default=None,
                   help="nn: exact occupied levels (symmetry-free) via the count DP")
    p.add_argument("--symmetry", action="store_true", default=None,
                   help="augment with rotational-symmetry penalty levels")
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("hardgen", help="hardness instances and parsimony checks")
    p.add_argument("action", choices=(
        "4part-from-3dm", "bps-from-4part", "verify-bps", "verify-4part"))
    p.add_argument("file", help="instance JSON file")
    p.add_argument("--budget", type=_non_negative,
                   help="verify-bps: pairable-base budget for the enumeration route")
    p.set_defaults(func=cmd_hardgen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        model = getattr(args, "model", None)
        unread = [flag for flag, models in MODEL_FLAGS.items() if model not in models
                  and getattr(args, flag[2:].replace("-", "_"), None) is not None]
        if unread:
            raise InvalidInput(f"{args.command} --model {model} does not read "
                               f"{', '.join(unread)}")
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OracleInconsistency, BudgetViolation) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (InvalidInput, ValueError, OSError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
