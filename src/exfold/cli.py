"""Batch command-line surface.

Subcommands: enumerate, solve, reduce, levels, hardgen.  All numeric output
is exact ("num/den" rationals, integer quanta); --decimal adds a display
approximation and never replaces the exact field.  Identical inputs produce
byte-identical output.

Exit codes: 0 ok, 2 invariant/parsimony mismatch, 3 budget exceeded,
4 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import hardness, levels as levels_mod, oracles, reductions
from .energy import BPM, BPS, finalize_params, load_nn_params, nn_model
from .exactmath import rat_to_str
from .oracles import pf_decimal
from .strands import (
    BudgetExceeded,
    InvalidInput,
    StrandSystem,
    StructureSpace,
    count_structures,
    enumerate_structures,
    parse_strands,
    read_strand_file,
)

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_BAD_INPUT = 4

REDUCTION_NAMES = (
    "dmfe-via-mfe", "dpf-via-pf", "mfe-via-dmfe", "mfe-via-ssel",
    "pf-via-ssel", "ssel-via-pf", "dmfe-via-dpf", "pf-via-dpf",
)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _load_system(token: str) -> StrandSystem:
    if token.startswith("@"):
        return read_strand_file(token[1:])
    if set(token) <= set("ACGTUacgtu,"):
        return StrandSystem.from_sequences(*token.upper().split(","))
    return read_strand_file(token)


def _space_from_args(args) -> StructureSpace:
    if getattr(args, "model", "bpm") == "nn":
        return StructureSpace(allow_pseudoknots=False, require_connected=True,
                              min_hairpin=3)
    return StructureSpace(
        allow_pseudoknots=args.pseudoknots,
        require_connected=args.connected,
        min_hairpin=args.min_hairpin,
        pairing="all" if getattr(args, "all_pairs", False) else "complementary",
    )


def _nn_params(path, system: StrandSystem):
    """A parameter file's tables, extended to the sizes reachable in the
    system: the shipped files stop at loop size 16."""
    return finalize_params(load_nn_params(path), system.n)


def _model_from_args(args, system: StrandSystem):
    if args.model == "bpm":
        return BPM
    if args.model == "bps":
        return BPS
    if args.model == "nn":
        if not getattr(args, "params", None):
            raise InvalidInput("--model nn needs --params FILE")
        return nn_model(_nn_params(args.params, system))
    raise InvalidInput(f"unknown model {args.model}")


def _add_space_flags(p: argparse.ArgumentParser):
    p.add_argument("--pseudoknots", action="store_true",
                   help="admit crossing structures")
    p.add_argument("--connected", action="store_true",
                   help="require the strand graph to be connected")
    p.add_argument("--min-hairpin", type=int, default=0, dest="min_hairpin")
    p.add_argument("--budget", type=int, default=64,
                   help="maximum number of candidate pairs to enumerate over")


def cmd_enumerate(args) -> int:
    system = _load_system(args.strands)
    space = _space_from_args(args)
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
    system = _load_system(args.strands)
    space = _space_from_args(args)
    model = _model_from_args(args, system)
    dos = oracles.dos_brute(system, space, model, args.budget)
    payload = {
        "delta": rat_to_str(model.delta),
        "mfe": str(dos.mfe()),
        "dos": {str(g): str(c) for g, c in sorted(dos.counts.items())},
        "count": str(dos.total()),
    }
    if args.base is not None:
        base = Fraction(args.base)
        pf = dos.pf(base)
        payload["base"] = rat_to_str(base)
        payload["pf"] = rat_to_str(pf)
        if args.decimal:
            payload["pf_decimal"] = pf_decimal(pf, args.decimal)
        if args.pf_threshold is not None:
            payload["dpf"] = pf >= Fraction(args.pf_threshold)
    if args.level is not None:
        payload["ssel"] = str(dos.ssel(args.level))
        payload["dmfe"] = dos.mfe() <= args.level
    _emit(payload)
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.model == "nn":
        raise InvalidInput("reduce drives the temperature-independent models; "
                           "use the library API for nn")
    system = _load_system(args.strands)
    space = _space_from_args(args)
    model = _model_from_args(args, system)
    base = Fraction(args.base)
    oracle = oracles.make_oracle(system, space, model, base)
    lv = levels_mod.levels_bpm(system.n) if args.model == "bpm" \
        else levels_mod.levels_bps(system.n)

    name = args.reduction
    k_int = None
    if args.k is not None:
        k_frac = Fraction(args.k)
        k_int = int(k_frac) if k_frac.denominator == 1 else None

    if name == "dmfe-via-mfe":
        if args.k is None:
            raise InvalidInput("dmfe-via-mfe needs -k")
        answer, transcript = reductions.dmfe_via_mfe(oracle, Fraction(args.k))
    elif name == "dpf-via-pf":
        if args.k is None:
            raise InvalidInput("dpf-via-pf needs -k")
        answer, transcript = reductions.dpf_via_pf(oracle, Fraction(args.k))
    elif name == "mfe-via-dmfe":
        answer, transcript = reductions.mfe_via_dmfe(oracle, lv)
    elif name == "mfe-via-ssel":
        answer, transcript = reductions.mfe_via_ssel(oracle, lv)
    elif name == "pf-via-ssel":
        answer, transcript = reductions.pf_via_ssel(oracle, lv, base)
    elif name == "ssel-via-pf":
        if k_int is None:
            raise InvalidInput("ssel-via-pf needs an integer -k level")
        answer, transcript = reductions.ssel_via_pf(oracle, lv, base, k_int)
    elif name == "dmfe-via-dpf":
        if args.k is None:
            raise InvalidInput("dmfe-via-dpf needs -k")
        answer, transcript = reductions.dmfe_via_dpf(oracle, lv, Fraction(args.k))
    elif name == "pf-via-dpf":
        answer, transcript = reductions.pf_via_dpf(oracle, lv, base)
    else:
        raise InvalidInput(f"unknown reduction {name}")

    if isinstance(answer, Fraction):
        shown = rat_to_str(answer)
    else:
        shown = answer
    payload = {"reduction": name, "answer": shown, "calls": transcript.call_count}
    if args.decimal and isinstance(answer, Fraction):
        payload["answer_decimal"] = pf_decimal(answer, args.decimal)
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            fh.write(transcript.to_json() + "\n")
    _emit(payload)
    return EXIT_OK


def cmd_levels(args) -> int:
    if args.model in ("bpm", "bps"):
        if args.n is None:
            if args.strands is None:
                raise InvalidInput("need -n or strands")
            args.n = _load_system(args.strands).n
        lv = levels_mod.levels_bpm(args.n) if args.model == "bpm" \
            else levels_mod.levels_bps(args.n)
        print(lv.to_json())
        return EXIT_OK
    if args.strands is None or args.params is None:
        raise InvalidInput("--model nn needs strands and --params FILE")
    system = _load_system(args.strands)
    params = _nn_params(args.params, system)
    ordering = system.identity_ordering()
    if args.dp:
        lv = levels_mod.levels_nn_dp(system, ordering, params)
    else:
        lv = levels_mod.levels_nn_grid(system, params)
    if args.symmetry:
        lv = levels_mod.augment_symmetry(lv, system, ordering, params)
    print(lv.to_json())
    return EXIT_OK


def cmd_hardgen(args) -> int:
    action = args.action
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    if action == "4part-from-3dm":
        built = hardness.gen_4part_from_3dm(hardness.ThreeDMInstance.from_json(text))
        _emit({
            "instance": json.loads(built.instance.to_json()),
            "alpha": str(built.alpha),
            "degenerate": built.degenerate,
        })
        return EXIT_OK
    if action == "bps-from-4part":
        inst = hardness.FourPartitionInstance.from_json(text)
        bps = hardness.gen_bps_from_4part(inst)
        _emit({"strand": bps.strand, "target_stacks": bps.target_stacks})
        return EXIT_OK
    if action == "verify-bps":
        inst = hardness.FourPartitionInstance.from_json(text)
        report = hardness.verify_parsimony_bps(inst, enum_budget=args.budget)
        print(report.to_json())
        if report.status == "mismatch":
            return EXIT_MISMATCH
        if report.status == "skipped":
            return EXIT_BUDGET
        if report.status == "invalid":
            return EXIT_BAD_INPUT
        return EXIT_OK
    if action == "verify-4part":
        inst = hardness.ThreeDMInstance.from_json(text)
        report = hardness.verify_parsimony_4part(inst)
        print(report.to_json())
        if report.status == "mismatch":
            return EXIT_MISMATCH
        if report.status == "skipped":
            return EXIT_BUDGET
        return EXIT_OK
    raise InvalidInput(f"unknown hardgen action {action}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exfold",
        description="exact secondary-structure thermodynamics toolkit")
    parser.add_argument("--decimal", type=int, default=0,
                        help="also render rationals with this many decimal digits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list/count structures of a space")
    p.add_argument("strands")
    p.add_argument("--model", choices=("bpm", "bps", "nn"), default="bpm")
    p.add_argument("--params", help="nn parameter file")
    p.add_argument("--all-pairs", action="store_true", dest="all_pairs",
                   help="ignore complementarity (calibration mode)")
    p.add_argument("--dump", action="store_true")
    _add_space_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("solve", help="exact MFE/DoS/PF answers via the brute oracle")
    p.add_argument("strands")
    p.add_argument("--model", choices=("bpm", "bps", "nn"), default="bpm")
    p.add_argument("--params", help="nn parameter file")
    p.add_argument("--base", help="rational Boltzmann base per quantum, e.g. 2 or 1/2")
    p.add_argument("--level", type=int, help="energy level (quanta) for ssel/dmfe")
    p.add_argument("--pf-threshold", dest="pf_threshold",
                   help="rational threshold for dpf")
    _add_space_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="run one arrow of the reduction map")
    p.add_argument("reduction", choices=REDUCTION_NAMES)
    p.add_argument("strands")
    p.add_argument("--model", choices=("bpm", "bps"), default="bpm")
    p.add_argument("--base", default="2")
    p.add_argument("-k", help="threshold/level argument where applicable")
    p.add_argument("--transcript", help="write the oracle-call transcript here")
    _add_space_flags(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("levels", help="candidate energy-level sets")
    p.add_argument("strands", nargs="?")
    p.add_argument("--model", choices=("bpm", "bps", "nn"), default="bpm")
    p.add_argument("-n", type=int, help="base count for bpm/bps closed forms")
    p.add_argument("--params", help="nn parameter file")
    p.add_argument("--dp", action="store_true",
                   help="nn: exact occupied levels (symmetry-free) via the sumset DP")
    p.add_argument("--symmetry", action="store_true",
                   help="augment with rotational-symmetry penalty levels")
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("hardgen", help="hardness instances and parsimony checks")
    p.add_argument("action", choices=(
        "4part-from-3dm", "bps-from-4part", "verify-bps", "verify-4part"))
    p.add_argument("file", help="instance JSON file")
    p.add_argument("--budget", type=int, default=hardness.DEFAULT_BPS_ENUM_BUDGET,
                   help="pairable-base budget for the enumeration route")
    p.set_defaults(func=cmd_hardgen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (reductions.OracleInconsistency, reductions.BudgetViolation) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (InvalidInput, ValueError, OSError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
