"""Command-line front end.

Subcommands:

  validate   check the filtration laws on an instance file
  classify   classify the sequence in an instance file against its filtration
  demo       build a named example, classify it and its absolute sequence
  verify     run the theorem-evidence checks
  gen        write an instance file for any builder

Exit codes, as README states them: 0 ok, 1 a VIOLATED check or a failed law,
2 bad input or arguments (one ``error:`` line), 3 an internal error (one
``internal error: <type>: <message>`` line).  All randomness flows from --seed.
Reports are strict JSON with --json (a non-finite number is written as null),
human-readable otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .filtration import (
    Filtration,
    build_copy,
    build_dyadic,
    build_random_nested,
    build_truncation,
    validate,
)
from .martingales import (
    DEFAULT_WINDOW_FRACTION,
    VectorSequence,
    abs_seq,
    check_lattice_closure,
    classify,
    haar_example,
    harmonic_tail_example,
    null_sequence,
    one_step_defects,
    pairing_example,
    scale_head,
)
from .spaces import DEFAULT_TOL, basis


def _null_example(n: int, _args: argparse.Namespace) -> tuple[Filtration, VectorSequence]:
    filt = build_truncation(n)
    return filt, null_sequence(basis(filt.space, 1), n)


def _scale_head_example(
    levels: int, _args: argparse.Namespace
) -> tuple[Filtration, VectorSequence]:
    filt, base = haar_example(levels)
    return filt, scale_head(base, 2.0)


#: name -> (default size, builder(size, parsed args; only random-nested reads its --seed),
#: what the demo shows or None for a builder that gen alone offers)
BUILDERS = {
    "truncation": (16, lambda n, _args: (build_truncation(n), None), None),
    "dyadic": (3, lambda n, _args: (build_dyadic(n), None), None),
    "random-nested": (16, lambda n, args: (build_random_nested(n, n, args.seed), None), None),
    "copy": (16, lambda n, _args: (build_copy(n), None), None),
    "haar": (
        3,
        lambda n, _args: haar_example(n),
        "the scaled-indicator sequence is a martingale, but its absolute "
        "sequence loses the one-step law at every index",
    ),
    "pairing": (
        3,
        lambda n, _args: pairing_example(n),
        "the alternating-pair sequence is a martingale, but its absolute "
        "sequence has no eventual witness (first one-step defect 1)",
    ),
    "harmonic": (
        64,
        lambda n, _args: harmonic_tail_example(n)[:2],
        "the harmonic-tail sequence has no eventual witness yet its defect "
        "profile 1/n certifies it asymptotic",
    ),
    "null": (
        64,
        _null_example,
        "a sequence shrinking to zero is asymptotic for any contractive "
        "filtration without ever satisfying the one-step law exactly",
    ),
    "scale-head": (
        3,
        _scale_head_example,
        "doubling only the first term breaks the martingale law but leaves "
        "an eventual witness at index 2",
    ),
}
GEN_BUILDERS = tuple(BUILDERS)
DEMO_NAMES = tuple(name for name, (_, _, shows) in BUILDERS.items() if shows is not None)
#: ``harness.CHECK_IDS``, written out so that building the parser does not
#: import the harness, which only ``verify`` runs; a test keeps the two equal
CHECK_IDS = (
    "nesting", "closed-limits", "limit-defect", "tail-approx",
    "eventual-not-closed", "abs-closure", "band-lattice", "abs-alignment",
)


def _finite(value):
    """``value`` with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(_finite(payload), indent=2, allow_nan=False))
    else:
        for line in lines:
            print(line)


def cmd_validate(args: argparse.Namespace) -> int:
    from .jsonio import InstanceFormatError, load_instance
    instance = load_instance(args.path)
    if instance.filtration is None:
        raise InstanceFormatError("instance file has no filtration to validate")
    report = validate(instance.filtration, args.contractive, args.tol)
    lines = []
    for check in report["checks"]:
        state = "pass" if check["passed"] else "FAIL"
        where = "" if check["witness"] is None else f" at {check['witness']}"
        lines.append(f"[validate] {check['law']}: {state} (worst {check['worst']:.3e}{where})")
    lines.append(f"[validate] overall: {'pass' if report['passed'] else 'FAIL'}")
    _emit(report, args.json, lines)
    return 0 if report["passed"] else 1


def cmd_classify(args: argparse.Namespace) -> int:
    from .jsonio import InstanceFormatError, load_instance
    instance = load_instance(args.path)
    if instance.filtration is None or instance.sequence is None:
        raise InstanceFormatError(
            "classification needs both a filtration and a sequence in the file"
        )
    report = classify(instance.sequence, instance.filtration, tol=args.tol, eps=args.eps_x,
                      window_fraction=args.window)
    d = report.to_dict()
    lines = [
        f"[classify] martingale: {report.is_martingale}",
        f"[classify] eventual witness: {report.e_witness}",
        f"[classify] tail verdict: {report.x_verdict.value}",
        f"[classify] sequence norm: {report.seq_norm:.6g}",
        f"[classify] defects: head {report.x_defects[0]:.3e}, "
        f"tail {report.x_defects[-1]:.3e}",
    ]
    _emit(d, args.json, lines)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    name, size = args.name, args.size
    default_size, build, expected = BUILDERS[name]
    filt, seq = build(default_size if size is None else size, args)
    closure = check_lattice_closure(seq, filt)
    steps_abs = one_step_defects(abs_seq(seq), filt)
    payload = {
        "demo": name,
        "size": size,
        "expected": expected,
        "report": closure,
        "abs_one_step_defects": [float(v) for v in steps_abs],
    }
    base, abs_ = closure["base"], closure["abs"]
    lines = [
        f"[demo:{name}] {expected}",
        f"[demo:{name}] A: martingale={base['is_martingale']} "
        f"witness={base['e_witness']} verdict={base['x_verdict']} "
        f"norm={base['seq_norm']:.6g}",
        f"[demo:{name}] |A|: martingale={abs_['is_martingale']} "
        f"witness={abs_['e_witness']} verdict={abs_['x_verdict']} "
        f"first one-step defect={steps_abs[0]:.6g}",
    ]
    if name == "pairing":
        lines.append(
            f"[demo:{name}] index note: stage n keeps the first 2n coordinates; "
            "the all-averaging stage and the zero initial term of the raw "
            "construction are both omitted, so indices here start at 1"
        )
    _emit(payload, args.json, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .harness import CLAIMS, CheckStatus, run_check
    ids = CHECK_IDS if args.id == "all" else (args.id,)
    results = []
    for check_id in ids:
        results.extend(run_check(check_id, args.seed, args.trials))
    lines = []
    for r in results:
        lines.append(
            f"[verify:{r['id']}] {r['status'].value} "
            f"({json.dumps(r['descriptor'], sort_keys=True)})"
        )
    violated = sum(r["status"] is CheckStatus.VIOLATED for r in results)
    sampled = [check_id for check_id in ids if CLAIMS[check_id][0]]  # reads trials
    trials = f", trials={args.trials} for {', '.join(sampled)}" if sampled else ""
    lines.append(
        f"[verify] {len(results)} results, {violated} violated (seed={args.seed}{trials})"
    )
    _emit({"results": results}, args.json, lines)
    return 1 if violated else 0


def _gen_instance(args: argparse.Namespace) -> "Instance":
    from .jsonio import Instance
    default_size, build, _ = BUILDERS[args.builder]
    filt, seq = build(default_size if args.size is None else args.size, args)
    return Instance(filt.space, filt, seq)


def cmd_gen(args: argparse.Namespace) -> int:
    from .jsonio import dump_instance, instance_text
    instance = _gen_instance(args)
    if args.out is None:
        sys.stdout.writelines(instance_text(instance))
    else:
        dump_instance(instance, args.out)
        print(f"[gen] wrote {args.builder} instance to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-lab",
        description=(
            "Classify martingale-like sequences on finite-dimensional "
            "normed lattices and check the structural claims about them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check filtration laws on an instance file")
    p.add_argument("path")
    p.add_argument("--contractive", action="store_true", help="also require norm <= 1")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="classify the sequence in an instance file")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--eps-x", type=float, default=None, dest="eps_x")
    p.add_argument("--window", type=float, default=DEFAULT_WINDOW_FRACTION)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("demo", help="reproduce a named example construction")
    p.add_argument("name", choices=DEMO_NAMES)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("verify", help="run theorem-evidence checks")
    p.add_argument("id", choices=CHECK_IDS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="write an instance file for a builder")
    p.add_argument("builder", choices=GEN_BUILDERS)
    p.add_argument("--size", type=int, default=None, help="primary size parameter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # overflow shows as inf in the report instead
            return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # InstanceFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input or arguments
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
