"""Command-line front end: translate, solve, check.

Exit codes: 0 success / agreement, 2 parse or validation failure,
3 atom cap exceeded, 4 cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import __version__
from . import crp as crp_semantics
from . import crosscheck, evaluate, lpod, randgen, translate
from .engine import CapExceeded, DEFAULT_ATOM_CAP
from .model import Dialect, canonicalize, validate_program
from .parser import ParseError, parse

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4


class InputError(Exception):
    """Bad input from the command line or environment (exit 2)."""


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpodc",
        description="Compile ordered-disjunction and consistency-restoring "
        "programs to standard ASP and solve them with built-in reference semantics.",
    )
    ap.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp_translate = sub.add_parser("translate", help="emit the standard-ASP translation")
    sp_solve = sub.add_parser("solve", help="print candidate and preferred answer sets")
    sp_check = sub.add_parser("check", help="cross-check reference semantics against the translation")
    for sp in (sp_translate, sp_solve, sp_check):
        sp.add_argument("input", nargs="?", metavar="INPUT", help="input file (default: stdin)")
        sp.add_argument("--dialect", choices=["lpod", "crp2"], help="input dialect (default: from file extension)")
        sp.add_argument(
            "--criterion",
            choices=[c.value for c in lpod.Criterion],
            help="preference criterion (lpod only; default: all four)",
        )
    for sp in (sp_solve, sp_check):
        sp.add_argument(
            "--cap",
            type=int,
            default=None,
            help="most atoms the input program may have (default 24, env LPODC_CAP); "
            "the per-tuple and host-program searches have no cap",
        )
    for sp in (sp_translate, sp_solve):
        sp.add_argument("-o", "--output", metavar="FILE", help="write output here instead of stdout")
    sp_solve.add_argument("--format", choices=["text", "json"], default="text")
    sp_solve.add_argument(
        "--dump-ground",
        metavar="FILE",
        help="also write the per-tuple ground translation (debugging)",
    )
    sp_check.add_argument("--random", type=int, metavar="N", help="check N seeded random programs instead of a file")
    sp_check.add_argument("--seed", type=int, default=0, help="seed for --random")
    return ap


def _resolve_cap(args) -> int:
    if args.cap is not None:
        cap, source = args.cap, "--cap"
    else:
        env = os.environ.get("LPODC_CAP")
        if not env:
            return DEFAULT_ATOM_CAP
        try:
            cap, source = int(env), "LPODC_CAP"
        except ValueError:
            raise InputError("LPODC_CAP must be an integer, got %r" % env) from None
    if cap < 0:
        raise InputError("%s must not be negative, got %d" % (source, cap))
    return cap


def _resolve_dialect(args) -> Dialect:
    if args.dialect:
        dialect = Dialect.LPOD if args.dialect == "lpod" else Dialect.CRP2
    elif args.input and args.input.endswith(".crp"):
        dialect = Dialect.CRP2
    else:
        dialect = Dialect.LPOD
    if dialect is Dialect.CRP2 and args.criterion:
        raise InputError("--criterion applies to lpod inputs only")
    return dialect


def _read_input(args) -> str:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            return fh.read()
    return sys.stdin.buffer.read().decode("utf-8")


def _load_program(args):
    dialect = _resolve_dialect(args)
    text = _read_input(args)
    program = parse(text, dialect)
    report = validate_program(program)
    if not report.ok:
        for v in report.violations:
            print("error: %s" % v.message, file=sys.stderr)
        return None
    return canonicalize(program)


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _criteria(args):
    if args.criterion:
        return [lpod.Criterion(args.criterion)]
    return list(lpod.Criterion)


def _atom_list(atoms) -> list:
    from .model import Atom

    return [str(a) for a in sorted(atoms, key=Atom.sort_key)]


def cmd_translate(args) -> int:
    program = _load_program(args)
    if program is None:
        return EXIT_INPUT
    header = [
        "%% source: %s" % (args.input or "<stdin>"),
        "%% dialect: %s" % program.dialect.value,
    ]
    if program.dialect is Dialect.LPOD:
        if not program.nonregular_rules:
            print("warning: no ordered rules; nothing to translate", file=sys.stderr)
            _write(args, "")
            return EXIT_OK
        criteria = _criteria(args)
        if len(criteria) == 1:
            doc = translate.lpod2asp_pref(program, criteria[0])
            header.append("%% criterion: %s" % criteria[0].value)
        else:
            doc = translate.lpod2asp_base(program)
            header.append("% criterion: none (base translation)")
    else:
        doc = translate.crp2asp(program)
    header.append("%% tool: lpodc %s" % __version__)
    _write(args, "\n".join(header) + "\n" + translate.emit(doc))
    return EXIT_OK


def _solve_lpod(args, program, cap):
    criteria = _criteria(args)
    candidates = lpod.assumption_candidates(program, cap=cap)
    preferred = {c.value: lpod.preferred(candidates, c) for c in criteria}
    if args.format == "json":
        payload = {
            "candidates": [
                {
                    "atoms": _atom_list(c.atoms),
                    "degrees": list(c.degrees),
                    "assumption": list(c.assumption),
                }
                for c in candidates
            ]
        }
        if len(criteria) == 1:
            payload["preferred"] = [
                _atom_list(c.atoms) for c in preferred[criteria[0].value]
            ]
        else:
            payload["preferred"] = {
                name: [_atom_list(c.atoms) for c in pref]
                for name, pref in preferred.items()
            }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["candidates:"]
    for c in candidates:
        lines.append(
            "  {%s}  degrees=%s assumption=%s"
            % (", ".join(_atom_list(c.atoms)), c.degrees, c.assumption)
        )
    for name, pref in preferred.items():
        lines.append("preferred (%s):" % name)
        for c in pref:
            lines.append("  {%s}" % ", ".join(_atom_list(c.atoms)))
    return "\n".join(lines) + "\n"


def _solve_crp(args, program, cap):
    sigma = program.signature
    candidates = crp_semantics.candidate_answer_sets(
        crp_semantics.generalized_answer_sets(program, cap=cap)
    )
    preferred = crp_semantics.preferred_answer_sets(candidates, sigma)
    if args.format == "json":
        payload = {
            "candidates": [
                {
                    "atoms": _atom_list(c.project(sigma)),
                    "applied": sorted(str(t) for t in c.appl_terms()),
                }
                for c in candidates
            ],
            "preferred": [_atom_list(s) for s in preferred],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["candidates:"]
    for c in candidates:
        lines.append(
            "  {%s}  applied=%s"
            % (
                ", ".join(_atom_list(c.project(sigma))),
                "{%s}" % ", ".join(sorted(str(t) for t in c.appl_terms())),
            )
        )
    lines.append("preferred:")
    for s in preferred:
        lines.append("  {%s}" % ", ".join(_atom_list(s)))
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    program = _load_program(args)
    if program is None:
        return EXIT_INPUT
    cap = _resolve_cap(args)
    # solving checks the cap, so an input over it writes no dump either
    if program.dialect is Dialect.LPOD:
        text = _solve_lpod(args, program, cap)
    else:
        text = _solve_crp(args, program, cap)
    if args.dump_ground and (program.dialect is Dialect.CRP2 or program.nonregular_rules):
        doc = translate.lpod2asp_base(program) if program.dialect is Dialect.LPOD else translate.crp2asp(program)
        with open(args.dump_ground, "w", encoding="utf-8") as fh:
            fh.write(evaluate.dump_ground(doc))
    _write(args, text)
    return EXIT_OK


def cmd_check(args) -> int:
    cap = _resolve_cap(args)
    if args.random is not None and args.random < 0:
        raise InputError("--random must not be negative, got %d" % args.random)
    if args.random is not None:
        rng = random.Random(args.seed)
        dialect = _resolve_dialect(args)
        criteria = _criteria(args) if dialect is Dialect.LPOD else None
        for i in range(args.random):
            if dialect is Dialect.LPOD:
                program = randgen.random_lpod(rng)
            else:
                program = randgen.random_crp(rng)
            result = crosscheck.check_program(program, criteria=criteria, cap=cap)
            if not result.ok:
                small = crosscheck.shrink_counterexample(program, criteria=criteria, cap=cap)
                print("mismatch on random program %d (seed %d):" % (i, args.seed), file=sys.stderr)
                for line in result.lines:
                    print("  " + line, file=sys.stderr)
                print("minimized counterexample:", file=sys.stderr)
                print(crosscheck.dump_counterexample(small), file=sys.stderr)
                return EXIT_MISMATCH
        print("OK: %d random %s programs, oracle == translation" % (args.random, dialect.value))
        return EXIT_OK
    program = _load_program(args)
    if program is None:
        return EXIT_INPUT
    criteria = _criteria(args) if program.dialect is Dialect.LPOD else None
    result = crosscheck.check_program(program, criteria=criteria, cap=cap)
    for line in result.lines:
        print(line)
    if not result.ok:
        small = crosscheck.shrink_counterexample(program, criteria=criteria, cap=cap)
        print("minimized counterexample:", file=sys.stderr)
        print(crosscheck.dump_counterexample(small), file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command == "translate":
            return cmd_translate(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_check(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:
        print(
            "error: %s is not UTF-8 text (byte 0x%02x at offset %d)"
            % (args.input or "<stdin>", exc.object[exc.start], exc.start),
            file=sys.stderr,
        )
        return EXIT_INPUT
    except (InputError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print("error: %s (raise with --cap or LPODC_CAP)" % exc, file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
