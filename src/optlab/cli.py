"""Command-line front end: evaluate circuits, run tests, audit axioms.

Every command reads one workbench file (UTF-8; a leading byte-order mark is
ignored), prints a single JSON report to standard output, and signals its
verdict through the exit code:

* 0 — success (circuit evaluated, axiom holds, objects indistinguishable)
* 1 — a witnessed failure (axiom violated, purification impossible,
  channels distinguished); the JSON carries the witness
* 2 — usage, parse, or load errors (including a file that is not UTF-8,
  unphysical payloads and declarations too large to allocate)
* 3 — internal error: the program failed (the JSON names the exception),
  so no verdict was reached

Each command's runner returns its report's body.  ``_run`` alone adds the
envelope and sets the exit code, from one table, ``PASSING``: a verdict in
it exits 0 and any other exits 1.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from itertools import combinations_with_replacement

from . import audit, tomography
from .diagram import SystemType, singleton_test
from .dsl import Workbench, load
from .errors import (
    BackendLacksDilationError,
    CausalityViolationError,
    DslParseError,
    OptlabError,
)
from .evaluator import evaluate, evaluate_channel, run_test_circuit
from .sampling import Sampler, run_trials, spawn_rngs
from .serialize import dumps_canonical

__all__ = ["main", "build_parser"]

USAGE_ERROR = 2
VIOLATION = 1
INTERNAL_ERROR = 3


def _integer_from(minimum: int):
    """argparse ``type=`` for an integer flag that must be ``>= minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """argparse ``type=`` for ``--tol``: a finite number ``>= 0``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= value < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """Declare ``command``'s file and flags on ``parser``: the same for the
    full parser's subparser and for the one-command parser."""
    parser.add_argument("file", help="workbench file to load")
    parser.add_argument("--tol", type=_tolerance, default=1e-9,
                        help="decision tolerance for verdicts (default 1e-9)")
    parser.add_argument("--seed", type=_integer_from(0), default=0,
                        help="seed for randomized audits (default 0)")
    parser.add_argument("--trials", type=_integer_from(1), default=100,
                        help="random instances per audit (default 100)")
    for flag, options in _COMMANDS[command][2]:
        parser.add_argument(flag, required=True, **options)


def build_parser() -> argparse.ArgumentParser:
    """The ``optlab`` argument parser, with a subparser for every command.

    It prints every usage message, help text and error of the command line.
    ``main`` parses a line with it only when the one-command parser refuses
    the line, so its help and errors are what a user sees.
    """
    parser = argparse.ArgumentParser(
        prog="optlab",
        description="evaluate circuits and audit axioms of operational theories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


class _Refused(Exception):
    """A command line the one-command parser does not accept."""


class _OneCommandParser(argparse.ArgumentParser):
    """One command's flags alone, with no help: it raises where argparse
    would print and exit, so that ``build_parser`` prints instead."""

    def error(self, message):
        raise _Refused(message)

    def _get_formatter(self):
        # add_argument formats each flag once to check its metavar; at a fixed
        # width, so the terminal is never asked its size (nothing is printed)
        return self.formatter_class(prog=self.prog, width=80)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, by way of a parser of the named
    command alone: building that costs a fraction of the full parser, and
    every line it refuses, help included, goes to the full parser."""
    if argv and argv[0] in _COMMANDS:
        parser = _OneCommandParser(prog=f"optlab {argv[0]}", add_help=False)
        _add_arguments(parser, argv[0])
        try:
            return parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        except _Refused:
            pass
    return build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# JSON shaping
# ---------------------------------------------------------------------------

#: The verdicts that pass.  A command exits 0 when its report's verdict is
#: one of these and 1 otherwise; an audit holds when every row's verdict is.
PASSING = {"Holds", "Purified", "Confirmed", "NotApplicable", "Dilated", "Steered", "Equivalent"}


def _emit(report: dict) -> None:
    text = dumps_canonical(report)
    # in slices of 1 MiB: a text stream copies what it is given whole, and the
    # JSON of a large transfer matrix runs to tens of MB
    for i in range(0, len(text), 1 << 20):
        sys.stdout.write(text[i:i + (1 << 20)])


# ---------------------------------------------------------------------------
# commands: each returns its report's body; ``_run`` adds the envelope
# ---------------------------------------------------------------------------


def _cmd_eval(wb: Workbench, args) -> dict:
    t = evaluate(wb.diagram(args.circuit), wb.backend, wb.bindings)
    return {"circuit": args.circuit, "input": str(t.input_type),
            "output": str(t.output_type), "transfer": t.matrix}


def _cmd_prob(wb: Workbench, args) -> dict:
    name = args.test_circuit
    if wb.kinds.get(name) == "circuit":
        test = singleton_test(wb.circuits[name])
    else:
        test = wb.test(name)
    if not (test.input_type.is_unit and test.output_type.is_unit):
        raise OptlabError(
            f"test circuit {name!r} is not closed: it has type "
            f"{test.input_type} -> {test.output_type}"
        )
    return dict(run_test_circuit(test, wb.backend, wb.bindings).probs)


def _cmd_purify(wb: Workbench, args) -> dict:
    result = audit.purify_state(wb.backend, wb.state_vector(args.state))
    return {"state": args.state, **vars(result)}


def _cmd_dilate(wb: Workbench, args) -> dict:
    if wb.kinds.get(args.box) != "box":
        raise OptlabError(f"no box named {args.box!r}")
    try:
        result = audit.stinespring_dilate(wb.backend, wb.bindings[args.box])
    except BackendLacksDilationError as e:
        return {"box": args.box, "verdict": "Failure", "witness": str(e)}
    # the input box, restated; keep the report lean
    report = {k: v for k, v in vars(result).items() if k != "channel"}
    return {"box": args.box, "verdict": "Dilated", **report}


def _cmd_steer(wb: Workbench, args) -> dict:
    psi = wb.state_vector(args.state)
    test = wb.test(args.test)
    if not test.input_type.is_unit or test.output_type.is_unit:
        raise OptlabError(
            f"test {args.test!r} does not prepare states: it has type "
            f"{test.input_type} -> {test.output_type}"
        )
    channels = [evaluate_channel(branch, wb.backend, wb.bindings) for branch in test.branches]
    base_word = test.output_type
    joint = psi.system.word
    base = base_word.word
    if len(base) >= len(joint) or joint[:len(base)] != base:
        raise OptlabError(
            f"state {args.state!r} on {psi.system} does not extend the "
            f"prepared system {base_word}"
        )
    body = {"state": args.state, "test": args.test}
    try:
        result = audit.steering_measurement(
            wb.backend, [wb.backend.channel_state(ch) for ch in channels], psi, base_word,
            labels=list(test.outcomes.labels), tol=args.tol,
        )
    except OptlabError as e:
        return {**body, "verdict": "Failure", "witness": str(e)}
    report = {k: v for k, v in vars(result).items() if k != "effect_objects"}
    return {**body, "verdict": "Steered", **report}


def _cmd_equiv(wb: Workbench, args) -> dict:
    first, second = wb.diagram(args.box), wb.diagram(args.box2)
    report = tomography.equivalent(first, second, wb.backend, bindings=wb.bindings, tol=args.tol)
    body = {"box": args.box, "box2": args.box2, **vars(report)}
    if report.witness is not None:
        replayed = tomography.replay_witness(wb.backend, first, second, report.witness, wb.bindings)
        body["witness"] = {**vars(report.witness), "replayed": list(replayed)}
    return body


# -- audit: each returns the key of its rows and the rows ---------------------


def _audit_causality(wb: Workbench, args) -> tuple[str, list]:
    sources = [("declared tests", list(wb.tests.values()), wb.bindings)] if wb.tests else []
    sampler = Sampler(wb.backend, seed=args.seed)
    sources.append((f"{args.trials} random observation tests",
                    partial(run_trials, args.trials, sampler.observation_test_block), None))
    checks = []
    for source, tests, bindings in sources:
        try:
            report = audit.check_causality(wb.backend, tests, bindings, tol=args.tol)
        except CausalityViolationError as e:
            checks.append({"source": source, "verdict": "Violated", "witness": str(e)})
        else:
            checks.append({"source": source, **vars(report), "verdict": "Holds"})
    return "checks", checks


def _audit_purification(wb: Workbench, args) -> tuple[str, list]:
    names = [name for name, kind in wb.kinds.items() if kind == "state"]
    if names:
        purified = audit.purify_states(wb.backend, [wb.state_vector(name) for name in names])
    else:
        purified, _ = run_trials(args.trials, Sampler(wb.backend, seed=args.seed).state_block,
                                 lambda first, block: audit.purify_block(wb.backend, block))
        names = [f"random[{i}]" for i in range(args.trials)]
    return "states", [{"state": name, **vars(r)} for name, r in zip(names, purified)]


def _audit_faithfulness(wb: Workbench, args) -> tuple[str, list]:
    names = sorted(wb.backend.systems)
    return "systems", [
        {"system": name, **vars(tomography.verify_faithfulness(
            wb.backend, SystemType.of(name), trials=args.trials, seed=rng, tol=args.tol))}
        for name, rng in zip(names, spawn_rngs(args.seed, len(names)))
    ]


def _audit_local_tomography(wb: Workbench, args) -> tuple[str, list]:
    return "pairs", [
        {"left": a, "right": b, **vars(tomography.local_tomography_check(
            wb.backend, SystemType.of(a), SystemType.of(b)))}
        for a, b in combinations_with_replacement(sorted(wb.backend.systems), 2)
    ]


def _audit_niwd(wb: Workbench, args) -> tuple[str, list]:
    rows = []
    for name, test in sorted(wb.tests.items()):
        if test.input_type != test.output_type or test.input_type.is_unit:
            continue
        try:
            rows.append({"test": name, **vars(audit.niwd_check(wb.backend, test, wb.bindings,
                                                               tol=args.tol))})
        except OptlabError as e:
            rows.append({"test": name, "verdict": "NotApplicable", "reason": str(e)})
    if all(row["verdict"] == "NotApplicable" for row in rows):
        raise OptlabError(
            "no identity-summing test on matching systems to audit; "
            "declare a test with equal input and output"
        )
    return "tests", rows


_AUDITS = {
    "causality": _audit_causality,
    "purification": _audit_purification,
    "faithfulness": _audit_faithfulness,
    "local-tomography": _audit_local_tomography,
    "niwd": _audit_niwd,
}


def _cmd_audit(wb: Workbench, args) -> dict:
    key, rows = _AUDITS[args.axiom](wb, args)
    if all(row["verdict"] in PASSING for row in rows):
        verdict = "Holds"
    else:
        verdict = "Fails" if args.axiom == "local-tomography" else "Violated"
    return {"axiom": args.axiom, "verdict": verdict, key: rows}


# name -> (runner, help line, required flags with their add_argument options)
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate a deterministic circuit to its transfer matrix",
             [("--circuit", {"help": "circuit name"})]),
    "prob": (_cmd_prob, "run a closed test circuit and print its distribution",
             [("--test-circuit", {"help": "name of a closed test or test circuit"})]),
    "audit": (_cmd_audit, "check an axiom over the file's declarations",
              [("--axiom", {"choices": list(_AUDITS)})]),
    "purify": (_cmd_purify, "purify a named state onto an auxiliary system",
               [("--state", {"help": "state name"})]),
    "dilate": (_cmd_dilate, "dilate a named box to a reversible interaction",
               [("--box", {"help": "box name"})]),
    "steer": (_cmd_steer, "recover a state decomposition by measuring the extension",
              [("--state", {"help": "joint state name"}),
               ("--test", {"help": "preparation test providing the target decomposition"})]),
    "equiv": (_cmd_equiv, "decide whether two boxes are operationally equivalent",
              [("--box", {"help": "first box or circuit"}),
               ("--box2", {"help": "second box or circuit"})]),
}


def _run(args) -> tuple[dict, int]:
    """The report of a parsed command line and its exit code."""
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            # a byte-order mark is no text; stripped after decoding, so that the
            # whole file decodes at once and e.start below is its byte offset
            text = fh.read().removeprefix("\ufeff")
    except OSError as e:
        return {"error": f"cannot read {args.file!r}: {e.strerror}"}, USAGE_ERROR
    except UnicodeDecodeError as e:
        return ({"error": f"cannot read {args.file!r}: not UTF-8 at byte {e.start} ({e.reason})"},
                USAGE_ERROR)
    try:
        body = _COMMANDS[args.command][0](load(text), args)
    except DslParseError as e:
        return {"error": str(e), "line": e.line, "column": e.column}, USAGE_ERROR
    except OptlabError as e:
        return {"error": str(e)}, USAGE_ERROR
    # the envelope goes by command, never by the body's keys: a distribution's
    # keys are outcome labels, and "verdict" or "command" is a legal label
    if args.command == "prob":
        return body, 0
    if args.command == "eval":
        return {"command": "eval", **body}, 0
    report = {"command": args.command, "seed": args.seed, "tolerance": args.tol, **body}
    return report, 0 if body["verdict"] in PASSING else VIOLATION


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    try:
        report, code = _run(args)
        _emit(report)
        return code
    except MemoryError as e:  # numpy refuses an array too large to allocate
        _emit({"error": f"out of memory: {e}"})
        return USAGE_ERROR
    except Exception as e:  # a crash must not read as a verdict
        import traceback

        traceback.print_exc()
        _emit({"error": "internal error", "exception": type(e).__name__, "message": str(e)})
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
