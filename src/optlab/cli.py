"""Command-line front end: evaluate circuits, run tests, audit axioms.

Every command reads one workbench file, prints a single JSON report to
standard output, and signals its verdict through the exit code:

* 0 — success (circuit evaluated, axiom holds, objects indistinguishable)
* 1 — a witnessed failure (axiom violated, purification impossible,
  channels distinguished); the JSON carries the witness
* 2 — usage, parse, or load errors (including a file that is not UTF-8,
  unphysical payloads and declarations too large to allocate)
* 3 — internal error: the program failed (the JSON names the exception),
  so no verdict was reached
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations_with_replacement

from . import audit, tomography
from .backends.base import StateVector
from .diagram import SystemType, singleton_test
from .dsl import Workbench, load
from .errors import (
    BackendLacksDilationError,
    CausalityViolationError,
    DslParseError,
    OptlabError,
)
from .evaluator import evaluate, evaluate_channel, run_test_circuit
from .sampling import Sampler, spawn_rngs
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``optlab`` argument parser, with a subparser for ``command`` alone,
    or for every command when ``command`` is None.

    Building a subparser costs far more than parsing a command line (each
    ``add_argument`` makes a help formatter, which asks the terminal its
    size), so ``main`` builds only the one it names; help and error output
    are the same as the full parser's.  Nothing caches the result: a process
    runs one command, so a cache would pay off only in callers that loop
    over ``main``, never for a user.
    """
    parser = argparse.ArgumentParser(
        prog="optlab",
        description="evaluate circuits and audit axioms of operational theories",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:  # usage lines list every command, as the full parser's do by default
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else [command]:
        _, help_text, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="workbench file to load")
        p.add_argument("--tol", type=_tolerance, default=1e-9,
                       help="decision tolerance for verdicts (default 1e-9)")
        p.add_argument("--seed", type=_integer_from(0), default=0,
                       help="seed for randomized audits (default 0)")
        p.add_argument("--trials", type=_integer_from(1), default=100,
                       help="random instances per audit (default 100)")
        for flag, options in flags:
            p.add_argument(flag, required=True, **options)
    return parser


# ---------------------------------------------------------------------------
# JSON shaping
# ---------------------------------------------------------------------------


def _emit(report: dict) -> None:
    text = dumps_canonical(report)
    # in slices of 1 MiB: a text stream copies what it is given whole, and the
    # JSON of a large transfer matrix runs to tens of MB
    for i in range(0, len(text), 1 << 20):
        sys.stdout.write(text[i:i + (1 << 20)])


def _run_meta(args) -> dict:
    return {"seed": args.seed, "tolerance": args.tol}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_eval(wb: Workbench, args) -> int:
    diagram = wb.diagram(args.circuit)
    t = evaluate(diagram, wb.backend, wb.bindings)
    _emit({
        "command": "eval",
        "circuit": args.circuit,
        "input": str(t.input_type),
        "output": str(t.output_type),
        "transfer": t.matrix,
    })
    return 0


def _cmd_prob(wb: Workbench, args) -> int:
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
    dist = run_test_circuit(test, wb.backend, wb.bindings)
    _emit(dict(dist.probs))
    return 0


def _cmd_purify(wb: Workbench, args) -> int:
    result = audit.purify_state(wb.backend, wb.state_vector(args.state))
    _emit({"command": "purify", "state": args.state, **_run_meta(args),
           **vars(result)})
    return 0 if result.verdict == "Purified" else VIOLATION


def _cmd_dilate(wb: Workbench, args) -> int:
    if wb.kinds.get(args.box) != "box":
        raise OptlabError(f"no box named {args.box!r}")
    try:
        result = audit.stinespring_dilate(wb.backend, wb.bindings[args.box])
    except BackendLacksDilationError as e:
        _emit({"command": "dilate", "box": args.box, **_run_meta(args),
               "verdict": "Failure", "witness": str(e)})
        return VIOLATION
    report = {**vars(result)}
    report.pop("channel")  # the input box, restated; keep the report lean
    _emit({"command": "dilate", "box": args.box, **_run_meta(args),
           "verdict": "Dilated", **report})
    return 0


def _cmd_steer(wb: Workbench, args) -> int:
    psi = wb.state_vector(args.state)
    test = wb.test(args.test)
    if not test.input_type.is_unit or test.output_type.is_unit:
        raise OptlabError(
            f"test {args.test!r} does not prepare states: it has type "
            f"{test.input_type} -> {test.output_type}"
        )
    branch_channels = [
        (label, evaluate_channel(branch, wb.backend, wb.bindings))
        for label, branch in test.items()
    ]
    base_word = test.output_type
    joint = psi.system.word
    base = base_word.word
    if len(base) >= len(joint) or joint[:len(base)] != base:
        raise OptlabError(
            f"state {args.state!r} on {psi.system} does not extend the "
            f"prepared system {base_word}"
        )
    branches = [wb.backend.channel_state(ch) for _, ch in branch_channels]
    labels = [label for label, _ in branch_channels]
    try:
        result = audit.steering_measurement(
            wb.backend, branches, psi, base_word, labels=labels, tol=args.tol,
        )
    except OptlabError as e:
        _emit({"command": "steer", "state": args.state, "test": args.test,
               **_run_meta(args), "verdict": "Failure", "witness": str(e)})
        return VIOLATION
    report = {**vars(result)}
    report.pop("effect_objects")
    _emit({"command": "steer", "state": args.state, "test": args.test,
           **_run_meta(args), "verdict": "Steered", **report})
    return 0


def _cmd_equiv(wb: Workbench, args) -> int:
    report = tomography.equivalent(
        wb.diagram(args.box), wb.diagram(args.box2), wb.backend,
        bindings=wb.bindings, tol=args.tol,
    )
    payload = {"command": "equiv", "box": args.box, "box2": args.box2,
               **_run_meta(args), **vars(report)}
    if report.witness is not None:
        p1, p2 = tomography.replay_witness(
            wb.backend, wb.diagram(args.box), wb.diagram(args.box2),
            report.witness, wb.bindings,
        )
        payload["witness"] = {**vars(report.witness), "replayed": [p1, p2]}
    _emit(payload)
    return 0 if report.verdict == "Equivalent" else VIOLATION


# -- audit ------------------------------------------------------------------


def _audit_causality(wb: Workbench, args) -> int:
    checks = []
    code = 0
    if wb.tests:
        try:
            report = audit.check_causality(
                wb.backend, list(wb.tests.values()), wb.bindings, tol=args.tol
            )
            checks.append({"source": "declared tests", **vars(report),
                           "verdict": "Holds"})
        except CausalityViolationError as e:
            checks.append({"source": "declared tests", "verdict": "Violated",
                           "witness": str(e)})
            code = VIOLATION
    random_tests = Sampler(wb.backend, seed=args.seed).random_observation_tests(args.trials)
    try:
        report = audit.check_causality(wb.backend, random_tests, tol=args.tol)
        checks.append({"source": f"{args.trials} random observation tests",
                       **vars(report), "verdict": "Holds"})
    except CausalityViolationError as e:
        checks.append({"source": f"{args.trials} random observation tests",
                       "verdict": "Violated", "witness": str(e)})
        code = VIOLATION
    _emit({"command": "audit", "axiom": "causality", **_run_meta(args),
           "verdict": "Violated" if code else "Holds", "checks": checks})
    return code


def _audit_purification(wb: Workbench, args) -> int:
    subjects: list[tuple[str, StateVector]] = [
        (name, wb.state_vector(name))
        for name, kind in wb.kinds.items() if kind == "state"
    ]
    if not subjects:
        states = Sampler(wb.backend, seed=args.seed).random_states(args.trials)
        subjects = [(f"random[{i}]", state) for i, state in enumerate(states)]
    results = []
    code = 0
    purified = audit.purify_states(wb.backend, [state for _, state in subjects])
    for (name, _), r in zip(subjects, purified):
        results.append({"state": name, **vars(r)})
        if r.verdict != "Purified":
            code = VIOLATION
    _emit({"command": "audit", "axiom": "purification", **_run_meta(args),
           "verdict": "Violated" if code else "Holds", "states": results})
    return code


def _audit_faithfulness(wb: Workbench, args) -> int:
    reports = []
    code = 0
    names = sorted(wb.backend.systems)
    for name, rng in zip(names, spawn_rngs(args.seed, len(names))):
        r = tomography.verify_faithfulness(
            wb.backend, SystemType.of(name), trials=args.trials,
            seed=rng, tol=args.tol,
        )
        reports.append({"system": name, **vars(r)})
        if r.verdict != "Confirmed":
            code = VIOLATION
    _emit({"command": "audit", "axiom": "faithfulness", **_run_meta(args),
           "verdict": "Violated" if code else "Holds", "systems": reports})
    return code


def _audit_local_tomography(wb: Workbench, args) -> int:
    reports = []
    code = 0
    for a, b in combinations_with_replacement(sorted(wb.backend.systems), 2):
        r = tomography.local_tomography_check(
            wb.backend, SystemType.of(a), SystemType.of(b)
        )
        reports.append({"left": a, "right": b, **vars(r)})
        if r.verdict != "Holds":
            code = VIOLATION
    _emit({"command": "audit", "axiom": "local-tomography", **_run_meta(args),
           "verdict": "Fails" if code else "Holds", "pairs": reports})
    return code


def _audit_niwd(wb: Workbench, args) -> int:
    reports = []
    code = 0
    applicable = 0
    for name, test in sorted(wb.tests.items()):
        if test.input_type != test.output_type or test.input_type.is_unit:
            continue
        try:
            r = audit.niwd_check(wb.backend, test, wb.bindings, tol=args.tol)
        except OptlabError as e:
            reports.append({"test": name, "verdict": "NotApplicable",
                            "reason": str(e)})
            continue
        applicable += 1
        reports.append({"test": name, **vars(r)})
        if r.verdict != "Holds":
            code = VIOLATION
    if not applicable:
        raise OptlabError(
            "no identity-summing test on matching systems to audit; "
            "declare a test with equal input and output"
        )
    _emit({"command": "audit", "axiom": "niwd", **_run_meta(args),
           "verdict": "Violated" if code else "Holds", "tests": reports})
    return code


_AUDITS = {
    "causality": _audit_causality,
    "purification": _audit_purification,
    "faithfulness": _audit_faithfulness,
    "local-tomography": _audit_local_tomography,
    "niwd": _audit_niwd,
}


def _cmd_audit(wb: Workbench, args) -> int:
    return _AUDITS[args.axiom](wb, args)


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


def _run(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        _emit({"error": f"cannot read {args.file!r}: {e.strerror}"})
        return USAGE_ERROR
    except UnicodeDecodeError as e:  # the whole file decodes at once: e.start is its offset
        _emit({"error": f"cannot read {args.file!r}: not UTF-8 at byte {e.start} ({e.reason})"})
        return USAGE_ERROR
    try:
        wb = load(text)
    except DslParseError as e:
        _emit({"error": str(e), "line": e.line, "column": e.column})
        return USAGE_ERROR
    except OptlabError as e:
        _emit({"error": str(e)})
        return USAGE_ERROR
    try:
        return _COMMANDS[args.command][0](wb, args)
    except OptlabError as e:
        _emit({"error": str(e)})
        return USAGE_ERROR


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return _run(args)
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
