"""Known answers for the ``fixtures-cli`` workload.

``fixtures/`` holds a frozen copy of the repository's 23 example theories, so
that the workload does not change when the test fixtures do.  The table below
lists every command that applies to each of them, with the exit code and
verdict the theory predicts and, where they are easy to state by hand, the
numbers.  It was written from the theory; a disagreement is a finding about
the program, not a reason to edit a row.

Commands that do not apply are left out: ``prob`` on a circuit whose total is
not one, ``audit --axiom causality`` on a file whose declared tests are not
observation tests, and ``audit --axiom niwd`` on a file without a test from a
system to itself all end in exit 2 by design.
"""

from __future__ import annotations

S = 0.70710678118654757  # 1/sqrt(2), the first coordinate of a normalized qubit state

Q_UP = [[S], [S], [0.0], [0.0]]  # |0><0| in the orthonormal Hermitian basis I, Z, X, Y (over sqrt 2)
Q_DOWN = [[S], [-S], [0.0], [0.0]]
Q_PLUS = [[S], [0.0], [S], [0.0]]
Q_MIXED = [[S], [0.0], [0.0], [0.0]]
Q_IDENTITY = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
Q_DEPOLARIZE = [[1.0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
Q_DEPHASE = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def _audits(causality=(0, "Holds"), purification=(0, "Holds"), faithfulness=(0, "Holds"),
            tomography=(0, "Holds"), niwd=None):
    """Audit rows; None marks an axiom that does not apply to the file."""
    spec = {"causality": causality, "purification": purification,
            "faithfulness": faithfulness, "local-tomography": tomography, "niwd": niwd}
    return [(f"audit --axiom {axiom}", code_verdict[0], code_verdict[1], None)
            for axiom, code_verdict in spec.items() if code_verdict is not None]


def _equiv(pairs):
    return [(f"equiv --box {a} --box2 {b}", 0 if same else 1,
             "Equivalent" if same else "Distinguished", None) for a, b, same in pairs]


# fixture -> [(arguments after the file, exit code, verdict or None, numbers or None)]
# eval numbers are the transfer matrix; prob numbers are the distribution.
TABLE = {
    "bell_steering": [
        ("eval --circuit marginal_q", 0, None, Q_MIXED),
        ("eval --circuit bell", 0, None, None),
        ("purify --state bell", 0, "Purified", None),
        ("steer --state bell --test ensemble", 0, "Steered", None),
    ] + _audits(causality=None),
    "choi_box": [
        ("eval --circuit scramble", 0, None, Q_DEPOLARIZE),
        ("eval --circuit noisy", 0, None, Q_DEPOLARIZE),
        ("dilate --box scramble", 0, "Dilated", None),
    ] + _equiv([("scramble", "noisy", True)]) + _audits(),
    "classical_bits": [
        ("eval --circuit fair", 0, None, [[0.5], [0.5]]),
        ("eval --circuit point", 0, None, [[0.0], [1.0]]),
        ("eval --circuit hit", 0, None, [[1.0, 0.0]]),
        ("eval --circuit guess", 0, None, [[0.5]]),
        ("purify --state fair", 1, "Failure", None),
        ("purify --state point", 0, "Purified", None),
    ] + _equiv([("fair", "point", False)])
      + _audits(causality=None, purification=(1, "Violated"), niwd=(1, "Violated")),
    "classical_trit": [
        ("eval --circuit spread", 0, None, [[0.2], [0.3], [0.5]]),
        ("prob --test-circuit sorted_out", 0, None, {"lo": 0.2, "mid": 0.3, "hi": 0.5}),
        ("purify --state spread", 1, "Failure", None),
    ] + _audits(causality=None, purification=(1, "Violated"), niwd=(1, "Violated")),
    "comments": [
        ("eval --circuit coin", 0, None, [[0.5], [0.5]]),
        ("eval --circuit toss", 0, None, [[1.0]]),
        ("prob --test-circuit toss", 0, None, {"": 1.0}),
        ("purify --state coin", 1, "Failure", None),
    ] + _audits(purification=(1, "Violated")),
    "damping": [
        ("eval --circuit damp", 0, None, None),
        ("eval --circuit xgate", 0, None, None),
        ("eval --circuit zgate", 0, None, None),
        ("eval --circuit minusx", 0, None, None),
        ("eval --circuit decay_twice", 0, None, None),
        ("dilate --box damp", 0, "Dilated", None),
        ("dilate --box xgate", 0, "Dilated", None),
        ("dilate --box zgate", 0, "Dilated", None),
        ("dilate --box minusx", 0, "Dilated", None),
    ] + _equiv([
        ("damp", "xgate", False), ("damp", "zgate", False), ("damp", "minusx", False),
        ("damp", "decay_twice", False), ("xgate", "zgate", False), ("xgate", "minusx", True),
        ("xgate", "decay_twice", False), ("zgate", "minusx", False),
        ("zgate", "decay_twice", False), ("minusx", "decay_twice", False),
    ]) + _audits(),
    "effects": [
        ("eval --circuit up", 0, None, Q_UP),
        ("eval --circuit down", 0, None, Q_DOWN),
        ("eval --circuit along_x", 0, None, [[S, 0.0, S, 0.0]]),
        ("eval --circuit along_y", 0, None, [[S, 0.0, 0.0, S]]),
        ("eval --circuit xprob", 0, None, [[0.5]]),
        ("eval --circuit yprob", 0, None, [[0.5]]),
        ("purify --state up", 0, "Purified", None),
        ("purify --state down", 0, "Purified", None),
    ] + _equiv([("up", "down", False), ("along_x", "along_y", False),
                ("xprob", "yprob", True)]) + _audits(),
    "ghz_like": [
        ("eval --circuit ghz", 0, None, None),
        ("eval --circuit all_up", 0, None, None),
        ("eval --circuit corner", 0, None, [[0.5]]),
        ("purify --state ghz", 0, "Purified", None),
    ] + _audits(),
    "identity_instrument": _audits(causality=None, niwd=(0, "Holds")),
    "kraus_pair": [
        ("eval --circuit dephase", 0, None, Q_DEPHASE),
        ("eval --circuit twice", 0, None, Q_DEPHASE),
        ("dilate --box dephase", 0, "Dilated", None),
    ] + _equiv([("dephase", "twice", True)]) + _audits(),
    "minimal_quantum": [
        ("eval --circuit idle", 0, None, Q_IDENTITY),
    ] + _audits(),
    "plus_born": [
        ("eval --circuit plus", 0, None, Q_PLUS),
        ("prob --test-circuit born", 0, None, {"0": 0.5, "1": 0.5}),
        ("purify --state plus", 0, "Purified", None),
    ] + _audits(),
    "qutrit": [
        ("eval --circuit top", 0, None, None),
        ("prob --test-circuit locate", 0, None, {"0": 1.0, "1": 0.0, "2": 0.0}),
        ("purify --state top", 0, "Purified", None),
    ] + _audits(),
    "rebit": _audits(tomography=(1, "Fails")),
    "rebit_pair": [
        ("eval --circuit mix", 0, None, None),
        ("eval --circuit tilted", 0, None, None),
        ("eval --circuit flat", 0, None, None),
        ("eval --circuit overlap", 0, None, [[0.5]]),
        ("purify --state mix", 0, "Purified", None),
        ("purify --state tilted", 0, "Purified", None),
    ] + _equiv([("mix", "tilted", False)]) + _audits(tomography=(1, "Fails")),
    "scalar_tests": [
        ("eval --circuit half", 0, None, Q_MIXED),
        ("prob --test-circuit flip", 0, None, {"u": 0.5, "d": 0.5}),
        ("prob --test-circuit two_flips", 0, None,
         {"(u,u)": 0.25, "(u,d)": 0.25, "(d,u)": 0.25, "(d,d)": 0.25}),
        ("purify --state half", 0, "Purified", None),
    ] + _audits(),
    "stoch_chain": [
        ("eval --circuit spread", 0, None, [[0.5, 0.0], [0.25, 0.5], [0.25, 0.5]]),
        ("eval --circuit squash", 0, None, [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]]),
        ("eval --circuit start", 0, None, [[1.0], [0.0]]),
        ("eval --circuit walk", 0, None, [[1.0]]),
        ("prob --test-circuit walk", 0, None, {"": 1.0}),
        ("purify --state start", 0, "Purified", None),
        ("dilate --box spread", 1, "Failure", None),
        ("dilate --box squash", 1, "Failure", None),
    ] + _audits(),
    "swap_wires": [
        ("eval --circuit up", 0, None, Q_UP),
        ("eval --circuit down", 0, None, Q_DOWN),
        ("eval --circuit catch", 0, None, [[S, -S, 0.0, 0.0]]),
        ("eval --circuit crossed", 0, None, [[1.0]]),
        ("prob --test-circuit crossed", 0, None, {"": 1.0}),
        ("purify --state up", 0, "Purified", None),
        ("purify --state down", 0, "Purified", None),
    ] + _audits(),
    "test_compose_par": [
        ("eval --circuit coin", 0, None, [[0.5], [0.5]]),
        ("prob --test-circuit one", 0, None, {"h": 0.5, "t": 0.5}),
        ("prob --test-circuit both", 0, None,
         {"(h,h)": 0.25, "(h,t)": 0.25, "(t,h)": 0.25, "(t,t)": 0.25}),
        ("purify --state coin", 1, "Failure", None),
    ] + _audits(purification=(1, "Violated")),
    "test_compose_seq": [
        ("eval --circuit coin", 0, None, [[0.5], [0.5]]),
        ("prob --test-circuit chain", 0, None, {"(0,done)": 0.5, "(1,done)": 0.5}),
        ("purify --state coin", 1, "Failure", None),
    ] + _audits(causality=None, purification=(1, "Violated"), niwd=(1, "Violated")),
    "three_systems": [
        ("eval --circuit ona", 0, None, None),
        ("eval --circuit onb", 0, None, None),
        ("eval --circuit shuffle", 0, None, None),
        ("eval --circuit braid", 0, None, None),
        ("dilate --box ona", 0, "Dilated", None),
        ("dilate --box onb", 0, "Dilated", None),
    ] + _audits(),
    "trace_out": [
        ("eval --circuit joint", 0, None, [[0.1], [0.2], [0.0], [0.3], [0.15], [0.25]]),
        ("eval --circuit keep_first", 0, None, [[0.3], [0.7]]),
        ("eval --circuit keep_second", 0, None, [[0.4], [0.35], [0.25]]),
        ("eval --circuit nothing", 0, None, [[1.0]]),
        ("prob --test-circuit nothing", 0, None, {"": 1.0}),
        ("purify --state joint", 1, "Failure", None),
    ] + _audits(purification=(1, "Violated")),
    "unitary_pair": [
        ("eval --circuit had", 0, None, None),
        ("eval --circuit ygate", 0, None, None),
        ("eval --circuit sandwich", 0, None, None),
        ("dilate --box had", 0, "Dilated", None),
        ("dilate --box ygate", 0, "Dilated", None),
    ] + _equiv([("had", "ygate", False), ("had", "sandwich", False),
                ("ygate", "sandwich", True)]) + _audits(),
}

TOL = 1e-12


def check(command: str, report: dict, verdict: str | None, numbers) -> str | None:
    """Compare one op's report with its table row; None when it agrees.

    The exit code in the row is checked by the caller.
    """
    if verdict is not None and report.get("verdict") != verdict:
        return f"verdict {report.get('verdict')!r}, expected {verdict!r}"
    if command == "eval":
        t = report.get("transfer")
        if not isinstance(t, list):
            return "eval report has no transfer matrix"
        if numbers is not None:
            if [len(r) for r in t] != [len(r) for r in numbers]:
                return "transfer matrix has the wrong shape"
            worst = max(abs(a - b) for ra, rb in zip(t, numbers) for a, b in zip(ra, rb))
            if worst > TOL:
                return f"transfer differs from the known answer by {worst:.3e}"
    elif command == "prob":
        if set(report) != set(numbers):
            return f"prob labels {sorted(report)}, expected {sorted(numbers)}"
        worst = max(abs(report[k] - v) for k, v in numbers.items())
        if worst > TOL:
            return f"distribution differs from the known answer by {worst:.3e}"
    return None
