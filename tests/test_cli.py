"""Command surface: JSON reports, exit codes, and byte-stable output."""

import argparse
import json
import random
import re
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from optlab import cli
from optlab.cli import build_parser, main


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().out
    return invoke


@pytest.fixture
def fx(fixture_dir):
    return lambda name: str(fixture_dir / name)


# ---------------------------------------------------------------------------
# evaluation and probabilities
# ---------------------------------------------------------------------------

def test_prob_output_is_byte_exact(run, fx):
    code, out = run("prob", fx("plus_born.opt"), "--test-circuit", "born")
    assert code == 0
    assert out == '{\n  "0": 0.5,\n  "1": 0.5\n}\n'


def test_eval_reports_the_transfer(run, fx):
    code, out = run("eval", fx("damping.opt"), "--circuit", "decay_twice")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "eval"
    assert payload["circuit"] == "decay_twice"
    assert payload["input"] == "Q" and payload["output"] == "Q"
    assert len(payload["transfer"]) == 4


def test_eval_refuses_test_valued_circuits(run, fx):
    code, out = run("eval", fx("plus_born.opt"), "--circuit", "born")
    assert code == 2
    assert "test" in json.loads(out)["error"]


def test_prob_requires_a_closed_circuit(run, fx):
    code, out = run("prob", fx("damping.opt"), "--test-circuit", "decay_twice")
    assert code == 2


def test_prob_prints_a_bare_distribution_whatever_its_labels(run, tmp_path):
    """The report's envelope goes by command, not by its keys: outcome labels
    that read like envelope fields stay outcome labels."""
    p = tmp_path / "labels.opt"
    p.write_text(
        "theory classical\nsystem T dim=3\nstate spread : T = vec=[0.25,0.25,0.5]\n"
        "test look : T -> I outcomes={verdict,command,seed} "
        "{ verdict: vec=[1,0,0]; command: vec=[0,1,0]; seed: vec=[0,0,1] }\n"
        "circuit run = spread ; look\n"
    )
    code, out = run("prob", p, "--test-circuit", "run")
    assert code == 0
    assert json.loads(out) == {"verdict": 0.25, "command": 0.25, "seed": 0.5}


def _haar(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _literal(a) -> str:
    """A complex payload literal; ``repr`` round-trips every double."""
    if np.ndim(a) == 0:
        return f"[{float(a.real)!r},{float(a.imag)!r}]"
    return "[" + ",".join(map(_literal, a)) + "]"


def _closed_quantum_ladder(rng, n, layers=4):
    """Text of a closed brick-wall ladder of Haar gates on n qubits, each
    qubit prepared by a two-branch test and read by a two-outcome test, and
    the probabilities of a dense simulation on the 2^n-dimensional carrier,
    preparation outcomes major, in the program's label order."""
    q = [f"Q{i}" for i in range(n)]
    lines = ["theory quantum", *(f"system {x} dim=2" for x in q)]
    total, rows = np.eye(2 ** n), []
    for layer in range(layers):
        row, i = [], 0
        while i < n:
            if i + 1 < n and i % 2 == layer % 2:
                g = _haar(rng, 4)
                total = np.kron(np.kron(np.eye(2 ** i), g), np.eye(2 ** (n - i - 2))) @ total
                lines.append(f"box g{layer}_{i} : {q[i]} * {q[i + 1]} -> {q[i]} * {q[i + 1]} "
                             f"= kraus=[{_literal(g)}]")
                row.append(f"g{layer}_{i}")
                i += 2
            else:
                row.append(f"id({q[i]})")
                i += 1
        rows.append("(" + " * ".join(row) + ")")
    preps, effects = [], []
    for x in q:
        u, v = _haar(rng, 2), _haar(rng, 2)
        p = rng.uniform(0.2, 0.8)
        pair = [p * np.outer(u[0], u[0].conj()), (1 - p) * np.outer(u[1], u[1].conj())]
        e = v @ np.diag(rng.uniform(0.1, 0.9, size=2)) @ v.conj().T
        preps.append(np.stack(pair))
        effects.append(np.stack([e, np.eye(2) - e]))
        lines.append(f"test prep{x} : I -> {x} outcomes={{0,1}} "
                     f"{{ 0: dens={_literal(pair[0])}; 1: dens={_literal(pair[1])} }}")
        lines.append(f"test meas{x} : {x} -> I outcomes={{0,1}} "
                     f"{{ 0: dens={_literal(e)}; 1: dens={_literal(np.eye(2) - e)} }}")
    lines.append("circuit ladder = " + " ; ".join(rows))
    lines.append(f"circuit run = ({' * '.join('prep' + x for x in q)}) ; ladder ; "
                 f"({' * '.join('meas' + x for x in q)})")

    def kron_stack(a, b):  # every pair of a stack of matrices with one of another, a's index major
        k, d, _ = a.shape
        return np.einsum("aij,bkl->abikjl", a, b).reshape(k * len(b), d * 2, d * 2)
    states = total @ reduce(kron_stack, preps) @ total.conj().T
    reads = reduce(kron_stack, effects)
    d = 2 ** n
    probs = np.real(states.reshape(-1, d * d) @ reads.transpose(0, 2, 1).reshape(-1, d * d).T)
    return "\n".join(lines) + "\n", probs.ravel()


def test_prob_on_a_closed_seven_qubit_ladder_fits_its_stacks(run, tmp_path):
    """The preparations of a closed seven-qubit ladder are a stack of
    128 columns of 4^7 = 16384 complex entries: 32 MiB.  A layer applied
    block by block holds its input and its product, which the last leaf
    writes straight into, and one spare: the products between its leaves,
    made a group of columns at a time so that they fill at most half a
    stack.  That is 2.5 stacks; the bound allows three."""
    text, want = _closed_quantum_ladder(np.random.default_rng(5), 7)
    path = tmp_path / "ladder7.opt"
    path.write_text(text, encoding="utf-8")
    stack = 128 * 4 ** 7 * 16
    tracemalloc.start()
    try:
        code, out = run("prob", path, "--test-circuit", "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    got = json.loads(out)
    assert len(got) == 4 ** 7
    assert np.max(np.abs(np.array(list(got.values())) - want)) <= 1e-10
    assert peak < 3 * stack


# ---------------------------------------------------------------------------
# construction commands
# ---------------------------------------------------------------------------

def test_purify_splits_on_the_verdict(run, fx):
    code, out = run("purify", fx("classical_bits.opt"), "--state", "point")
    assert code == 0
    assert json.loads(out)["verdict"] == "Purified"

    code, out = run("purify", fx("classical_bits.opt"), "--state", "fair")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "Failure"
    assert set(payload["witness"]) == {"reason", "summands", "support"}


def test_purify_reports_name_their_state(run, fx):
    """The name stays under ``state`` and the pure extension goes under
    ``purified``, on success, on failure and in each audit row."""
    code, out = run("purify", fx("plus_born.opt"), "--state", "plus")
    payload = json.loads(out)
    assert code == 0 and payload["state"] == "plus"
    assert payload["purified"]["system"] == "Q*@1"

    code, out = run("purify", fx("classical_bits.opt"), "--state", "fair")
    payload = json.loads(out)
    assert code == 1 and payload["state"] == "fair" and payload["purified"] is None

    code, out = run("audit", fx("plus_born.opt"), "--axiom", "purification")
    (row,) = json.loads(out)["states"]
    assert code == 0 and row["state"] == "plus" and row["purified"]["system"] == "Q*@1"


def test_purify_of_the_maximally_mixed_four_qubit_state(run, tmp_path):
    """Its pure extension lives on a 256-level carrier, whose dense operator
    basis would take 64 GiB; the coordinates go system by system."""
    dens = json.dumps((np.eye(16) / 16).tolist()).replace(" ", "")
    path = tmp_path / "mixed4.opt"
    path.write_text(f"theory quantum\nsystem Q dim=2\nstate mixed : Q * Q * Q * Q = dens={dens}\n")
    code, out = run("purify", path, "--state", "mixed")
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "Purified" and payload["rank"] == 16
    assert payload["purifying_system"] == "@16" and payload["marginal_error"] <= 1e-15


def test_dilate_reports_the_environment(run, fx):
    code, out = run("dilate", fx("damping.opt"), "--box", "damp")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Dilated"
    assert payload["environment"] == "@2"
    assert payload["environment_dim"] == 2
    assert payload["marginal_error"] <= 1e-10
    assert payload["isometry_residual"] <= 1e-10


def test_steer_reproduces_the_ensemble(run, fx):
    code, out = run("steer", fx("bell_steering.opt"),
                    "--state", "bell", "--test", "ensemble")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Steered"
    assert payload["labels"] == ["a", "b"]
    assert payload["completion_label"] == "a"
    assert payload["completeness_residual"] <= 1e-12
    assert max(payload["branch_errors"]) <= 1e-9


def test_steer_accepts_a_test_circuit(run, fixture_dir, tmp_path):
    text = (fixture_dir / "bell_steering.opt").read_text() + (
        "box x : Q -> Q = kraus=[[[[0,0],[1,0]],[[1,0],[0,0]]]]\n"
        "circuit flipped = ensemble ; x\n"
    )
    p = tmp_path / "flipped.opt"
    p.write_text(text)
    code, out = run("steer", p, "--state", "bell", "--test", "flipped")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Steered"
    assert payload["labels"] == ["a", "b"]
    assert max(payload["branch_errors"]) <= 1e-9


@pytest.mark.parametrize("theory", ["classical", "quantum", "quantum-real"])
def test_steer_refuses_a_zero_joint_state(run, tmp_path, theory):
    """The zero state has rank 0: it is not pure, so nothing steers it."""
    p = tmp_path / "zero.opt"
    p.write_text(f"theory {theory}\nsystem B dim=2\nsystem R dim=2\n"
                 "state zero : B * R = vec=[0,0,0,0]\n"
                 "test split : I -> B outcomes={a} { a: vec=[0,0] }\n")
    code, out = run("steer", p, "--state", "zero", "--test", "split")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "Failure"
    assert payload["witness"] == "state on B*R is not pure (rank 0)"


@pytest.mark.parametrize("theory", ["classical", "quantum", "quantum-real"])
def test_purify_refuses_the_zero_state(run, tmp_path, theory):
    """The zero state has no pure extension on any theory: one verdict, one witness."""
    p = tmp_path / "zero.opt"
    p.write_text(f"theory {theory}\nsystem B dim=2\nstate zero : B = vec=[0,0]\n")
    code, out = run("purify", p, "--state", "zero")
    assert code == 1
    payload = json.loads(out)
    assert (payload["verdict"], payload["rank"], payload["purified"]) == ("Failure", 0, None)
    assert payload["witness"] == {"reason": "the zero state has no pure extension"}


@pytest.mark.parametrize("test_name", ["one", "look"])
def test_steer_refuses_a_test_that_prepares_no_state(run, fx, test_name):
    code, out = run("steer", fx("test_compose_par.opt"),
                    "--state", "coin", "--test", test_name)
    assert code == 2
    assert "does not prepare states" in json.loads(out)["error"]


def test_equiv_agrees_up_to_global_sign(run, fx):
    code, out = run("equiv", fx("damping.opt"), "--box", "xgate", "--box2", "minusx")
    assert code == 0
    assert json.loads(out)["verdict"] == "Equivalent"


def test_equiv_distinguishes_with_a_replayed_witness(run, fx):
    code, out = run("equiv", fx("damping.opt"), "--box", "xgate", "--box2", "zgate")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "Distinguished"
    assert payload["max_gap"] == pytest.approx(1.0, abs=1e-9)
    w = payload["witness"]
    replayed = w["replayed"]
    assert replayed[0] == pytest.approx(w["p_first"], abs=1e-9)
    assert replayed[1] == pytest.approx(w["p_second"], abs=1e-9)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def test_audit_causality_holds(run, fx):
    code, out = run("audit", fx("plus_born.opt"), "--axiom", "causality",
                    "--trials", 3)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Holds"
    assert payload["axiom"] == "causality"


def test_audit_purification_flags_the_classical_theory(run, fx):
    code, out = run("audit", fx("classical_bits.opt"), "--axiom", "purification")
    assert code == 1
    assert json.loads(out)["verdict"] == "Violated"


def test_audit_faithfulness(run, fx):
    code, out = run("audit", fx("plus_born.opt"), "--axiom", "faithfulness",
                    "--trials", 5, "--seed", 3)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Holds"
    assert payload["seed"] == 3


def test_audit_faithfulness_draws_each_system_independently(run, fx):
    code, out = run("audit", fx("three_systems.opt"), "--axiom", "faithfulness",
                    "--trials", 20, "--seed", 3)
    assert code == 0
    gaps = {r["system"]: r["min_gap"] for r in json.loads(out)["systems"]}
    assert sorted(gaps) == ["A", "B", "C"]
    assert gaps["A"] != gaps["C"]


@pytest.mark.parametrize("theory", ["quantum", "quantum-real", "classical"])
def test_audit_faithfulness_holds_on_a_one_level_system(run, tmp_path, theory):
    """A 1-level system has one transformation, so two draws of it are equal
    and their zero gap witnesses nothing."""
    p = tmp_path / "one_level.opt"
    p.write_text(f"theory {theory}\nsystem T dim=1\n")
    code, out = run("audit", p, "--axiom", "faithfulness", "--trials", 2)
    assert code == 0
    (row,) = json.loads(out)["systems"]
    assert (row["verdict"], row["failures"]) == ("Confirmed", [])


def test_audit_local_tomography_fails_on_rebits(run, fx):
    code, out = run("audit", fx("rebit.opt"), "--axiom", "local-tomography")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "Fails"
    pair = payload["pairs"][0]
    assert (pair["product_dim"], pair["joint_dim"]) == (9, 10)
    assert pair["product_span_rank"] == 9


def test_audit_niwd_splits_on_the_verdict(run, fx):
    code, out = run("audit", fx("identity_instrument.opt"), "--axiom", "niwd")
    assert code == 0
    entry = json.loads(out)["tests"][0]
    assert entry["verdict"] == "Holds"
    assert sum(entry["weights"].values()) == pytest.approx(1.0, abs=1e-12)

    code, out = run("audit", fx("classical_bits.opt"), "--axiom", "niwd")
    assert code == 1
    entry = json.loads(out)["tests"][0]
    assert entry["verdict"] == "Violated"
    assert entry["weights"] == {"0": 0.5, "1": 0.5}
    assert entry["max_deviation"] == pytest.approx(0.5)


def test_audit_niwd_with_no_applicable_test_is_a_usage_error(run, tmp_path):
    p = tmp_path / "dim.opt"
    p.write_text("theory quantum\nsystem Q dim=2\ntest dim : Q -> Q outcomes={x} "
                 "{ x: kraus=[[[[0.5,0],[0,0]],[[0,0],[0.5,0]]]] }\n")
    code, out = run("audit", p, "--axiom", "niwd")
    assert code == 2
    assert json.loads(out)["error"].startswith("no identity-summing test")


# ---------------------------------------------------------------------------
# failure modes and determinism
# ---------------------------------------------------------------------------

def test_unreadable_file(run):
    code, out = run("prob", "/nonexistent.opt", "--test-circuit", "x")
    assert code == 2
    assert "cannot read" in json.loads(out)["error"]


def test_a_file_that_is_not_utf8_is_a_usage_error(run, tmp_path):
    p = tmp_path / "latin1.opt"
    p.write_bytes(b"theory quantum\n# caf\xff\nsystem Q dim=2\ncircuit c = id(Q)\n")
    code, out = run("eval", p, "--circuit", "c")
    assert code == 2
    assert json.loads(out) == {
        "error": f"cannot read {str(p)!r}: not UTF-8 at byte 20 (invalid start byte)"}


def test_a_byte_order_mark_is_ignored(run, fx, tmp_path):
    plain = fx("plus_born.opt")
    p = tmp_path / "bom.opt"
    p.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
    assert run("prob", p, "--test-circuit", "born") == run("prob", plain, "--test-circuit", "born")
    assert run("prob", p, "--test-circuit", "x") == run("prob", plain, "--test-circuit", "x")


def test_a_not_utf8_offset_counts_the_byte_order_mark(run, tmp_path):
    p = tmp_path / "bom-latin1.opt"
    p.write_bytes(b"\xef\xbb\xbfab\xff")
    code, out = run("eval", p, "--circuit", "c")
    assert code == 2
    assert json.loads(out) == {
        "error": f"cannot read {str(p)!r}: not UTF-8 at byte 5 (invalid start byte)"}


def test_parse_errors_carry_a_location(run, tmp_path):
    p = tmp_path / "bad.opt"
    p.write_text("theory quantum\nsystem Q dim=2\nstate s : Q = vec=[1, oops]\n")
    code, out = run("prob", p, "--test-circuit", "x")
    assert code == 2
    payload = json.loads(out)
    assert (payload["line"], payload["column"]) == (3, 23)
    assert "payload" in payload["error"]


def test_a_percent_sign_in_an_error_reaches_stdout_as_written(run, tmp_path):
    p = tmp_path / "percent.opt"
    p.write_text("theory quantum\nsystem Q dim=2\n%x\ncircuit c = id(Q)\n")
    code, out = run("eval", p, "--circuit", "c")
    assert code == 2
    assert out == (
        '{\n  "column": 1,\n  "error": "line 3, column 1: unknown statement \'%\' (expected one of: '
        'box, circuit, effect, state, system, test, theory)",\n  "line": 3\n}\n')


@pytest.mark.parametrize("theory", ["quantum", "quantum-real", "classical"])
@pytest.mark.parametrize("body, column", [
    pytest.param("system Q dim=2\nstate s : Q = vec=[1e400, 0]", (3, 19), id="1e400"),
    pytest.param("system Q dim=2\nstate s : Q = vec=[-1e400, 0]", (3, 19), id="-1e400"),
    pytest.param("system Q dim=2\nstate s : Q = vec=[1" + "0" * 400 + ", 0]", (3, 19),
                 id="401-digit-integer"),
    pytest.param("system Q dim=²", (2, 14), id="superscript-dim"),
    pytest.param("system Q dim=٣\nstate s : Q = vec=[1, 0, 0]", (2, 14), id="arabic-indic-dim"),
    pytest.param("system Q dim=" + "9" * 5000, (2, 14), id="5000-digit-dim"),
])
def test_overflowing_numbers_and_non_ascii_digits_are_usage_errors(run, tmp_path, theory,
                                                                   body, column):
    p = tmp_path / "bad.opt"
    p.write_text(f"theory {theory}\n{body}\ncircuit c = s\n", encoding="utf-8")
    code, out = run("eval", p, "--circuit", "c")
    assert code == 2
    payload = json.loads(out)
    assert (payload["line"], payload["column"]) == column


def test_unknown_names_are_usage_errors(run, fx):
    code, out = run("purify", fx("classical_bits.opt"), "--state", "nosuch")
    assert code == 2
    assert "nosuch" in json.loads(out)["error"]


def test_unphysical_payloads_fail_at_load(run, tmp_path):
    p = tmp_path / "unphysical.opt"
    p.write_text(
        "theory quantum\nsystem Q dim=2\n"
        "state s : Q = dens=[[[2,0],[0,0]],[[0,0],[0,0]]]\n"
    )
    code, out = run("eval", p, "--circuit", "s")
    assert code == 2
    assert "line 3" in json.loads(out)["error"]


@pytest.mark.parametrize("theory", ["quantum", "quantum-real"])
def test_choi_entries_near_the_float_limit_are_usage_errors(run, tmp_path, theory):
    p = tmp_path / "huge.opt"
    p.write_text(
        f"theory {theory}\nsystem Q dim=2\n"
        "box b : Q -> Q = choi=[[1e308,0,0,1e308],[0,0,0,0],[0,0,0,0],[1e308,0,0,1e308]]\n"
        "circuit c = b\n"
    )
    code, out = run("eval", p, "--circuit", "c")
    assert code == 2
    assert json.loads(out)["error"] == (
        "line 3: non-physical transformation: trace condition (margin 1.000e+308)"
    )


@pytest.mark.parametrize("theory, size", [("quantum", "14.6 TiB"), ("quantum-real", "7.28 TiB")])
def test_a_declaration_too_large_to_allocate_is_a_usage_error(run, tmp_path, theory, size):
    # the identity's kernel on dim 1000 has 10^12 entries: numpy refuses the
    # array before allocating any of it
    p = tmp_path / "big.opt"
    p.write_text(f"theory {theory}\nsystem Q dim=1000\ncircuit c = id(Q)\n")
    code, out = run("eval", p, "--circuit", "c")
    assert code == 2
    assert json.loads(out)["error"].startswith(f"out of memory: Unable to allocate {size}")


def _deep_chain(tmp_path):
    chain = " ; ".join(["flip"] * 600)
    p = tmp_path / "deep.opt"
    p.write_text(
        "theory quantum\nsystem Q dim=2\n"
        "state plus : Q = dens=[[[0.5,0],[0.5,0]],[[0.5,0],[0.5,0]]]\n"
        "box flip : Q -> Q = kraus=[[[[0,0],[1,0]],[[1,0],[0,0]]]]\n"
        "test z : Q -> I outcomes={0,1} { 0: dens=[[[1,0],[0,0]],[[0,0],[0,0]]]; "
        "1: dens=[[[0,0],[0,0]],[[0,0],[1,0]]] }\n"
        f"circuit ladder = {chain}\n"
        "circuit deep = plus ; ladder ; z\n"
    )
    return p


def test_crashes_exit_3_with_a_json_error(run, tmp_path, monkeypatch):
    """An internal crash must not read as a verdict (exit 1) but as an
    internal error."""
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("optlab.cli.run_test_circuit", crash)
    code, out = run("prob", _deep_chain(tmp_path), "--test-circuit", "deep")
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "internal error"
    assert payload["exception"] == "RecursionError"


def test_long_chains_evaluate(run, tmp_path):
    code, out = run("prob", _deep_chain(tmp_path), "--test-circuit", "deep")
    assert code == 0
    assert json.loads(out) == pytest.approx({"0": 0.5, "1": 0.5}, abs=1e-12)


def test_long_par_chains_evaluate(run, tmp_path):
    p = tmp_path / "wide.opt"
    p.write_text(
        "theory quantum\nsystem Q dim=2\n"
        "state up : Q = dens=[[[1,0],[0,0]],[[0,0],[0,0]]]\n"
        "effect one : Q = dens=[[[1,0],[0,0]],[[0,0],[1,0]]]\n"
        "circuit s = up ; one\n"
        f"circuit wide = {' * '.join(['s'] * 1200)}\n"
        f"circuit again = {' * '.join(['s'] * 1200)}\n"
        "circuit both = wide ; again\n"
    )
    for name in ("wide", "both"):
        code, out = run("eval", p, "--circuit", name)
        assert code == 0
        assert json.loads(out)["transfer"] == [[1.0]]
    p.write_text(p.read_text() + "circuit bad = wide ; one\n")
    code, out = run("eval", p, "--circuit", "bad")
    assert code == 2
    assert "line 9: cannot wire output I of ((" in json.loads(out)["error"]


def test_deep_nesting_is_a_usage_error(run, tmp_path):
    p = tmp_path / "nested.opt"
    p.write_text("theory quantum\nsystem Q dim=2\n"
                 f"circuit c = {'(' * 400}id(Q){')' * 400}\n")
    code, out = run("eval", p, "--circuit", "c")
    assert code == 2
    assert "line 3" in json.loads(out)["error"]


_TOKEN = re.compile(r"\w+|[^\w\s]")
_NAMED = re.compile(r"\b(state|effect|box|test|circuit)\s+(\w+)")
_DIM = re.compile(r"dim\s*=\s*([0-9]+)")


def _small(text: str) -> bool:
    return all(int(d) <= 3 for d in _DIM.findall(text))


def _mutant(text: str, rng: random.Random) -> str:
    """``text`` with two of its tokens of one class (number, word, mark)
    swapped, one of its tokens inserted before another, or one of its lines
    duplicated."""
    kind = rng.randrange(3)
    if kind == 2:
        lines = text.splitlines(keepends=True)
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
        return "".join(lines)
    spans = [m.span() for m in _TOKEN.finditer(text)]
    if kind == 0:
        def cls(span):
            token = text[span[0]:span[1]]
            return token[0].isdigit(), token[0].isalnum()
        first = rng.choice(spans)
        (a, b), (c, d) = sorted([first, rng.choice([s for s in spans if cls(s) == cls(first)])])
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    (a, b), (at, _) = rng.choice(spans), rng.choice(spans)
    return text[:at] + text[a:b] + " " + text[at:]


def test_every_command_keeps_the_exit_code_contract_on_mutated_fixtures(run, fixture_dir,
                                                                        tmp_path):
    """Seeded mutants of the fixtures, every dimension at most 3, through all
    six commands and five audits: each exits 0, 1 or 2 with JSON on stdout,
    and an exit 2 carries an error."""
    texts = [t for t in (q.read_text() for q in sorted(fixture_dir.glob("*.opt"))) if _small(t)]
    rng = random.Random(23)
    verdicts = 0
    for i in range(200):
        text = _mutant(rng.choice(texts), rng)
        while not _small(text):
            text = _mutant(rng.choice(texts), rng)
        p = tmp_path / f"mutant{i}.opt"
        p.write_text(text)
        declared = _NAMED.findall(text)

        def name(*kinds):  # a declared name of one of these kinds, if any
            return rng.choice([n for k, n in declared if k in kinds] or ["x"])
        argvs = [["eval", "--circuit", name("circuit")],
                 ["prob", "--test-circuit", name("circuit", "test")],
                 ["purify", "--state", name("state")], ["dilate", "--box", name("box")],
                 ["steer", "--state", name("state"), "--test", name("test")],
                 ["equiv", "--box", name("box", "circuit"), "--box2", name("box", "circuit")]]
        argvs += [["audit", "--axiom", axiom] for axiom in
                  ("causality", "purification", "faithfulness", "local-tomography", "niwd")]
        for args in argvs:
            argv = [args[0], p, *args[1:], "--trials", 8, "--seed", i]
            code, out = run(*argv)
            assert code in (0, 1, 2), (argv, text)
            report = json.loads(out)
            assert code != 2 or "error" in report, (argv, text)
            verdicts += code != 2
    assert verdicts


def test_output_is_byte_deterministic(run, fx):
    first = run("audit", fx("plus_born.opt"), "--axiom", "faithfulness",
                "--trials", 5)
    second = run("audit", fx("plus_born.opt"), "--axiom", "faithfulness",
                 "--trials", 5)
    assert first == second


def test_seed_changes_sampled_audits(run, fx):
    _, a = run("audit", fx("plus_born.opt"), "--axiom", "causality",
               "--trials", 4, "--seed", 1)
    _, b = run("audit", fx("plus_born.opt"), "--axiom", "causality",
               "--trials", 4, "--seed", 2)
    assert json.loads(a)["seed"] != json.loads(b)["seed"]


@pytest.mark.parametrize("flag, value", [
    ("--trials", "0"), ("--trials", "-3"), ("--trials", "2.5"),
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1e-9"), ("--tol", "abc"),
    ("--seed", "-1"),
])
def test_bad_flag_values_are_usage_errors(run, fx, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        run("audit", fx("plus_born.opt"), "--axiom", "faithfulness", flag, value)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_boundary_flag_values_are_accepted():
    args = build_parser().parse_args(["audit", "x.opt", "--axiom", "causality",
                                      "--trials", "1", "--seed", "0", "--tol", "0"])
    assert (args.trials, args.seed, args.tol) == (1, 0, 0.0)


# each command's required flags, in a line that parses
_REQUIRED = {
    "eval": ["--circuit", "c"],
    "prob": ["--test-circuit", "t"],
    "audit": ["--axiom", "niwd"],
    "purify": ["--state", "s"],
    "dilate": ["--box", "b"],
    "steer": ["--state", "s", "--test", "t"],
    "equiv": ["--box", "a", "--box2", "b"],
}


def _outcome(call, capsys):
    """What a parse or a run returned or exited with, and what it printed."""
    try:
        result = call()
    except SystemExit as e:
        result = ("exit", e.code)
    captured = capsys.readouterr()
    return (vars(result) if isinstance(result, argparse.Namespace) else result,
            captured.out, captured.err)


# an abbreviation of each command's first required flag (ambiguous on equiv)
_ABBREVIATED = {"eval": "--circ", "prob": "--test-c", "audit": "--ax", "purify": "--st",
                "dilate": "--bo", "steer": "--sta", "equiv": "--bo"}


@pytest.mark.parametrize("command", list(_REQUIRED))
@pytest.mark.parametrize("tail", [
    pytest.param(lambda c, f: f, id="valid"),
    pytest.param(lambda c, f: f[:-2], id="missing-flag"),
    pytest.param(lambda c, f: [*f, "--axiom", "bogus"], id="unknown-axiom"),
    pytest.param(lambda c, f: [*f, "--trials", "0"], id="trials-0"),
    pytest.param(lambda c, f: [*f, "--tol", "nan"], id="tol-nan"),
    pytest.param(lambda c, f: [*f, "more", "args"], id="trailing-extras"),
    pytest.param(lambda c, f: [*f, "-h"], id="help"),
    pytest.param(lambda c, f: [*f, "--he"], id="help-abbreviated"),
    pytest.param(lambda c, f: ["-h", *f], id="help-after-file"),
    pytest.param(lambda c, f: [_ABBREVIATED[c], *f[1:]], id="abbreviated-flag"),
    pytest.param(lambda c, f: [f"{f[0]}={f[1]}", *f[2:]], id="flag-equals-value"),
    pytest.param(lambda c, f: [*f, "--bogus"], id="unknown-flag"),
    pytest.param(lambda c, f: [*f, f[0], "again"], id="repeated-flag"),
    pytest.param(None, id="double-dash-before-file"),
])
def test_the_one_command_parser_parses_as_the_full_one(capsys, monkeypatch, fx, command, tail):
    """``main`` exits, prints and reports on every line as it does when the
    full parser parses the line."""
    path, flags = fx("plus_born.opt"), _REQUIRED[command]
    argv = [command, "--", path, *flags] if tail is None else [command, path, *tail(command, flags)]
    one = _outcome(lambda: main(argv), capsys)
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
    full = _outcome(lambda: main(argv), capsys)
    assert one == full


def test_a_valid_line_never_builds_the_full_parser(run, fx, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()
    monkeypatch.setattr(cli, "build_parser", counted)
    path = fx("plus_born.opt")
    for command, flags in _REQUIRED.items():
        run(command, path, *flags, "--seed", "3", "--tol=1e-8")
    assert built == []
    with pytest.raises(SystemExit):
        run("eval", path)
    assert built == [1]


@pytest.mark.parametrize("argv", [
    ["prob", "plus_born.opt", "--test-circuit", "born"],
    ["eval", "plus_born.opt", "--circuit", "born"],
    ["eval", "plus_born.opt"],
    ["audit", "plus_born.opt", "--axiom", "niwd", "extra"],
    ["bogus", "plus_born.opt"],
    [],
])
def test_main_reads_sys_argv_as_it_reads_a_list(capsys, monkeypatch, fixture_dir, argv):
    argv = [str(fixture_dir / a) if a.endswith(".opt") else a for a in argv]
    from_list = _outcome(lambda: main(argv), capsys)
    monkeypatch.setattr(sys, "argv", ["optlab", *argv])
    assert _outcome(main, capsys) == from_list
