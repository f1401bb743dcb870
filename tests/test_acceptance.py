"""Full-scale acceptance sweep.

Each test covers one headline guarantee at its stated scale and tolerance
and prints exactly one PASS/FAIL line (run with ``pytest -s`` to see them
as they complete).
"""

import glob
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from optlab import (
    Channel,
    Identity,
    Swap,
    SystemType,
    evaluate,
    get_backend,
    par,
    run_test_circuit,
    seq,
)
from optlab.audit import (
    check_causality,
    choi_correspondence,
    dilation_uniqueness,
    niwd_check,
    physicalize_readout,
    purification_uniqueness,
    purify_state,
    stinespring_dilate,
    steering_measurement,
)
from optlab.cli import main as cli_main
from optlab.diagram import test_par as parallel_tests
from optlab.dsl import load, parse, print_document
from optlab.errors import DslParseError, OptlabError
from optlab.sampling import Sampler
from optlab.tomography import local_tomography_check

THEORIES = ("quantum", "quantum-real", "classical")
A = SystemType.of("A")
B = SystemType.of("B")


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def as_state(backend, obj, word):
    return backend.channel_state(backend.state_channel(obj, word))


# ---------------------------------------------------------------------------
# 1. monoidal structure at scale
# ---------------------------------------------------------------------------

def test_criterion_01_monoidal_laws():
    start = time.perf_counter()
    worst = 0.0
    circuits = 0
    for theory in THEORIES:
        backend = get_backend(theory, systems={"A": 2, "B": 2})
        s = Sampler(backend, seed=101)

        def gap(d1, d2):
            t1 = evaluate(d1, backend, s.bindings).matrix
            t2 = evaluate(d2, backend, s.bindings).matrix
            return float(np.max(np.abs(t1 - t2)))

        # unit laws on 200 circuits
        for _ in range(200):
            win, wout = s.word(), s.word()
            d = s.diagram(win, wout, depth=int(s.rng.integers(1, 5)))
            circuits += 1
            worst = max(worst, gap(seq(Identity(win), d), d))
            worst = max(worst, gap(seq(d, Identity(wout)), d))

        # interchange on 50 quadruples
        letters = [A, B]
        for _ in range(50):
            w1, w2, w3, v1, v2, v3 = (
                letters[int(s.rng.integers(2))] for _ in range(6)
            )
            da = s.diagram(w1, w2, depth=int(s.rng.integers(1, 4)))
            dc = s.diagram(w2, w3, depth=int(s.rng.integers(1, 4)))
            db = s.diagram(v1, v2, depth=int(s.rng.integers(1, 4)))
            dd = s.diagram(v2, v3, depth=int(s.rng.integers(1, 4)))
            circuits += 4
            worst = max(
                worst,
                gap(seq(par(da, db), par(dc, dd)), par(seq(da, dc), seq(db, dd))),
            )

        # swap naturality on 50 pairs
        for _ in range(50):
            wa, wa2, wb, wb2 = (letters[int(s.rng.integers(2))] for _ in range(4))
            da = s.diagram(wa, wa2, depth=int(s.rng.integers(1, 4)))
            db = s.diagram(wb, wb2, depth=int(s.rng.integers(1, 4)))
            circuits += 2
            worst = max(
                worst,
                gap(seq(par(da, db), Swap(wa2, wb2)), seq(Swap(wa, wb), par(db, da))),
            )

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed <= 60.0 and circuits == 3 * 500
    report(1, ok,
           f"monoidal laws on {circuits} circuits, max residual {worst:.2e}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. probabilistic consistency
# ---------------------------------------------------------------------------

def test_criterion_02_distributions_and_independence():
    worst_total = 0.0
    for i in range(200):
        backend = get_backend(THEORIES[i % 3], systems={"A": 2, "B": 3})
        s = Sampler(backend, seed=200 + i)
        t = s.closed_test_circuit(max_branches=3, depth=1)
        dist = run_test_circuit(t, backend, s.bindings)
        worst_total = max(worst_total, abs(sum(dist.probs.values()) - 1.0))

    worst_factor = 0.0
    for i in range(100):
        backend = get_backend(THEORIES[i % 3], systems={"A": 2, "B": 3})
        s = Sampler(backend, seed=500 + i)
        t1 = s.closed_test_circuit(max_branches=3, depth=1)
        t2 = s.closed_test_circuit(max_branches=3, depth=1)
        d1 = run_test_circuit(t1, backend, s.bindings)
        d2 = run_test_circuit(t2, backend, s.bindings)
        joint = run_test_circuit(parallel_tests(t1, t2), backend, s.bindings)
        for x, px in d1.probs.items():
            for y, py in d2.probs.items():
                worst_factor = max(worst_factor, abs(joint.probs[f"({x},{y})"] - px * py))

    ok = worst_total <= 1e-10 and worst_factor <= 1e-12
    report(2, ok,
           f"200 closed tests total within {worst_total:.2e}, "
           f"100 parallel scalar tests factorize within {worst_factor:.2e}")


# ---------------------------------------------------------------------------
# 3. unique deterministic effect
# ---------------------------------------------------------------------------

def test_criterion_03_observation_tests_sum_to_trace():
    worst = 0.0
    exact = True
    for theory in THEORIES:
        backend = get_backend(theory, systems={"A": 2, "B": 3})
        s = Sampler(backend, seed=301)
        words = [A, B, A * B]
        tests = [
            s.observation_channels(words[i % 3], 2 + i % 4) for i in range(200)
        ]
        rep = check_causality(backend, tests, tol=1e-12)
        worst = max(worst, rep.max_residual)
        assert rep.tests_checked == 200

        # independent scalars compose multiplicatively, with no rounding
        for i in range(50):
            pa = _paired_scalar(backend, s, A, f"a{i}")
            pb = _paired_scalar(backend, s, B, f"b{i}")
            joint = evaluate(par(pa[0], pb[0]), backend, {**pa[1], **pb[1]})
            lone_a = evaluate(pa[0], backend, pa[1])
            lone_b = evaluate(pb[0], backend, pb[1])
            if joint.matrix[0, 0] != lone_a.matrix[0, 0] * lone_b.matrix[0, 0]:
                exact = False

    ok = worst <= 1e-12 and exact
    report(3, ok,
           f"600 observation tests, max deviation from trace {worst:.2e}, "
           f"scalar product rule exact: {exact}")


def _paired_scalar(backend, s, word, tag):
    from optlab.diagram import PrimitiveBox

    st = s.state(word)
    eff = s.povm(word, 2)[0]
    prep = PrimitiveBox(f"prep_{tag}", SystemType(()), word)
    meas = PrimitiveBox(f"meas_{tag}", word, SystemType(()))
    bindings = {
        f"prep_{tag}": backend.state_channel(
            backend.state_object(st.coords, word), word
        ),
        f"meas_{tag}": backend.effect_channel(eff, word),
    }
    return seq(prep, meas), bindings


# ---------------------------------------------------------------------------
# 4. pure extensions exist and are essentially unique
# ---------------------------------------------------------------------------

def test_criterion_04_purification_at_scale():
    start = time.perf_counter()
    word = SystemType.of("A")
    worst_marg = 0.0
    rank_ok = True
    for d in (2, 3, 4):
        backend = get_backend("quantum", systems={"A": d})
        s = Sampler(backend, seed=400 + d)
        for i in range(200):
            r = 1 + int(s.rng.integers(d))
            rho = s.density_matrix(d, rank=r)
            vals = np.linalg.eigvalsh(rho)
            true_rank = int(np.sum(vals > 1e-9 * float(vals.max())))
            res = purify_state(backend, as_state(backend, rho, word))
            if res.verdict != "Purified":
                rank_ok = False
                continue
            if backend.hilbert_dim(res.purifying_system) != true_rank:
                rank_ok = False
            worst_marg = max(worst_marg, res.marginal_error)

    worst_replay = 0.0
    connected = 0
    for i in range(100):
        d = 2 + i % 3
        backend = get_backend("quantum", systems={"A": d})
        s = Sampler(backend, seed=440 + i)
        rho = s.density_matrix(d)
        base = purify_state(backend, as_state(backend, rho, word))
        wing = base.purifying_system
        stir = s.unitary_channel(wing)
        ident = Channel(word, word, backend.kernel_identity(word))
        kern = backend.kernel_par(ident, stir) @ backend.state_channel(
            backend.state_object(base.state.coords, word * wing), word * wing
        ).kernel
        psi2 = backend.channel_state(
            Channel(SystemType(()), word * wing, kern)
        )
        rep = purification_uniqueness(backend, base.state, psi2, word)
        if rep.verdict == "Connected":
            connected += 1
        worst_replay = max(worst_replay, rep.replay_error)

    elapsed = time.perf_counter() - start
    ok = (rank_ok and worst_marg <= 1e-10 and connected == 100
          and worst_replay <= 1e-9 and elapsed <= 120.0)
    report(4, ok,
           f"600 purifications (wing = rank, marginal ≤ {worst_marg:.2e}), "
           f"{connected}/100 pairs connected (replay ≤ {worst_replay:.2e}), "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. the classical theory is the negative control
# ---------------------------------------------------------------------------

def test_criterion_05_classical_counterexample(fixture_dir, capsys):
    import itertools

    word = SystemType.of("A")
    agreed = True
    checked = 0
    for d in (1, 2, 3):
        backend = get_backend("classical", systems={"A": d})
        steps = 4
        for raw in itertools.product(range(steps + 1), repeat=d):
            if sum(raw) != steps:
                continue
            v = np.array(raw, dtype=float) / steps
            res = purify_state(backend, as_state(backend, v, word))
            pure = int(np.count_nonzero(v)) <= 1
            checked += 1
            if pure and res.verdict != "Purified":
                agreed = False
            if not pure and (res.verdict != "Failure" or res.witness is None):
                agreed = False

    code = cli_main(["audit", str(fixture_dir / "classical_bits.opt"),
                     "--axiom", "purification"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    cli_ok = (code == 1 and payload["verdict"] == "Violated"
              and any(e["witness"] for e in payload["states"]))

    ok = agreed and cli_ok
    report(5, ok,
           f"{checked} grid states match the point-mass rule exactly; "
           f"audit exits 1 with a witness: {cli_ok}")


# ---------------------------------------------------------------------------
# 6. every decomposition is induced by a measurement on the wing
# ---------------------------------------------------------------------------

def test_criterion_06_steering():
    word = SystemType.of("A")
    worst_comp = 0.0
    worst_branch = 0.0
    for i in range(100):
        d = 2 + i % 2
        k = 2 + i % 3
        backend = get_backend("quantum", systems={"A": d})
        s = Sampler(backend, seed=600 + i)
        parts = s.preparation_branches(word, k)
        rho = sum(parts)
        purif = purify_state(backend, as_state(backend, rho, word))
        branches = [as_state(backend, p, word) for p in parts]
        out = steering_measurement(backend, branches, purif.state, word)
        worst_comp = max(worst_comp, out.completeness_residual)
        worst_branch = max(worst_branch, max(out.branch_errors))

    ok = worst_comp <= 1e-12 and worst_branch <= 1e-9
    report(6, ok,
           f"100 ensembles steered, completeness ≤ {worst_comp:.2e}, "
           f"branch replay ≤ {worst_branch:.2e}")


# ---------------------------------------------------------------------------
# 7. transformations are states of a larger system
# ---------------------------------------------------------------------------

def test_criterion_07_state_transformation_bridge():
    worst = 0.0
    ranks_ok = True
    count = 0
    for theory in ("quantum", "quantum-real"):
        backend = get_backend(theory, systems={"A": 2, "B": 3})
        for win, wout in ((A, A), (A, B), (B, B)):
            corr = choi_correspondence(backend, win, wout)
            if corr.rank != corr.required:
                ranks_ok = False
            s = Sampler(backend, seed=700 + count)
            n = 17 if (win, wout) != (B, B) else 16  # 50 per theory
            for _ in range(n):
                ch = s.channel(win, wout)
                rec, residual = corr.recover(corr.image_state(ch))
                worst = max(worst, residual,
                            float(np.max(np.abs(rec.kernel - ch.kernel))))
                count += 1

    ok = worst <= 1e-12 and ranks_ok and count == 100
    report(7, ok,
           f"{count} channels round-trip within {worst:.2e}; "
           f"bridge rank exact on both quantum backends: {ranks_ok}")


# ---------------------------------------------------------------------------
# 8. information requires disturbance
# ---------------------------------------------------------------------------

def test_criterion_08_no_information_without_disturbance():
    quantum_ok = True
    worst_sum = 0.0
    for i in range(50):
        backend = get_backend("quantum", systems={"A": 2, "B": 3})
        s = Sampler(backend, seed=800 + i)
        word = (A, B, A * B)[i % 3]
        rep = niwd_check(backend, s.identity_instrument(word, 2 + i % 4))
        if rep.verdict != "Holds":
            quantum_ok = False
        worst_sum = max(worst_sum, abs(rep.weights_total - 1.0))

    classical_ok = True
    for d in (2, 3):
        backend = get_backend("classical", systems={"A": d})
        word = SystemType.of("A")
        branches = [
            Channel(word, word, np.diag((np.arange(d) == x).astype(float)))
            for x in range(d)
        ]
        rep = niwd_check(backend, branches)
        if rep.verdict != "Violated" or rep.offending_label is None:
            classical_ok = False

    ok = quantum_ok and worst_sum <= 1e-12 and classical_ok
    report(8, ok,
           f"50 identity-summing instruments Hold (weights off by ≤ {worst_sum:.2e}); "
           f"classical readouts Violated: {classical_ok}")


# ---------------------------------------------------------------------------
# 9. pure realizations with minimal environments
# ---------------------------------------------------------------------------

def test_criterion_09_stinespring():
    worst_marg = 0.0
    env_ok = True
    worst_replay = 0.0
    connected = 0
    pairs = 0
    for d in (2, 3):
        backend = get_backend("quantum", systems={"A": d})
        word = SystemType.of("A")
        s = Sampler(backend, seed=900 + d)
        for i in range(100):
            ch = s.channel(word, word)
            choi = backend.channel_choi(ch)
            vals = np.linalg.eigvalsh(choi)
            choi_rank = int(np.sum(vals > 1e-9 * float(vals.max())))
            res = stinespring_dilate(backend, ch)
            worst_marg = max(worst_marg, res.marginal_error)
            if res.environment_dim != choi_rank:
                env_ok = False

            if i < 25:
                r = len(res.kraus)
                w = s.random_unitary(r)
                mixed = [
                    sum(w[a, b] * res.kraus[b] for b in range(r)) for a in range(r)
                ]
                v2 = np.zeros((d * r, d), dtype=complex)
                for c, k in enumerate(mixed):
                    v2[c::r, :] = k
                p2 = backend.conjugation_channel(v2, word, word * res.environment)
                rep = dilation_uniqueness(backend, res.channel, p2, word)
                pairs += 1
                if rep.verdict == "Connected":
                    connected += 1
                worst_replay = max(worst_replay, rep.replay_error)

    ok = (worst_marg <= 1e-10 and env_ok and connected == pairs
          and worst_replay <= 1e-9)
    report(9, ok,
           f"200 dilations (env = process-matrix rank: {env_ok}, "
           f"marginal ≤ {worst_marg:.2e}); {connected}/{pairs} operator-sum "
           f"pairs connected (replay ≤ {worst_replay:.2e})")


# ---------------------------------------------------------------------------
# 10. where product probes suffice
# ---------------------------------------------------------------------------

def test_criterion_10_local_tomography():
    q = local_tomography_check(get_backend("quantum", systems={"A": 2}), A, A)
    c = local_tomography_check(get_backend("classical", systems={"A": 2}), A, A)
    r = local_tomography_check(get_backend("quantum-real", systems={"A": 2}), A, A)
    ok = (
        q.verdict == "Holds" and (q.product_dim, q.joint_dim) == (16, 16)
        and q.left_dim == q.right_dim == 4
        and c.verdict == "Holds" and (c.product_dim, c.joint_dim) == (4, 4)
        and r.verdict == "Fails" and (r.product_dim, r.joint_dim) == (9, 10)
    )
    report(10, ok,
           f"quantum 16=4·4 {q.verdict}; classical 4=2·2 {c.verdict}; "
           f"real-amplitude {r.product_dim} vs {r.joint_dim} {r.verdict}")


# ---------------------------------------------------------------------------
# 11. every complete test folds into a deterministic readout
# ---------------------------------------------------------------------------

def test_criterion_11_readout_physicalization():
    worst = 0.0
    physical = True
    for i in range(100):
        backend = get_backend(THEORIES[i % 3], systems={"A": 2, "B": 3})
        s = Sampler(backend, seed=1100 + i)
        word = (A, B)[i % 2]
        branches = s.instrument(word, word, 2 + i % 3)
        res = physicalize_readout(backend, branches)
        worst = max(worst, max(res.branch_errors))
        if not res.certificate.physical:
            physical = False

    ok = worst <= 1e-10 and physical
    report(11, ok,
           f"100 complete tests replay through their readout within {worst:.2e}; "
           f"all folded boxes physical: {physical}")


# ---------------------------------------------------------------------------
# 12. the file format survives abuse
# ---------------------------------------------------------------------------

def test_criterion_12_dsl_round_trip_and_fuzz(fixture_dir):
    paths = sorted(glob.glob(str(fixture_dir / "*.opt")))
    round_trips = 0
    for path in paths:
        doc = parse(Path(path).read_text())
        assert parse(print_document(doc)) == doc
        round_trips += 1

    alphabet = list("abcXYZ019{}[]()=:;,*->#@.\"' \t")
    rng = random.Random(1212)
    texts = [Path(p).read_text() for p in paths]
    located = 0
    survived = 0
    for _ in range(1000):
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("delete", "insert", "replace", "dup"))
            if not chars:
                op = "insert"
            i = rng.randrange(len(chars) + (op == "insert"))
            if op == "delete":
                del chars[i]
            elif op == "insert":
                chars.insert(i, rng.choice(alphabet))
            elif op == "replace":
                chars[i] = rng.choice(alphabet)
            else:
                chars.insert(i, chars[i])
        try:
            load("".join(chars))
            survived += 1
        except DslParseError as e:
            located += e.line >= 1 and e.column >= 1
        except OptlabError as e:
            located += "line" in str(e)
        # anything else propagates and fails the criterion

    ok = round_trips >= 20 and survived + located == 1000
    report(12, ok,
           f"{round_trips} fixtures round-trip; 1000 mutations: "
           f"{survived} still load, {located} located errors, 0 crashes")
