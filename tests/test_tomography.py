"""Probe-relative process comparison: where product probes suffice, where
they provably do not, and whether the uniform state separates everything."""

import numpy as np
import pytest

from optlab import Channel, SystemType, get_backend, par, seq
from optlab import sampling
from optlab.audit.purification import purify_state
from optlab.diagram import PrimitiveBox, UNIT
from optlab.errors import TypeMismatchError
from fixture_sampler import FixtureSampler
from optlab.tomography import (
    equivalent,
    local_tomography_check,
    replay_witness,
    verify_faithfulness,
)

A = SystemType.of("A")
B = SystemType.of("B")


# ---------------------------------------------------------------------------
# a pair of rebit maps that agree on every local probe
# ---------------------------------------------------------------------------
#
# Average of a quarter-turn rotation with its inverse, versus the average of
# the two reflections it bisects.  Both send a symmetric matrix to the same
# symmetrized combination, but they act differently on the correlated pure
# state of two rebits (first frozen by lift_first below).

_C = np.cos(np.pi / 4)
_ROT = np.array([[_C, -_C], [_C, _C]])
_REFL_Z = np.diag([1.0, -1.0])
_REFL_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def rebit_pair(word):
    m1 = Channel(word, word, 0.5 * np.kron(_ROT, _ROT) + 0.5 * np.kron(_ROT.T, _ROT.T))
    m2 = Channel(word, word, 0.5 * np.kron(_REFL_Z, _REFL_Z) + 0.5 * np.kron(_REFL_X, _REFL_X))
    return m1, m2


def lift_first(kernel, x):
    """Apply a one-rebit kernel to the first factor of a two-rebit matrix."""
    lr = kernel.reshape(2, 2, 2, 2)
    x4 = x.reshape(2, 2, 2, 2)
    return np.einsum("cCaA,abAB->cbCB", lr, x4).reshape(4, 4)


def test_rebit_pair_oracle():
    """Independent check, no backend: equal on symmetric inputs, split by
    the correlated joint state with gap one half."""
    m1, m2 = rebit_pair(A)
    sym = [
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2),
    ]
    for e in sym:
        y1 = (m1.kernel @ e.reshape(-1)).reshape(2, 2)
        y2 = (m2.kernel @ e.reshape(-1)).reshape(2, 2)
        assert float(np.max(np.abs(y1 - y2))) <= 1e-15
    om = np.zeros(4)
    om[0] = om[3] = 1 / np.sqrt(2)
    phi = np.outer(om, om)
    gap = np.max(np.abs(lift_first(m1.kernel, phi) - lift_first(m2.kernel, phi)))
    assert gap == pytest.approx(0.5, abs=1e-12)


def test_rebit_pair_equal_without_reference(real_quantum):
    m1, m2 = rebit_pair(A)
    rep = equivalent(m1, m2, real_quantum, ref_policy=[UNIT])
    assert rep.verdict == "Equivalent"
    assert rep.max_gap <= 1e-12


def test_rebit_pair_split_by_a_side_rebit(real_quantum):
    m1, m2 = rebit_pair(A)
    rep = equivalent(m1, m2, real_quantum, ref_policy=[A])
    assert rep.verdict == "Distinguished"
    assert rep.max_gap == pytest.approx(0.5, abs=1e-9)
    w = rep.witness
    assert w.reference == A
    assert w.p_first == pytest.approx(0.5, abs=1e-9)
    assert w.p_second == pytest.approx(0.0, abs=1e-9)
    p1, p2 = replay_witness(real_quantum, m1, m2, w)
    assert p1 == pytest.approx(w.p_first, abs=1e-9)
    assert p2 == pytest.approx(w.p_second, abs=1e-9)


def test_rebit_pair_default_policy_distinguishes(real_quantum):
    m1, m2 = rebit_pair(A)
    rep = equivalent(m1, m2, real_quantum)
    assert rep.verdict == "Distinguished"
    assert dict(rep.references)["I"] <= 1e-12


def test_same_pair_on_complex_backend_never_agrees(quantum):
    """With complex amplitudes the two maps differ already locally."""
    m1, m2 = rebit_pair(A)
    rep = equivalent(m1, m2, quantum, ref_policy=[UNIT])
    assert rep.verdict == "Distinguished"


# ---------------------------------------------------------------------------
# equivalence on the other backends
# ---------------------------------------------------------------------------

def test_two_routes_to_one_unitary(quantum):
    h = Channel(A, A, np.kron(_REFL_X @ _ROT.T, (_REFL_X @ _ROT.T).conj()))
    direct = PrimitiveBox("h", A, A)
    doubled = seq(PrimitiveBox("h", A, A), seq(PrimitiveBox("h", A, A),
                                               PrimitiveBox("h", A, A)))
    rep = equivalent(direct, doubled, quantum, bindings={"h": h})
    assert rep.verdict == "Equivalent"  # the map is an involution
    assert rep.max_gap <= 1e-12


def test_bit_flip_differs_from_identity(classical):
    flip = Channel(A, A, np.array([[0.0, 1.0], [1.0, 0.0]]))
    ident = Channel(A, A, np.eye(2))
    rep = equivalent(flip, ident, classical)
    assert rep.verdict == "Distinguished"
    assert rep.max_gap == pytest.approx(1.0)
    # a point mass witnesses the difference
    assert max(np.abs(rep.witness.state.coords)) == pytest.approx(1.0)


def test_identity_differs_from_depolarizing(quantum):
    ident = Channel(A, A, quantum.kernel_identity(A))
    depol = quantum.channel_from_choi(np.eye(4) / 2, A, A)
    rep = equivalent(ident, depol, quantum)
    assert rep.verdict == "Distinguished"
    p1, p2 = replay_witness(quantum, ident, depol, rep.witness)
    assert abs(p1 - p2) == pytest.approx(rep.witness.gap, abs=1e-12)


def test_mismatched_types_are_refused(quantum):
    s = FixtureSampler(quantum, seed=3)
    with pytest.raises(TypeMismatchError):
        equivalent(s.channel(A, A), s.channel(A, B), quantum)


def test_self_equivalence(backend):
    s = FixtureSampler(backend, seed=5)
    ch = s.channel(A, B)
    rep = equivalent(ch, Channel(A, B, ch.kernel.copy()), backend)
    assert rep.verdict == "Equivalent"
    assert rep.max_gap <= 1e-12
    assert rep.witness is None


def test_distinguished_witness_replays(backend):
    s = FixtureSampler(backend, seed=7)
    for _ in range(5):
        c1, c2 = s.channel(A, A), s.channel(A, A)
        rep = equivalent(c1, c2, backend)
        if rep.verdict != "Distinguished":
            continue
        assert rep.witness.gap > rep.tolerance
        p1, p2 = replay_witness(backend, c1, c2, rep.witness)
        assert p1 == pytest.approx(rep.witness.p_first, abs=1e-9)
        assert p2 == pytest.approx(rep.witness.p_second, abs=1e-9)


# ---------------------------------------------------------------------------
# local tomography
# ---------------------------------------------------------------------------

def test_local_tomography_quantum(quantum):
    rep = local_tomography_check(quantum, A, A)
    assert rep.verdict == "Holds"
    assert (rep.left_dim, rep.right_dim) == (4, 4)
    assert rep.product_dim == 16
    assert rep.joint_dim == 16
    assert rep.product_span_rank == 16


def test_local_tomography_classical(classical):
    rep = local_tomography_check(classical, A, A)
    assert rep.verdict == "Holds"
    assert rep.product_dim == 4
    assert rep.joint_dim == 4
    assert rep.product_span_rank == 4


def test_local_tomography_fails_for_real_amplitudes(real_quantum):
    rep = local_tomography_check(real_quantum, A, A)
    assert rep.verdict == "Fails"
    assert rep.product_dim == 9
    assert rep.joint_dim == 10
    assert rep.product_span_rank == 9


def test_local_tomography_mixed_word(backend):
    rep = local_tomography_check(backend, A, B)
    expected = {"quantum": ("Holds", 36, 36), "classical": ("Holds", 6, 6),
                "quantum-real": ("Fails", 18, 21)}[backend.name]
    assert (rep.verdict, rep.product_dim, rep.joint_dim) == expected


def test_tomography_verdict_predicts_policy_agreement():
    """Where product probes span the joint space, adding references never
    changes a verdict; the rebit pair shows the converse failure."""
    for theory in ("quantum", "classical"):
        backend = get_backend(theory, systems={"A": 2, "B": 3})
        assert local_tomography_check(backend, A, A).verdict == "Holds"
        s = FixtureSampler(backend, seed=11)
        for _ in range(20):
            c1, c2 = s.channel(A, A), s.channel(A, A)
            bare = equivalent(c1, c2, backend, ref_policy=[UNIT])
            full = equivalent(c1, c2, backend)
            assert bare.verdict == full.verdict


# ---------------------------------------------------------------------------
# faithfulness of the uniform state
# ---------------------------------------------------------------------------

def _uniform_weights(backend, word):
    """The weights of the pure pieces of the uniform state, which
    ``faithful_probe`` extends."""
    obj = backend.state_object(backend.uniform_state(word).coords, word)
    return backend.extremal_decomposition(obj).weights


def test_faithful_state_is_interior(backend):
    np.testing.assert_allclose(_uniform_weights(backend, A), [0.5, 0.5], rtol=0, atol=1e-12)


def test_faithful_state_of_composite(backend):
    np.testing.assert_allclose(_uniform_weights(backend, A * B), [1 / 6] * 6, rtol=0, atol=1e-12)


def test_uniform_state_separates_random_pairs(backend):
    rep = verify_faithfulness(backend, word=A, trials=25, seed=1)
    assert rep.verdict == "Confirmed"
    assert rep.failures == []
    assert rep.min_gap > rep.tolerance


def test_faithfulness_defaults_to_first_declared_system(backend):
    rep = verify_faithfulness(backend, trials=5, seed=2)
    assert rep.verdict == "Confirmed"
    assert rep.trials == 5


# ---------------------------------------------------------------------------
# the batched audit against the per-trial loop it replaced
# ---------------------------------------------------------------------------

def reference_faithfulness(backend, word, trials, seed, tol=None):
    """The per-trial loop of ``verify_faithfulness`` before trials were
    stacked, kept verbatim as the reference (returns the report fields)."""
    tol = backend.tol.gap if tol is None else tol
    d = backend.hilbert_dim(word)

    if backend.name == "classical":
        ref = word
        sigma = np.zeros(d * d)
        sigma[:: d + 1] = 1.0 / d
        psi_kernel = backend.state_channel(sigma, word * ref).kernel
    else:
        pur = purify_state(backend, backend.uniform_state(word))
        ref = pur.purifying_system
        psi_kernel = backend.state_as_channel(pur.purified).kernel

    sampler = FixtureSampler(backend, seed=seed)
    ident_ref = Channel(ref, ref, backend.kernel_identity(ref))
    joint_out = word * ref
    emat = backend.spanning_states(joint_out)

    min_gap = np.inf
    failures: list[int] = []
    for trial in range(trials):
        a = sampler.channel(word, word)
        b = sampler.channel(word, word)
        coords = []
        for ch in (a, b):
            joint_kernel = backend.kernel_par(ch, ident_ref) @ psi_kernel
            coords.append(
                backend.channel_state(Channel(UNIT, joint_out, joint_kernel)).coords
            )
        gap = float(np.max(np.abs(emat @ (coords[0] - coords[1]))))
        min_gap = min(min_gap, gap)
        if gap <= tol:
            failures.append(trial)
    verdict = "Confirmed" if not failures else "Refuted"
    return verdict, trials, float(min_gap), failures


@pytest.fixture(scope="module", params=("quantum", "quantum-real", "classical"))
def shared_backend(request):
    """One backend per theory for the module, with its spanning families
    memoized.  Only the real theory needs it: its 666-member family on the
    36-dimensional joint carrier of ``A*B`` and its purification takes over a
    second to build and is the same for every call."""
    b = get_backend(request.param, {"A": 2, "B": 3})
    memo = {}
    build = b.spanning_states

    def spanning_states(word):
        if word not in memo:
            memo[word] = build(word)
        return memo[word]

    b.spanning_states = spanning_states
    return b


def assert_same_report(backend, rep, ref):
    verdict, trials, min_gap, failures = ref
    assert (rep.verdict, rep.trials, rep.failures) == (verdict, trials, failures)
    if backend.name == "classical":
        assert rep.min_gap == min_gap
    else:
        assert rep.min_gap == pytest.approx(min_gap, rel=1e-12, abs=0.0)


# the reference builds a dense D^2 R^2 x D^2 R^2 kernel per draw (80 ms a trial
# on A*B), so the composite word runs 40 trials on fewer seeds
@pytest.mark.parametrize("word, seeds_for_40", [(A, range(10)), (B, range(10)), (A * B, range(2))])
def test_batched_faithfulness_matches_the_trial_loop(shared_backend, word, seeds_for_40):
    for seed in range(10):
        for trials in (1, 40) if seed in seeds_for_40 else (1,):
            rep = verify_faithfulness(shared_backend, word=word, trials=trials, seed=seed)
            assert_same_report(shared_backend, rep,
                               reference_faithfulness(shared_backend, word, trials, seed))


@pytest.mark.parametrize("word", [A, B])
def test_batched_faithfulness_reports_the_same_failures(shared_backend, word):
    """A tolerance inside the spread of the gaps fails some trials and not
    others; the failing trial indices must agree."""
    tol = 0.2
    failed = 0
    for seed in range(10):
        rep = verify_faithfulness(shared_backend, word=word, trials=40, seed=seed, tol=tol)
        assert_same_report(shared_backend, rep,
                           reference_faithfulness(shared_backend, word, 40, seed, tol))
        failed += len(rep.failures)
    assert 0 < failed < 400


def test_faithfulness_block_size_changes_nothing(shared_backend, monkeypatch):
    """40 trials in blocks of 7 (the last one short) give the report of one
    block, bit for bit.  Faithfulness alone: for observation tests and
    random states the block size is part of what a seed draws."""
    reports = []
    for block in (7, 1000):
        monkeypatch.setattr(sampling, "TRIAL_BLOCK", block)
        rep = verify_faithfulness(shared_backend, word=B, trials=40, seed=4, tol=0.2)
        reports.append((rep.verdict, rep.trials, rep.failures, rep.min_gap))
    assert reports[0] == reports[1]
    assert reports[0][2]  # some trials fail, so the indices are compared too
