"""Acting beside a reference system: ``(A * id(R))`` is one ``apply_par``.

``apply_first`` and every audit that acts on one part of a joint state call
``apply_par`` with a list of two leaves, the channel and ``Identity(R)``, and
none builds a kernel beside an identity.  The
references below are the two other ways to write the same action: the
per-theory einsum ``apply_first`` in Liouville order, and the dense product
of a kernel beside ``backend.identity`` with the joint kernel.  On the
matrix theories the stacked forms agree with both within 1e-12.
"""

import numpy as np
import pytest

from optlab import Channel, SystemType, UNIT, get_backend
from optlab.audit import (
    choi_correspondence,
    dilation_uniqueness,
    physicalize_readout,
    purification_uniqueness,
    purify_state,
    steering_measurement,
    stinespring_dilate,
)
from optlab.backends.base import StateVector, TheoryBackend
from fixture_sampler import FixtureSampler
from optlab.tomography import local_tomography_check, verify_faithfulness

A = SystemType.of("A")
B = SystemType.of("B")

TOL = 1e-12

CASES = [(theory, dims, word)
         for theory in ("quantum", "quantum-real")
         for dims in ((2, 2), (2, 3), (3, 2))
         for word in (A, B, A * B)]


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}-{c[1][0]}x{c[1][1]}-{c[2]}")
def case(request):
    theory, (da, db), word = request.param
    return get_backend(theory, {"A": da, "B": db}), word


# -- references ----------------------------------------------------------------


def _reference_of(state, input_word):
    return SystemType(state.system.word[len(input_word):])


def einsum_apply_first(backend, kernels, input_word, output_word, state):
    """``(k * id)(state)`` for each kernel, by one einsum on the Liouville legs."""
    din, dout = backend.hilbert_dim(input_word), backend.hilbert_dim(output_word)
    ref = _reference_of(state, input_word)
    r = backend.hilbert_dim(ref)
    rho = backend.state_object(state.coords, state.system).reshape(din, r, din, r)
    legs = backend._reorder(kernels, output_word, input_word, inverse=True).reshape(-1, dout, dout, din, din)
    out = np.einsum("tklij,irjs->tkrls", legs, rho).reshape(len(legs), dout * r, -1)
    return backend.state_coords(out, output_word * ref)


def dense_apply_first(backend, kernels, input_word, output_word, state):
    """``(k * id)(state)`` for each kernel, through the dense joint kernel."""
    ref = _reference_of(state, input_word)
    column = backend.state_as_channel(state).kernel
    out = []
    for k in kernels:
        joint = backend.par(Channel(input_word, output_word, k), backend.identity(ref))
        out.append(backend.channel_state(Channel(UNIT, joint.output_type, joint.kernel @ column)).coords)
    return np.array(out)


def dense_beside(backend, word, ch, kernel):
    """``(id(word) * ch)`` applied to one kernel, through the dense joint kernel."""
    return backend.par(backend.identity(word), ch).kernel @ kernel


def pure_extension(backend, word, seed):
    """A random mixed state on ``word`` and its canonical pure extension."""
    rho = FixtureSampler(backend, seed=seed).density_matrix(backend.hilbert_dim(word))
    result = purify_state(backend, StateVector(backend.state_coords(rho, word), word))
    return rho, result.purified, result.purifying_system


# -- apply_first and the audits agree with the references ------------------------


def test_apply_first_matches_the_einsum_and_the_dense_forms(case):
    backend, word = case
    s = FixtureSampler(backend, seed=1)
    kernels = s.channels(word, word, 4)
    state = s.state(word * A)
    got = backend.apply_first(kernels, word, word, state)
    assert got.shape == (4, backend.state_dim(word * A))
    np.testing.assert_allclose(got, einsum_apply_first(backend, kernels, word, word, state), rtol=0, atol=TOL)
    np.testing.assert_allclose(got, dense_apply_first(backend, kernels, word, word, state), rtol=0, atol=TOL)


def test_faithfulness_matches_the_einsum_form(case):
    backend, word = case
    report = verify_faithfulness(backend, word, trials=6, seed=2)
    kernels = FixtureSampler(backend, seed=2).channels(word, word, 12)
    probe = backend.faithful_probe(word)
    coords = einsum_apply_first(backend, kernels, word, word, probe)
    emat = backend.spanning_states(probe.system)
    gaps = np.abs((coords[0::2] - coords[1::2]) @ emat.T).max(axis=1)
    assert report.verdict == "Confirmed"
    assert abs(report.min_gap - gaps.min()) <= TOL


def test_choi_correspondence_matches_the_dense_images(case):
    backend, word = case
    corr = choi_correspondence(backend, word, A)
    kernels = np.array([backend.payload_channel("choi", m, word, A).kernel for m in corr._choi_basis[::5]])
    want = dense_apply_first(backend, kernels, word, A, corr.pure_state)
    np.testing.assert_allclose(corr.matrix[:, ::5].T, want, rtol=0, atol=TOL)
    ch = FixtureSampler(backend, seed=3).channel(word, A)
    image = corr.image_state(ch)
    assert image.system == A * corr.reference
    want = dense_apply_first(backend, ch.kernel[None], word, A, corr.pure_state)[0]
    np.testing.assert_allclose(image.coords, want, rtol=0, atol=TOL)


def test_dilation_marginal_matches_the_dense_discard(case):
    backend, word = case
    ch = FixtureSampler(backend, seed=4).channel(word, word)
    result = stinespring_dilate(backend, ch)
    discard = backend.par(backend.identity(word), backend.trace_channel(result.environment))
    want = float(np.max(np.abs(discard.kernel @ result.channel.kernel - ch.kernel)))
    assert abs(result.marginal_error - want) <= TOL


def test_uniqueness_replays_match_the_dense_forms(case):
    backend, word = case
    _, psi, wing = pure_extension(backend, word, seed=5)
    stir = FixtureSampler(backend, seed=6).unitary_channel(wing)
    first = backend.state_as_channel(psi).kernel
    psi2 = backend.channel_state(Channel(UNIT, psi.system, dense_beside(backend, word, stir, first)))
    report = purification_uniqueness(backend, psi, psi2, word)
    assert report.verdict == "Connected"
    conn = backend.conjugation_channel(report.matrix, wing)
    want = np.max(np.abs(dense_beside(backend, word, conn, first) - backend.state_as_channel(psi2).kernel))
    assert abs(report.replay_error - want) <= TOL

    s = FixtureSampler(backend, seed=7)  # a mixture of two unitaries: a two-level environment
    mixture = 0.3 * s.unitary_channel(word).kernel + 0.7 * s.unitary_channel(word).kernel
    p1 = stinespring_dilate(backend, Channel(word, word, mixture)).channel
    env = SystemType(p1.output_type.word[len(word):])
    stir = FixtureSampler(backend, seed=8).unitary_channel(env)
    p2 = Channel(word, p1.output_type, dense_beside(backend, word, stir, p1.kernel))
    report = dilation_uniqueness(backend, p1, p2, word)
    assert report.verdict == "Connected"
    conn = backend.conjugation_channel(report.matrix, env)
    want = np.max(np.abs(dense_beside(backend, word, conn, p1.kernel) - p2.kernel))
    assert abs(report.replay_error - want) <= TOL


def test_steering_matches_the_dense_form(case):
    backend, word = case
    rho, psi, wing = pure_extension(backend, word, seed=9)
    weights = np.array([0.2, 0.3, 0.5])
    branches = [StateVector(backend.state_coords(w * rho, word), word) for w in weights]
    result = steering_measurement(backend, branches, psi, word)
    column = backend.state_as_channel(psi).kernel
    for b, eobj, effect, error in zip(branches, result.effect_objects, result.effects, result.branch_errors):
        eff_ch = backend.effect_channel(eobj, wing)
        steered = dense_beside(backend, word, eff_ch, column)
        assert abs(error - np.max(np.abs(steered - backend.state_as_channel(b).kernel))) <= TOL
        np.testing.assert_array_equal(effect.coords, backend.channel_effect(eff_ch).coords)


def test_readout_matches_the_dense_form(case):
    backend, word = case
    branches = FixtureSampler(backend, seed=10).instrument(word, word, 3)
    result = physicalize_readout(backend, branches)
    for x, (ch, effect, error) in enumerate(zip(branches, result.effects, result.branch_errors)):
        eff_ch = backend.effect_channel(backend.diagonal(np.eye(3)[x]), result.pointer)
        readback = dense_beside(backend, word, eff_ch, result.channel.kernel)
        assert abs(error - np.max(np.abs(readback - ch.kernel))) <= TOL
        np.testing.assert_array_equal(effect.coords, backend.channel_effect(eff_ch).coords)


def test_local_tomography_ranks_the_einsum_products(case):
    backend, word = case
    preps = np.stack([backend.state_as_channel(StateVector(sa, word)).kernel
                      for sa in backend.spanning_states(word)])
    rows = [einsum_apply_first(backend, preps, UNIT, word, StateVector(sb, A))
            for sb in backend.spanning_states(A)]
    report = local_tomography_check(backend, word, A)
    assert report.product_span_rank == np.linalg.matrix_rank(np.concatenate(rows))


# -- no identity kernel ----------------------------------------------------------


@pytest.mark.parametrize("theory", ["quantum", "quantum-real", "classical"])
def test_the_audits_build_no_identity_kernel(theory, monkeypatch):
    backend = get_backend(theory, {"A": 2, "B": 3})

    def refuse(self, word):
        raise AssertionError(f"an identity kernel on {word} was built")

    monkeypatch.setattr(TheoryBackend, "kernel_identity", refuse)
    assert verify_faithfulness(backend, A, trials=4, seed=1).verdict == "Confirmed"
    local_tomography_check(backend, A, B)
    assert max(physicalize_readout(backend, FixtureSampler(backend, seed=2).instrument(A, B, 3)).branch_errors) <= TOL
    if not backend.purifies:
        point = StateVector(np.array([0.0, 0.0, 1.0, 0.0]), A * A)
        result = steering_measurement(backend, [StateVector(np.array([0.0, 0.4]), A),
                                                StateVector(np.array([0.0, 0.6]), A)], point, A)
        assert max(result.branch_errors) <= TOL
        assert purification_uniqueness(backend, point, point, A).verdict == "Connected"
        prep = Channel(UNIT, B, np.array([[0.0], [1.0], [0.0]]))
        assert stinespring_dilate(backend, prep).marginal_error <= TOL
        return
    rho, psi, _ = pure_extension(backend, A, seed=3)
    result = steering_measurement(backend, [StateVector(backend.state_coords(w * rho, A), A)
                                            for w in (0.25, 0.75)], psi, A)
    assert max(result.branch_errors) <= 1e-9
    assert purification_uniqueness(backend, psi, psi, A).verdict == "Connected"
    dilation = stinespring_dilate(backend, FixtureSampler(backend, seed=4).channel(A, B))
    assert dilation.marginal_error <= 1e-10
    assert dilation_uniqueness(backend, dilation.channel, dilation.channel, B).verdict == "Connected"
    corr = choi_correspondence(backend, A, B)
    assert corr.injective
    corr.image_state(FixtureSampler(backend, seed=5).channel(A, B))
