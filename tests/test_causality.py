"""One deterministic effect per system: sums of observation branches,
marginal consistency, and completion of tests into deterministic readouts."""

import numpy as np
import pytest

from optlab import Channel, SystemType
from optlab.audit import (
    check_causality,
    marginal,
    physicalize_readout,
)
from optlab.diagram import OutcomeSpace, PrimitiveBox, Test, UNIT
from optlab.errors import CausalityViolationError, IncompleteTestError
from fixture_sampler import FixtureSampler

A = SystemType.of("A")
B = SystemType.of("B")


def test_observation_effects_sum_to_trace(backend):
    s = FixtureSampler(backend, seed=1)
    report = check_causality(
        backend, [s.observation_channels(A, 3) for _ in range(20)], tol=1e-12
    )
    assert report.tests_checked == 20
    assert report.max_residual < 1e-12


def test_joint_system_observations(backend):
    s = FixtureSampler(backend, seed=3)
    report = check_causality(
        backend, [s.observation_channels(A * B, 4)], tol=1e-12
    )
    assert report.max_residual < 1e-12


def test_causality_violation_is_witnessed(backend):
    s = FixtureSampler(backend, seed=5)
    chans = s.observation_channels(A, 2)
    broken = chans + [chans[0]]  # over-counts one outcome
    with pytest.raises(CausalityViolationError) as err:
        check_causality(backend, [broken])
    assert err.value.residual > 0.1


def test_deterministic_channels_pass(backend):
    s = FixtureSampler(backend, seed=7)
    assert backend.deterministic_residual(s.channel(A, B)) < 1e-10


def test_substochastic_channel_fails_determinism(backend):
    s = FixtureSampler(backend, seed=9)
    ch = s.channel(A, A)
    lossy = Channel(A, A, 0.5 * ch.kernel)
    assert backend.deterministic_residual(lossy) > 0.1


def test_marginal_of_product_is_factor(backend):
    s = FixtureSampler(backend, seed=11)
    sa, sb = s.state(A), s.state(B)
    ka = backend.state_channel(backend.state_object(sa.coords, A), A)
    kb = backend.state_channel(backend.state_object(sb.coords, B), B)
    joint = Channel(UNIT, A * B, backend.kernel_par(ka, kb))
    got = marginal(backend, backend.channel_state(joint), keep=0)
    np.testing.assert_allclose(got.coords, sa.coords, atol=1e-12)
    got_b = marginal(backend, backend.channel_state(joint), keep=1)
    np.testing.assert_allclose(got_b.coords, sb.coords, atol=1e-12)


def test_marginal_is_discard_of_the_rest(backend):
    """Tracing late or early agrees: the discard effect is unique."""
    s = FixtureSampler(backend, seed=13)
    st = s.state(A * B)
    direct = marginal(backend, st, keep=0)
    obj = backend.state_object(st.coords, A * B)
    joint = backend.state_channel(obj, A * B)
    ident = Channel(A, A, backend.kernel_identity(A))
    discard = backend.kernel_par(ident, backend.trace_channel(B))
    reduced = Channel(UNIT, A, discard @ joint.kernel)
    np.testing.assert_allclose(direct.coords,
                               backend.channel_state(reduced).coords,
                               atol=1e-12)


# -- turning a test into a deterministic readout -----------------------------


def obs_test(backend, sampler, word, k, prefix):
    chans = sampler.observation_channels(word, k)
    bindings = {}
    boxes = []
    for i, c in enumerate(chans):
        name = f"{prefix}{i}"
        bindings[name] = c
        boxes.append(PrimitiveBox(name, word, UNIT))
    labels = OutcomeSpace(tuple(str(i) for i in range(k)))
    return Test(labels, tuple(boxes)), bindings


def test_readout_pointer_matches_outcome_count(backend):
    s = FixtureSampler(backend, seed=15)
    t, bindings = obs_test(backend, s, A, 2, "e")
    result = physicalize_readout(backend, t, bindings)
    assert backend.hilbert_dim(result.pointer) == 2
    assert max(result.branch_errors) < 1e-10


def test_readout_three_outcomes_needs_trit_pointer(backend):
    s = FixtureSampler(backend, seed=17)
    t, bindings = obs_test(backend, s, A, 3, "e")
    result = physicalize_readout(backend, t, bindings)
    assert backend.hilbert_dim(result.pointer) == 3


def test_readout_of_singleton_is_the_channel_itself(backend):
    s = FixtureSampler(backend, seed=19)
    ch = s.channel(A, B)
    t = Test(OutcomeSpace(("",)), (PrimitiveBox("m", A, B),))
    result = physicalize_readout(backend, t, {"m": ch})
    assert backend.hilbert_dim(result.pointer) == 1
    np.testing.assert_allclose(result.channel.kernel[:ch.kernel.shape[0]],
                               ch.kernel, atol=1e-10)


def test_readout_requires_complete_test(backend):
    s = FixtureSampler(backend, seed=21)
    chans = s.observation_channels(A, 2)[:1]  # drop an outcome
    t = Test(OutcomeSpace(("0",)), (PrimitiveBox("e0", A, UNIT),))
    with pytest.raises(IncompleteTestError):
        physicalize_readout(backend, t, {"e0": chans[0]})


def test_readout_replay_on_instruments(backend):
    s = FixtureSampler(backend, seed=23)
    chans = s.instrument(A, A, 3)
    bindings = {f"m{i}": c for i, c in enumerate(chans)}
    t = Test(OutcomeSpace(("0", "1", "2")),
             tuple(PrimitiveBox(f"m{i}", A, A) for i in range(3)))
    result = physicalize_readout(backend, t, bindings)
    assert max(result.branch_errors) < 1e-10
    assert result.certificate.physical
