"""Backend contracts: dimensions, physicality verdicts, representations."""

import numpy as np
import pytest

from optlab import Channel, Payload, SystemType, get_backend
from optlab import linalg as la
from optlab.errors import NotPhysicalError, OptlabError
from optlab.sampling import Sampler

A = SystemType.of("A")
B = SystemType.of("B")


# -- dimension bookkeeping ---------------------------------------------------


@pytest.mark.parametrize(
    "theory,expected",
    [
        # carrier dim 2 and 3; states live in spaces of these dimensions
        ("quantum", {2: 4, 3: 9}),
        ("quantum-real", {2: 3, 3: 6}),
        ("classical", {2: 2, 3: 3}),
    ],
)
def test_state_space_dimensions(theory, expected):
    b = get_backend(theory, {"A": 2, "B": 3})
    assert b.state_dim(A) == expected[2]
    assert b.state_dim(B) == expected[3]


def test_joint_dimensions_multiply_carriers(backend):
    da = backend.hilbert_dim(A)
    db = backend.hilbert_dim(B)
    assert backend.hilbert_dim(A * B) == da * db


def test_quantum_real_joint_exceeds_local_span():
    b = get_backend("quantum-real", {"A": 2})
    # joint carrier 4 -> 10 symmetric dims, but local pairs only span 3*3
    assert b.state_dim(A * A) == 10
    assert b.state_dim(A) ** 2 == 9


def test_scratch_systems_are_addressable(backend):
    w = backend.scratch_system(5)
    assert str(w) == "@5"
    assert backend.hilbert_dim(w) == 5


# -- physicality certificates ------------------------------------------------


def test_identity_is_physical_and_deterministic(backend):
    ch = Channel(A, A, backend.kernel_identity(A))
    cert = backend.certify_channel(ch)
    assert cert.physical
    assert backend.deterministic_residual(ch) < 1e-12


def test_random_channels_certify(backend):
    s = Sampler(backend, seed=3)
    for _ in range(5):
        ch = s.channel(A, B)
        cert = backend.certify_channel(ch)
        assert cert.physical, cert.reason
        assert backend.deterministic_residual(ch) < 1e-10


def test_overweight_state_rejected(backend):
    if backend.name == "classical":
        payload = Payload("vec", [0.8, 0.8])
    elif backend.name == "quantum":
        payload = Payload("dens", [[1.2, 0.0], [0.0, 0.3]])
    else:
        payload = Payload("dens", [[1.2, 0.0], [0.0, 0.3]])
    with pytest.raises(NotPhysicalError):
        backend.compile_payload(payload, SystemType(()), A)


def test_negative_state_rejected(backend):
    if backend.name == "classical":
        payload = Payload("vec", [1.2, -0.2])
    else:
        payload = Payload("dens", [[1.2, 0.0], [0.0, -0.2]])
    with pytest.raises(NotPhysicalError):
        backend.compile_payload(payload, SystemType(()), A)


def test_certificate_carries_margin_and_reason(quantum):
    bad = Payload("dens", [[0.7, 0.5], [0.5, 0.1]])  # indefinite
    with pytest.raises(NotPhysicalError) as err:
        quantum.compile_payload(bad, SystemType(()), A)
    assert "eigenvalue" in str(err.value)


def test_real_backend_rejects_complex_payloads(real_quantum):
    payload = Payload("dens", [[0.5, 0.5j], [-0.5j, 0.5]])
    with pytest.raises(NotPhysicalError, match="complex"):
        real_quantum.compile_payload(payload, SystemType(()), A)


def test_real_backend_rejects_asymmetric_states(real_quantum):
    # Hermitian-with-imaginary-part states live outside the symmetric cone
    payload = Payload("dens", [[0.5, 0.1], [0.3, 0.5]])
    with pytest.raises(NotPhysicalError):
        real_quantum.compile_payload(payload, SystemType(()), A)


def test_classical_substochastic_rule(classical):
    ok = Payload("stoch", [[0.5, 0.0], [0.25, 1.0]])
    ch = classical.compile_payload(ok, A, A)
    assert classical.deterministic_residual(ch) > 1e-6  # leaks probability
    bad = Payload("stoch", [[0.8, 0.0], [0.8, 0.2]])  # column sums over 1
    with pytest.raises(NotPhysicalError):
        classical.compile_payload(bad, A, A)


# -- representation round trips ---------------------------------------------


def test_choi_round_trip_on_random_channels(quantum):
    s = Sampler(quantum, seed=11)
    for _ in range(5):
        ch = s.channel(A, B)
        j = quantum.channel_choi(ch)
        back = quantum.channel_from_choi(j, A, B)
        np.testing.assert_allclose(back.kernel, ch.kernel, atol=1e-12)


def test_choi_trace_condition_for_deterministic(quantum):
    s = Sampler(quantum, seed=5)
    ch = s.channel(A, A)
    j = quantum.channel_choi(ch)
    from optlab import linalg as la

    reduced = la.partial_trace(j, [2, 2], keep=[0])
    np.testing.assert_allclose(reduced, np.eye(2), atol=1e-10)


def test_kraus_action_matches_kernel(quantum):
    s = Sampler(quantum, seed=13)
    ch = s.channel(A, A)
    ks = quantum.channel_kraus(ch)
    rho = s.density_matrix(2)
    direct = sum(k @ rho @ k.conj().T for k in ks)
    pushed = Channel(
        SystemType(()), A,
        quantum.kernel_seq(quantum.state_channel(rho, A), ch),
    )
    out = quantum.state_object(quantum.channel_state(pushed).coords, A)
    np.testing.assert_allclose(out, direct, atol=1e-12)


def test_transfer_round_trip_where_supported(backend):
    s = Sampler(backend, seed=17)
    ch = s.channel(A, A)
    t = backend.transfer_of(ch)
    assert t.matrix.shape == (backend.state_dim(A), backend.state_dim(A))
    assert np.isrealobj(t.matrix)
    if backend.name == "quantum-real":
        with pytest.raises(OptlabError):
            backend.channel_from_transfer(t)
    else:
        back = backend.channel_from_transfer(t)
        np.testing.assert_allclose(back.kernel, ch.kernel, atol=1e-10)


def test_state_effect_pairing_is_probability(backend):
    s = Sampler(backend, seed=19)
    st = s.state(A)
    ef = s.effect(A)
    p = ef.pair(st)
    assert 0.0 <= p <= 1.0 + 1e-12


def test_spanning_families_span(backend):
    states = backend.spanning_states(A)
    effects = backend.spanning_effects(A)
    n = backend.state_dim(A)
    smat = np.stack([s.coords for s in states], axis=1)
    emat = np.stack([e.coords for e in effects], axis=0)
    assert np.linalg.matrix_rank(smat) == n
    assert np.linalg.matrix_rank(emat) == n


def test_uniform_state_is_interior(backend):
    u = backend.uniform_state(A)
    for e in backend.spanning_effects(A):
        assert e.pair(u) > 1e-6


def test_trace_effect_sums_probability(backend):
    s = Sampler(backend, seed=23)
    st = s.state(A)
    total = backend.trace_effect(A).pair(st)
    np.testing.assert_allclose(total, 1.0, atol=1e-10)


# -- primitives derived in the base class --------------------------------------


def closed_forms(backend, word, left, right):
    """Identity and swap kernels, discard row and uniform coordinates, each
    written out directly for the theory."""
    d = backend.hilbert_dim(word)
    s = la.swap_unitary(backend.hilbert_dim(left), backend.hilbert_dim(right))
    if backend.name == "classical":
        return np.eye(d), s, np.ones((1, d)), np.full(d, 1.0 / d)
    dtype = complex if backend.name == "quantum" else float
    return (np.eye(d * d, dtype=dtype), np.kron(s, s).astype(dtype),
            la.vec(np.eye(d, dtype=dtype)).reshape(1, -1),
            backend.state_coords(np.eye(d) / d, word))


@pytest.mark.parametrize("word", [A, A * B])
def test_derived_primitives_match_closed_forms(backend, word):
    ident, swap, discard, uniform = closed_forms(backend, word, A, B)
    got = (backend.kernel_identity(word), backend.kernel_swap(A, B),
           backend.trace_channel(word).kernel, backend.uniform_state(word).coords)
    for g, want in zip(got, (ident, swap, discard, uniform)):
        np.testing.assert_array_equal(g, want)
        assert g.dtype == want.dtype
    states, effects = backend.spanning_states(word), backend.spanning_effects(word)
    for st, e in zip(states, effects, strict=True):
        np.testing.assert_array_equal(e.coords, st.coords)
    coords = states[-1].coords
    obj = backend.state_object(coords, word)
    np.testing.assert_array_equal(backend.effect_object(coords, word), obj)
    np.testing.assert_array_equal(backend.effect_coords(obj, word), backend.state_coords(obj, word))


def test_trace_effect_is_computed_once_per_word_and_read_only(monkeypatch):
    backend = get_backend("quantum", {"A": 2, "B": 3})
    built = []
    trace_channel = backend.trace_channel
    monkeypatch.setattr(backend, "trace_channel", lambda w: built.append(w) or trace_channel(w))
    first = backend.trace_effect(A * B)
    again = backend.trace_effect(A * B)
    backend.trace_effect(A)
    assert built == [A * B, A]
    np.testing.assert_array_equal(first.coords, again.coords)
    with pytest.raises(ValueError):
        again.coords[0] = 0.0


@pytest.mark.parametrize("member", ["deterministic_residual", "weight_terms", "legs_per_wire"])
def test_a_theory_lacking_a_member_cannot_be_instantiated(member):
    from optlab.backends.base import TheoryBackend
    from optlab.backends.classical import ClassicalBackend

    namespace = {k: v for k, v in vars(ClassicalBackend).items()
                 if k != member and not k.startswith(("__", "_abc"))}
    partial = type("Partial", (TheoryBackend,), namespace)
    with pytest.raises(TypeError, match=member):
        partial({"A": 2})
    type("Whole", (TheoryBackend,), {**namespace, member: vars(ClassicalBackend)[member]})({"A": 2})
