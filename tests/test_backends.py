"""Backend contracts: dimensions, physicality verdicts, representations."""

import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from optlab import Channel, Payload, SystemType, get_backend
from optlab import linalg as la
from optlab.audit import stinespring_dilate
from optlab.backends import base
from optlab.backends.base import EffectVector, TheoryBackend
from optlab.diagram import UNIT
from optlab.errors import NotPhysicalError, OptlabError
from fixture_sampler import FixtureSampler
from test_linalg import swap_unitary, symmetric_basis

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
    s = FixtureSampler(backend, seed=3)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_payloads_are_refused(backend, bad):
    if backend.name == "classical":
        kind, state, effect = "vec", [bad, 0.0], [0.0, -bad]
    else:  # a matrix, so no product of an infinite entry warns before the check
        kind, state, effect = "dens", [[bad, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -bad]]
    for payload, win, wout in [(Payload(kind, state), UNIT, A), (Payload(kind, effect), A, UNIT)]:
        with pytest.raises(OptlabError, match=f"^{kind} payload has non-finite entries$"):
            backend.compile_payload(payload, win, wout)


def test_payloads_whose_kernel_overflows_are_refused(quantum):
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(OptlabError, match="^kraus payload has non-finite entries$"):
            quantum.compile_payload(Payload("kraus", [[[1e200, 0.0], [0.0, 1.0]]]), A, A)


def test_bulk_compile_matches_one_payload_at_a_time(backend, monkeypatch):
    """Each item of ``compile_payloads`` gets the kernel, or the error, that
    ``compile_payload`` gives it alone, whatever else shares its stack."""
    s, rng = FixtureSampler(backend, seed=11), np.random.default_rng(11)
    kind = "stoch" if backend.name == "classical" else "choi"
    items = []
    for win, wout in [(UNIT, A), (A, UNIT), (A, A), (A, B), (B, A), (A * B, A), (UNIT, B)]:
        for _ in range(3):
            obj = np.array(backend.channel_choi(s.channel(win, wout)))
            skew = np.zeros_like(obj)
            skew[0, -1], skew[-1, 0] = 1e-3, -1e-3
            for bad in (0.0, 0.3 * obj, -0.3 * np.eye(*obj.shape), skew,
                        rng.normal(scale=1e-3, size=obj.shape)):
                items.append((Payload(kind, obj + bad), win, wout))
    items.append((Payload(kind, [[np.inf, 0.0], [0.0, 0.0]]), A, A))
    items.append((Payload(kind, [[1.0]]), A, A))
    items += _object_and_kraus_items(backend, rng)
    rng.shuffle(items)  # faulty items interleaved with the good ones of their group
    stacked = {}

    def recorded(kind, data, *args):
        result = type(backend)._payload_kernels(backend, kind, data, *args)
        stacked[kind] = max(stacked.get(kind, 0), len(data))
        return result
    monkeypatch.setattr(backend, "_payload_kernels", recorded)
    bulk = backend.compile_payloads(items)
    # the good items of a group are converted together, beside the ones that do not fit
    assert min(stacked.values()) > 1 and len(stacked) == (2 if backend.name == "classical" else 4)
    monkeypatch.undo()
    verdicts = set()
    for (payload, win, wout), got in zip(items, bulk):
        try:
            want = backend.compile_payload(payload, win, wout)
        except OptlabError as e:
            assert type(got) is type(e) and str(got) == str(e)
            if isinstance(e, NotPhysicalError):
                assert got.certificate.diagnostics == e.certificate.diagnostics
                verdicts.add(e.certificate.reason)
            else:
                verdicts.add(type(e).__name__)
        else:
            assert (got.input_type, got.output_type) == (win, wout)
            assert got.kernel.dtype == want.kernel.dtype
            assert np.array_equal(got.kernel, want.kernel)
            verdicts.add("physical")
    assert {"physical", "OptlabError"} < verdicts and len(verdicts) >= 4, verdicts
    if backend.name == "quantum-real":
        assert "complex entries in a real-theory payload" in verdicts


def _object_and_kraus_items(backend, rng):
    """``vec`` and ``dens`` states and effects and ``kraus`` boxes of one and
    of several terms, each good one beside a wrong-shape, a non-finite, an
    unphysical and (on the real theory) a complex variant of itself, with
    the data as nested lists, the form a theory file gives."""
    real = backend.name != "quantum"

    def draw(*shape):
        g = rng.normal(size=shape)
        return g if real else g + 1j * rng.normal(size=shape)

    def variants(good, unphysical):
        bad_entry = good.copy()
        bad_entry.flat[0] = np.nan
        out = [good, unphysical, bad_entry, np.zeros(good.shape[:-1] + (good.shape[-1] + 1,))]
        if backend.name == "quantum-real":
            leaky = good.astype(complex)
            leaky.flat[-1] += 0.25j
            out.append(leaky)
        return [v.tolist() for v in out]

    items = []
    for win, wout in [(UNIT, A), (A, UNIT), (UNIT, B), (B, UNIT)]:
        d = backend.hilbert_dim(wout if win.is_unit else win)
        for _ in range(2):
            if backend.name == "classical":
                p = rng.random(d)
                p = p / p.sum() if win.is_unit else p
                items += [(Payload("vec", v), win, wout) for v in variants(p, p - 0.6)]
                continue
            ket = draw(d)
            ket /= np.linalg.norm(ket)
            items += [(Payload("vec", v), win, wout) for v in variants(ket, 1.2 * ket)]
            g = draw(d, d)
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            items += [(Payload("dens", v), win, wout) for v in variants(rho, rho - 0.7 * np.eye(d))]
    if backend.name == "classical":
        return items
    for win, wout in [(A, A), (A, B), (B, A)]:
        din, dout = backend.hilbert_dim(win), backend.hilbert_dim(wout)
        for terms in (1, 1, 3, 3):
            # the rows of an isometry, a contraction, split into Kraus terms
            rows = np.linalg.qr(draw(max(dout * terms, din), din))[0][:dout * terms]
            kraus = rows.reshape(terms, dout, din)
            items += [(Payload("kraus", v), win, wout) for v in variants(kraus, 1.1 * kraus)]
    return items


def test_huge_choi_matrices_are_checked_at_their_own_scale(backend):
    """Past the scaling threshold a Choi matrix is scaled by a power of two,
    so the eigen solves stay finite and margins come back exact."""
    kind = "stoch" if backend.name == "classical" else "choi"
    diag = np.diag([1.0, -0.5, 1.0, 0.5]) if kind == "choi" else np.array([[0.5, -0.25], [0.5, 0.5]])
    for scale in (2.0 ** 600, 2.0 ** 1020):
        with pytest.raises(NotPhysicalError) as e:
            backend.compile_payload(Payload(kind, scale * diag), A, A)
        cert = e.value.certificate
        assert cert.reason in ("negative eigenvalue", "negative entry")
        assert cert.margin == (0.5 if kind == "choi" else 0.25) * scale


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
    s = FixtureSampler(quantum, seed=11)
    for _ in range(5):
        ch = s.channel(A, B)
        j = quantum.channel_choi(ch)
        back = quantum.payload_channel("choi", j, A, B)
        np.testing.assert_allclose(back.kernel, ch.kernel, atol=1e-12)


def test_choi_trace_condition_for_deterministic(quantum):
    s = FixtureSampler(quantum, seed=5)
    ch = s.channel(A, A)
    j = quantum.channel_choi(ch)
    from optlab import linalg as la

    reduced = la.partial_trace(j, [2, 2], keep=[0])
    np.testing.assert_allclose(reduced, np.eye(2), atol=1e-10)


def test_kraus_action_matches_kernel(quantum):
    s = FixtureSampler(quantum, seed=13)
    ch = s.channel(A, A)
    ks = stinespring_dilate(quantum, ch).kraus
    rho = s.density_matrix(2)
    direct = sum(k @ rho @ k.conj().T for k in ks)
    pushed = Channel(
        SystemType(()), A,
        ch.kernel @ quantum.state_channel(rho, A).kernel,
    )
    out = quantum.state_object(quantum.channel_state(pushed).coords, A)
    np.testing.assert_allclose(out, direct, atol=1e-12)


def test_state_effect_pairing_is_probability(backend):
    s = FixtureSampler(backend, seed=19)
    st = s.state(A)
    ef = EffectVector(backend.effect_coords(s.povm(A, 3)[0], A), A)
    p = ef.pair(st)
    assert 0.0 <= p <= 1.0 + 1e-12


def test_spanning_families_span(backend):
    fam = backend.spanning_states(A)
    assert fam.shape[1] == backend.state_dim(A)
    assert np.linalg.matrix_rank(fam) == backend.state_dim(A)


def test_uniform_state_is_interior(backend):
    u = backend.uniform_state(A)
    assert (backend.spanning_states(A) @ u.coords > 1e-6).all()


def _projector_family(d, with_phases):
    s = 1.0 / np.sqrt(2.0)
    kets = [((j,), (1.0,)) for j in range(d)]
    for j in range(d):
        for k in range(j + 1, d):
            kets.append(((j, k), (s, s)))
            if with_phases:
                kets.append(((j, k), (s, 1j * s)))
    out = []
    for support, amps in kets:
        v = np.zeros(d, dtype=complex)
        for i, a in zip(support, amps):
            v[i] = a
        out.append(np.outer(v, v.conj()))
    return out


def spanning_members(theory, backend, word):
    """The members of a matrix theory's spanning family, each built as a
    matrix on its own: on the complex theory, each product with an
    ``np.kron`` chain over the word's systems."""
    if theory == "quantum-real":
        return [m.real for m in _projector_family(backend.hilbert_dim(word), False)]
    mats = []
    for combo in itertools.product(*(_projector_family(d, True) for d in backend.word_dims(word))):
        m = np.eye(1, dtype=complex)
        for factor in combo:
            m = np.kron(m, factor)
        mats.append(m)
    return mats


def reference_spanning_states(theory, backend, word):
    """The per-member construction that ``spanning_states`` replaced, kept
    as its reference: every member's coordinates taken with one
    ``state_coords`` call."""
    if theory == "classical":
        return np.stack(list(np.eye(backend.hilbert_dim(word))))
    return np.stack([backend.state_coords(m, word) for m in spanning_members(theory, backend, word)])


@pytest.mark.parametrize("theory", ["quantum", "quantum-real", "classical"])
@pytest.mark.parametrize("word", [A, B, A * B, A * SystemType.of("@2"), B * SystemType.of("@3")], ids=str)
def test_spanning_states_match_the_per_member_construction(theory, word):
    """Same members in the same order.  Bit for bit, except that the complex
    theory's products of per-system coordinates round differently from the
    coordinates of a product."""
    backend = get_backend(theory, {"A": 2, "B": 3})
    got, want = backend.spanning_states(word), reference_spanning_states(theory, backend, word)
    assert isinstance(got, np.ndarray)
    assert got.shape == want.shape == (len(want), backend.state_dim(word))
    if theory == "quantum" and len(word) > 1:
        assert np.abs(got - want).max() <= 2.2e-16
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("theory, product_rank, joint_dim", [
    ("quantum", 16, 16), ("quantum-real", 9, 10), ("classical", 4, 4)])
def test_local_families_span_a_pair_only_where_tomography_is_local(theory, product_rank, joint_dim):
    """Products of one system's spanning family span the pair on the complex
    and classical theories, but not on the real one (9 < 10).  The trivial
    system's family is the one coordinate 1 everywhere."""
    backend = get_backend(theory, {"A": 2})
    fam = backend.spanning_states(A)
    assert np.linalg.matrix_rank(np.kron(fam, fam)) == product_rank
    assert backend.state_dim(A * A) == joint_dim
    np.testing.assert_array_equal(backend.spanning_states(UNIT), [[1.0]])


@pytest.mark.parametrize("word", [A, B, A * B], ids=str)
def test_a_stack_of_objects_gives_the_stack_of_their_channels(backend, word):
    """``state_channel`` and ``effect_channel`` take a stack of objects, and
    each kernel of the stack is, bit for bit, the kernel its object gets alone."""
    s = FixtureSampler(backend, seed=67)
    objs = np.array([backend.state_object(s.state(word).coords, word) for _ in range(4)])
    for channel_of in (backend.state_channel, backend.effect_channel):
        stacked = channel_of(objs, word)
        assert (stacked.input_type, stacked.output_type) == (channel_of(objs[0], word).input_type,
                                                             channel_of(objs[0], word).output_type)
        np.testing.assert_array_equal(stacked.kernel, np.array([channel_of(o, word).kernel for o in objs]))


@pytest.mark.parametrize("word", [A, B, A * B], ids=str)
def test_each_derived_channel_is_the_compiled_payload_of_its_data(backend, word):
    """``state_channel``, ``effect_channel``, ``conjugation_channel`` and the
    identity and discard built on them give, bit for bit, the kernel that
    ``compile_payloads`` gives their data written as a payload of the
    theory's ``object_kind`` or ``map_kind``."""
    s, d = FixtureSampler(backend, seed=71), backend.hilbert_dim(word)
    obj = backend.state_object(s.state(word).coords, word)
    u = backend.random_unitary(np.random.default_rng(71), d)
    discard = backend.diagonal(np.ones(d))

    def as_map(m):  # one matrix as the payload of its map
        return [m.tolist()] if backend.map_kind == "kraus" else m.tolist()

    derived = [
        (backend.state_channel(obj, word), Payload(backend.object_kind, obj.tolist()), UNIT, word),
        (backend.effect_channel(obj, word), Payload(backend.object_kind, obj.tolist()), word, UNIT),
        (backend.trace_channel(word), Payload(backend.object_kind, discard.tolist()), word, UNIT),
        (backend.conjugation_channel(u, word), Payload(backend.map_kind, as_map(u)), word, word),
        (backend.identity(word), Payload(backend.map_kind, as_map(np.eye(d))), word, word),
    ]
    compiled = backend.compile_payloads([item for _, *item in derived])
    for (got, _, win, wout), want in zip(derived, compiled):
        assert (got.input_type, got.output_type) == (want.input_type, want.output_type) == (win, wout)
        np.testing.assert_array_equal(got.kernel, want.kernel, strict=True)


def test_kraus_data_as_an_array_reads_as_its_nested_lists(quantum):
    """A Kraus payload's data may be an array of its matrices, and a stack of
    such payloads an array with one axis more; one matrix alone is one term."""
    ks = np.array([np.diag([1.0, 0.6]), np.diag([0.0, 0.8])])
    want = quantum.compile_payload(Payload("kraus", ks.tolist()), A, A).kernel
    np.testing.assert_array_equal(quantum.compile_payload(Payload("kraus", ks), A, A).kernel, want)
    np.testing.assert_array_equal(quantum.payload_channel("kraus", ks, A, A).kernel, want)
    np.testing.assert_array_equal(quantum.payload_channel("kraus", np.array([ks, ks]), A, A).kernel,
                                  np.array([want, want]))
    np.testing.assert_array_equal(quantum.payload_channel("kraus", np.eye(2), A, A).kernel,
                                  quantum.kernel_identity(A))


def test_a_wrong_size_object_is_refused_not_read_as_a_stack(backend):
    """An array one object too long along its first axis (on the classical
    theory, a 4-vector on a 2-point system) raises the payload's shape
    message, as an array or as nested lists; it never becomes two objects."""
    obj = backend.state_object(backend.uniform_state(A).coords, A)
    u = np.eye(2)
    for channel_of, good in ((backend.state_channel, obj), (backend.effect_channel, obj),
                             (backend.conjugation_channel, u)):
        wrong = np.concatenate([good, good])
        message = re.escape(f"has shape {wrong.shape}, expected {good.shape}")
        for data in (wrong, wrong.tolist()):
            with pytest.raises(OptlabError, match=message):
                channel_of(data, A)


@pytest.mark.parametrize("theory", ["quantum-real", "classical"])
def test_the_derived_channels_refuse_complex_entries(theory):
    """On the real theories the payload path refuses complex entries, for
    one object and for a stack whose second object alone is complex: the
    real quantum theory with a ``NotPhysicalError`` of role ``payload``, the
    classical theory with the payload's ``OptlabError``.  An imaginary part
    within rounding is dropped."""
    backend = get_backend(theory, {"A": 2, "B": 3})
    obj = backend.state_object(backend.uniform_state(A).coords, A)
    complex_obj = obj + 1e-3j * np.ones_like(obj)
    cases = [(backend.conjugation_channel, np.eye(2) + 1e-3j)]
    for channel_of in (backend.state_channel, backend.effect_channel):
        cases += [(channel_of, complex_obj), (channel_of, np.array([obj, complex_obj]))]
    for channel_of, data in cases:
        with pytest.raises(OptlabError) as raised:
            channel_of(data, A)
        if theory == "quantum-real":
            assert type(raised.value) is NotPhysicalError
            cert = raised.value.certificate
            assert (cert.role, cert.witness) == ("payload", {"max_imaginary_part": 1e-3})
        else:
            assert type(raised.value) is OptlabError and "has complex entries" in str(raised.value)
        rounded = channel_of(data.real + 1e-15j, A)
        assert rounded.kernel.dtype == float
        np.testing.assert_array_equal(rounded.kernel, channel_of(data.real, A).kernel)


def test_trace_effect_sums_probability(backend):
    s = FixtureSampler(backend, seed=23)
    st = s.state(A)
    total = backend.trace_effect(A).pair(st)
    np.testing.assert_allclose(total, 1.0, atol=1e-10)


# -- primitives derived in the base class --------------------------------------


def closed_forms(backend, word, left, right):
    """Identity and swap kernels, discard row and uniform coordinates, each
    written out directly for the theory.  Kernels are in wire-major order,
    so the swap moves each wire's whole block of legs, and the discard of a
    word is the Kronecker product of each wire's discard."""
    d = backend.hilbert_dim(word)
    s = swap_unitary(backend.hilbert_dim(left), backend.hilbert_dim(right))
    if backend.name == "classical":
        return np.eye(d), s, np.ones((1, d)), np.full(d, 1.0 / d)
    dtype = complex if backend.name == "quantum" else float
    discard = np.ones((1, 1), dtype=dtype)
    for dim in backend.word_dims(word):
        discard = np.kron(discard, np.eye(dim, dtype=dtype).reshape(-1))
    swap = swap_unitary(backend.hilbert_dim(left) ** 2, backend.hilbert_dim(right) ** 2)
    return (np.eye(d * d, dtype=dtype), swap.astype(dtype), discard,
            backend.state_coords(np.eye(d) / d, word))


@pytest.mark.parametrize("word", [A, A * B])
def test_derived_primitives_match_closed_forms(backend, word):
    """Each derived kernel equals its closed form entry for entry, in shape
    and in scalar type; the swap moves ``word``, one wire or a run of two,
    past ``B``."""
    ident, swap, discard, uniform = closed_forms(backend, word, word, B)
    got = (backend.kernel_identity(word), backend.kernel_swap(word, B),
           backend.trace_channel(word).kernel, backend.uniform_state(word).coords)
    for g, want in zip(got, (ident, swap, discard, uniform)):
        np.testing.assert_array_equal(g, want, strict=True)
    coords = backend.spanning_states(word)[-1]
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


ABSTRACT_MEMBERS = sorted(TheoryBackend.__abstractmethods__)


def test_the_checklist_names_every_abstract_member():
    """``backends/base.py``'s docstring checklist puts exactly the abstract
    members in double backquotes, and README states their number."""
    doc = base.__doc__
    checklist = doc[doc.index("Adding a theory means"):doc.index("A theory also sets")]
    named = set(re.findall(r"``(\w+)``", checklist))
    assert named == TheoryBackend.__abstractmethods__
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.search(r"the\s+(\d+)\s+abstract\s+members", readme).group(1) == str(len(named))


@pytest.mark.parametrize("member", ABSTRACT_MEMBERS)
def test_a_theory_lacking_a_member_cannot_be_instantiated(member):
    from optlab.backends.classical import ClassicalBackend

    namespace = {k: v for k, v in vars(ClassicalBackend).items()
                 if k != member and not k.startswith(("__", "_abc"))}
    partial = type("Partial", (TheoryBackend,), namespace)
    with pytest.raises(TypeError, match=member):
        partial({"A": 2})
    type("Whole", (TheoryBackend,), {**namespace, member: vars(ClassicalBackend)[member]})({"A": 2})


# -- wire-major kernels against dense Liouville-order oracles ------------------

WORDS = [A * B, B * A, A * B * A]


def liouville_positions(dims):
    """For each wire-major index of a word of the given dimensions, its
    position in Liouville order.  Wire-major runs over each wire's (row,
    column) pair in turn; Liouville order puts every wire's row first, then
    every wire's column."""
    out = []
    for pairs in itertools.product(*(range(d * d) for d in dims)):
        rows = [p // d for p, d in zip(pairs, dims)]
        cols = [p % d for p, d in zip(pairs, dims)]
        out.append(np.ravel_multi_index(rows + cols, list(dims) * 2))
    return np.array(out, dtype=int)


def kron_basis(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise Kronecker of two basis stacks, left index slowest."""
    n1, d1, _ = left.shape
    n2, d2, _ = right.shape
    prod = np.einsum("aij,bkl->abikjl", left, right)
    return prod.reshape(n1 * n2, d1 * d2, d1 * d2)


def dense_basis(backend, word):
    """The word's flat operator basis, one column per coordinate, rows in
    wire-major order: the Kronecker product of each system's Hermitian basis
    on the complex theory, the symmetric basis of the joint carrier on the
    real one."""
    dims = backend.word_dims(word)
    if backend.name == "quantum":
        b = np.ones((1, 1, 1), dtype=complex)
        for d in dims:
            b = kron_basis(b, la.hermitian_basis(d))
    else:
        b = symmetric_basis(backend.hilbert_dim(word))
    return b.reshape(len(b), -1).T[liouville_positions(dims)]


@pytest.mark.parametrize("theory", ["quantum", "quantum-real"])
@pytest.mark.parametrize("win, wout", [(w, w) for w in WORDS] + [(A * B, B * A), (UNIT, A * B * A)],
                         ids=str)
def test_transfer_of_matches_the_dense_product(theory, win, wout):
    backend = get_backend(theory, {"A": 2, "B": 3})
    kernel = FixtureSampler(backend, seed=41).channel(win, wout).kernel
    want = np.real(dense_basis(backend, wout).conj().T @ kernel @ dense_basis(backend, win))
    got = backend.transfer_of(Channel(win, wout, kernel)).matrix
    assert np.isrealobj(got) and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def random_objects(backend, word, count, seed):
    """Self-adjoint matrices on the word's carrier, over the theory's scalars."""
    d = backend.hilbert_dim(word)
    g = backend.gaussian(np.random.default_rng(seed), count, d, d)
    return g + g.conj().swapaxes(-1, -2)


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("theory", ["quantum", "quantum-real"])
@pytest.mark.parametrize("word", WORDS, ids=str)
def test_the_coordinate_map_matches_the_dense_basis(theory, word):
    """``state_coords`` is ``Re(W^H vec(x))`` and ``state_object`` is ``W c``
    with the dense basis ``W`` of the whole word, vectors in wire-major
    order; a stack of objects gets, bit for bit, the coordinates each gets
    alone."""
    backend = get_backend(theory, {"A": 2, "B": 3})
    w, at, d = dense_basis(backend, word), liouville_positions(backend.word_dims(word)), backend.hilbert_dim(word)
    objs = random_objects(backend, word, 5, seed=59)
    coords = backend.state_coords(objs, word)
    assert_close(coords, np.real(objs.reshape(5, -1)[:, at] @ w.conj()))
    assert_close(backend.state_object(coords, word), objs)
    flat = np.empty((5, d * d), w.dtype)
    flat[:, at] = coords @ w.T
    assert_close(backend.state_object(coords, word), backend.project_scalars(flat.reshape(5, d, d)))
    members = np.array(spanning_members(theory, backend, word))
    assert_close(backend.spanning_states(word), np.real(members.reshape(len(members), -1)[:, at] @ w.conj()))
    alone = np.array([backend.state_coords(x, word) for x in objs])
    np.testing.assert_array_equal(coords, alone, strict=True)


@pytest.mark.parametrize("theory", ["quantum", "quantum-real"])
@pytest.mark.parametrize("word", WORDS, ids=str)
def test_choi_round_trip_is_exact_on_several_wires(theory, word):
    backend = get_backend(theory, {"A": 2, "B": 3})
    s = FixtureSampler(backend, seed=43)
    for win, wout in [(word, word), (A, word), (word, B)]:
        ch = s.channel(win, wout)
        back = backend.payload_channel("choi", backend.channel_choi(ch), win, wout)
        assert back.kernel.dtype == ch.kernel.dtype
        np.testing.assert_array_equal(back.kernel, ch.kernel)


@pytest.mark.parametrize("theory", ["quantum", "quantum-real"])
@pytest.mark.parametrize("word", WORDS, ids=str)
def test_kernel_par_is_the_kronecker_product(theory, word):
    backend = get_backend(theory, {"A": 2, "B": 3})
    s = FixtureSampler(backend, seed=47)
    first, rest = SystemType.of(word.word[0]), SystemType(word.word[1:])
    left, right = s.channel(first, first), s.channel(rest, B)
    np.testing.assert_array_equal(backend.kernel_par(left, right), np.kron(left.kernel, right.kernel))


@pytest.mark.parametrize("theory", ["quantum", "quantum-real"])
@pytest.mark.parametrize("word", WORDS, ids=str)
def test_apply_par_is_the_product_with_the_dense_layer(theory, word):
    backend = get_backend(theory, {"A": 2, "B": 3})
    s, rng = FixtureSampler(backend, seed=53), np.random.default_rng(53)
    head, rest = SystemType(word.word[:-1]), SystemType.of(word.word[-1])
    leaves = [s.channel(head, rest * head), s.channel(rest, rest)]
    dense = np.kron(leaves[0].kernel, leaves[1].kernel)
    stack = rng.normal(size=(3, dense.shape[1])).astype(dense.dtype)
    got = backend.apply_par(leaves, stack)
    np.testing.assert_allclose(got, stack @ dense.T, rtol=0, atol=1e-12)
