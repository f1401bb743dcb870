"""Certification decides the least Choi eigenvalue by ``eigvalsh``, and by
``eigh`` inside a guard band around ``-eigenvalue_floor``: the verdicts and the
failing certificates are those of ``eigh`` for every kernel."""

import os
from pathlib import Path

import numpy as np
import pytest

from optlab import dsl, get_backend
from optlab import linalg as la

FLOOR = 1e-9
ULP = np.spacing(FLOOR)


@pytest.fixture(params=["quantum", "quantum-real"])
def backend(request):
    return get_backend(request.param, {"A": 2})


def choi(u, low):
    """A 4 x 4 Choi matrix with eigenvalues low, 0.3, 0.4, 0.5 and eigenvectors u;
    its input marginal is well inside the trace condition."""
    return (u * np.array([low, 0.3, 0.4, 0.5])) @ u.conj().T


def stack(real: bool):
    """Diagonal Choi matrices, whose eigenvalues both solvers give exactly, at
    -floor to within four ulps, at 0 and far on either side; then rotated ones
    whose least eigenvalue lies within 1e-16 of -floor, where the two solvers
    often round to opposite sides of it."""
    rng = np.random.default_rng(27)
    mats = [choi(np.eye(4), -FLOOR + k * ULP) for k in range(-4, 5)]
    mats += [choi(np.eye(4), low) for low in (0.0, -0.0, 1e-3, -1e-3, 0.2, -0.2)]
    for k in range(40):
        g = rng.normal(size=(4, 4)) + (0 if real else 1j) * rng.normal(size=(4, 4))
        mats.append(choi(np.linalg.qr(g)[0], -FLOOR + (k % 9 - 4) * 1e-17))
    return np.array(mats, dtype=float if real else complex)


def by_eigh(j):
    """Each matrix's least eigenvalue as check_kernels symmetrizes it, by eigh."""
    sym = (j + j.conj().swapaxes(-1, -2)) / 2.0
    return sym, np.linalg.eigh(sym)[0][:, 0]


def count_eigh(monkeypatch):
    """Counts the matrices np.linalg.eigh is given."""
    seen = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        seen.append(1 if np.ndim(a) == 2 else len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return seen


def test_verdicts_and_certificates_are_those_of_eigh(backend, monkeypatch):
    real = backend.name == "quantum-real"
    j = stack(real)
    sym, low = by_eigh(j)
    vals = np.linalg.eigvalsh(sym)[:, 0]
    assert np.sum((vals < -FLOOR) != (low < -FLOOR)) >= 3  # eigvalsh alone would flip these

    seen = count_eigh(monkeypatch)
    physical, certificate = backend.check_kernels(la.liouville_from_choi(j, 2, 2), 2, 2)
    assert np.array_equal(physical, low >= -FLOOR)

    # eigh ran on the kernels near the floor alone: the diagonal nine within four
    # ulps of it, and the forty rotated ones
    assert sum(seen) == 49
    assert np.all(np.abs(low[15:] + FLOOR) < 1e-15)

    for i in np.flatnonzero(~physical):
        cert = certificate(i, "box")
        vecs = la.sorted_eigh(sym[i])[1]
        assert cert.reason == "negative eigenvalue"
        assert cert.witness["eigenvalue"] == low[i]
        assert np.array_equal(cert.witness["eigenvector"], vecs[:, -1])
        assert cert.margin == -low[i]
        assert cert.diagnostics["min_choi_eigenvalue"] == low[i]


def test_certify_channel_reports_the_eigh_eigenvalue(backend):
    j = stack(backend.name == "quantum-real")
    _, low = by_eigh(j)
    word = backend.scratch_system(2)
    for i, m in enumerate(j):
        ch = backend.payload_channel("choi", m, word, word)
        cert = backend.certify_channel(ch)
        assert cert.physical == (low[i] >= -FLOOR)
        assert cert.diagnostics["min_choi_eigenvalue"] == low[i]


def test_far_from_the_floor_eigh_never_runs(monkeypatch):
    """The seed-7 ladder-prob documents of the benchmark bind without one eigh call."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))  # run.py sets them on import
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import run

    docs = [dsl.parse(op.text) for op in run.WORKLOADS["ladder-prob"](7)]
    seen = count_eigh(monkeypatch)
    for doc in docs:
        dsl.bind(doc)
    assert len(docs) == 123
    assert sum(seen) == 0


def mixed_stack(real: bool, din: int, dout: int):
    """Choi matrices on ``din -> dout``: a physical one and, of it, a leaky, a
    negative and a not self-adjoint one; each again scaled past ``SCALE_ABOVE``."""
    rng = np.random.default_rng(din * 10 + dout)
    n = din * dout
    mats = []
    for _ in range(3):
        g = rng.normal(size=(n, n)) + (0 if real else 1j) * rng.normal(size=(n, n))
        j = g @ g.conj().T
        j *= 0.8 / np.linalg.eigvalsh(la.partial_trace(j, [din, dout], [0]))[-1]
        skew = np.zeros((n, n))
        skew[0, -1], skew[-1, 0] = 1e-3, -1e-3
        low = np.linalg.eigvalsh(j)[0]
        mats += [j, 1.5 * j, j - (low + 0.1) * np.eye(n), j + skew]
    leaky = 1.5 * np.eye(n, dtype=float if real else complex)
    leaky[0, -1] = leaky[-1, 0] = -0.0  # Tr_out J keeps no -0.0, as the partial trace sums from zero
    mats.append(leaky)
    mats += [2.0 ** 600 * j for j in mats[:8]]
    return np.array(mats, dtype=float if real else complex)


def least(sym):
    return np.linalg.eigh(sym)[0][..., 0]


@pytest.mark.parametrize("din, dout", [(1, 3), (3, 1), (2, 2), (1, 1)],
                         ids=["states", "effects", "channels", "scalars"])
def test_trimmed_checks_match_a_stack_of_one_and_numpy(backend, din, dout):
    """States (a 1 x 1 input marginal) skip an eigen solve and effects (a
    one-dimensional output) a partial trace; in stacks that mix ordinary,
    scaled and failing kernels, each gets the verdict and certificate of a
    stack of one, and the least eigenvalues numpy gives the symmetrized Choi
    matrix and ``I - Tr_out J``."""
    from optlab.backends.quantum import SCALE_ABOVE

    choi_stack = mixed_stack(backend.name == "quantum-real", din, dout)
    kernels = la.liouville_from_choi(choi_stack, din, dout)
    physical, certificate = backend.check_kernels(kernels, din, dout)
    reasons = set()
    for i, j in enumerate(choi_stack):
        alone, certificate_alone = backend.check_kernels(kernels[i:i + 1], din, dout)
        got, want = certificate(i, "map"), certificate_alone(0, "map")
        assert physical[i] == alone[0] == got.physical
        assert (got.reason, got.margin, got.diagnostics) == (want.reason, want.margin, want.diagnostics)
        assert got.witness.keys() == want.witness.keys()
        for key, value in got.witness.items():
            assert np.array_equal(value, want.witness[key])
            assert np.array_equal(np.signbit(np.real(value)), np.signbit(np.real(want.witness[key])))
        reasons.add(got.reason)
        # numpy alone, at the original scale
        sym = (j + j.conj().T) / 2.0
        diag = got.diagnostics
        exact = np.abs(j).max() <= SCALE_ABOVE  # a scaled matrix is solved at another scale
        if "min_choi_eigenvalue" in diag:
            assert diag["min_choi_eigenvalue"] == pytest.approx(least(sym), rel=0 if exact else 1e-12)
        if "trace_condition_margin" in diag:
            slack = np.eye(din) - j.reshape(din, dout, din, dout).trace(axis1=1, axis2=3)
            margin = least((slack + slack.conj().T) / 2.0)
            if din == 1:  # a 1 x 1 matrix is its own eigenvalue, in any solver
                assert diag["trace_condition_margin"] == margin
            else:
                assert diag["trace_condition_margin"] == pytest.approx(margin, rel=1e-12, abs=1e-15)
        if got.reason == "trace condition":
            reduced = la.partial_trace(j, [din, dout], [0])
            assert np.array_equal(got.witness["reduced_trace"], reduced)
            assert np.array_equal(np.signbit(np.real(got.witness["reduced_trace"])),
                                  np.signbit(np.real(reduced)))
    assert reasons >= {None, "trace condition", "negative eigenvalue"}, reasons
    assert "not self-adjoint" in reasons or din * dout == 1  # a 1 x 1 skew part is imaginary
