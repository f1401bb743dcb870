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
        ch = backend.channel_from_choi(m, word, word)
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
