"""Dilation audits: channel-state duality, disturbance, pure realizations.

These constructions hang off purification: fix the canonical pure extension
of the faithful state, and transformations on the input system correspond
one-to-one to states of output-plus-reference; deterministic
transformations acquire pure realizations on a larger output; and any
identity-summing test that extracts information must disturb.  Each acts
on one part of a joint state and leaves the rest alone, through the
backend's ``apply_first`` or ``apply_par``: no kernel is built beside an
identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backends.base import Channel, StateVector, TheoryBackend, TransferMatrix
from ..diagram import Identity, SystemType
from ..errors import (
    BackendLacksDilationError,
    BackendLacksPurificationError,
    BranchSumMismatchError,
    MarginalMismatchError,
    NotPureError,
    OptlabError,
    TypeMismatchError,
)
from ..evaluator import as_channel, branch_channels
from .purification import ConnectionReport, _connection, _split
from .purity import is_pure_transformation

__all__ = [
    "ChoiCorrespondence",
    "NiwdReport",
    "DilationResult",
    "choi_correspondence",
    "niwd_check",
    "stinespring_dilate",
    "dilation_uniqueness",
]


@dataclass
class ChoiCorrespondence:
    """Linear bridge between transformations and extended states.

    Transformations from the input system to the output system map, via
    action on half of the canonical pure extension of the faithful state,
    to states on ``output * reference``; ``matrix`` is that linear map in
    coordinates, and ``rank == required`` certifies injectivity.
    """

    input_system: SystemType
    output_system: SystemType
    reference: SystemType
    pure_state: StateVector
    matrix: np.ndarray
    rank: int
    required: int
    _backend: TheoryBackend = field(repr=False)
    _choi_basis: np.ndarray = field(repr=False)

    @property
    def injective(self) -> bool:
        return self.rank == self.required

    def image_state(self, ch: Channel) -> StateVector:
        if (ch.input_type, ch.output_type) != (self.input_system, self.output_system):
            raise TypeMismatchError(
                f"correspondence is for {self.input_system} -> {self.output_system}"
            )
        coords = self._backend.apply_first(ch.kernel[None], self.input_system, self.output_system,
                                           self.pure_state)
        return StateVector(coords[0], self.output_system * self.reference)

    def recover(self, st: StateVector) -> tuple[Channel, float]:
        """Invert the correspondence; returns the channel and the residual."""
        b = self._backend
        coeffs, *_ = np.linalg.lstsq(self.matrix, np.asarray(st.coords, dtype=float), rcond=None)
        residual = float(np.max(np.abs(self.matrix @ coeffs - st.coords)))
        choi = np.einsum("k,kij->ij", coeffs, self._choi_basis)
        ch = b.payload_channel("choi", choi, self.input_system, self.output_system)
        return ch, residual


def choi_correspondence(
    backend: TheoryBackend,
    input_system: SystemType,
    output_system: SystemType,
) -> ChoiCorrespondence:
    """Build the transformation/state bridge over the faithful state.

    Needs a pure extension of the faithful state, so the classical theory
    raises ``BackendLacksPurificationError``.
    """
    if not backend.purifies:
        raise BackendLacksPurificationError(
            f"the {backend.name} theory has no pure extension of its faithful state, "
            "so the transformation/state correspondence is unavailable"
        )
    psi = backend.faithful_probe(input_system)
    ref = SystemType(psi.system.word[len(input_system):])

    # self-adjoint operators on input * output: the basis of a scratch system that size
    scratch = backend.scratch_system(backend.hilbert_dim(input_system) * backend.hilbert_dim(output_system))
    choi_basis = backend.state_object(np.eye(backend.state_dim(scratch)), scratch)
    kernels = backend.payload_channel("choi", choi_basis, input_system, output_system).kernel
    matrix = np.ascontiguousarray(backend.apply_first(kernels, input_system, output_system, psi).T)
    rank = int(np.linalg.matrix_rank(matrix))
    return ChoiCorrespondence(
        input_system=input_system,
        output_system=output_system,
        reference=ref,
        pure_state=psi,
        matrix=matrix,
        rank=rank,
        required=choi_basis.shape[0],
        _backend=backend,
        _choi_basis=choi_basis,
    )


@dataclass
class NiwdReport:
    """No information without disturbance, audited on one test."""

    verdict: str  # "Holds" | "Violated"
    weights: dict[str, float]
    weights_total: float
    max_deviation: float
    offending_label: str | None = None
    sum_residual: float = 0.0


def niwd_check(backend: TheoryBackend, test, bindings=None,
               tol: float | None = None) -> NiwdReport:
    """Check that a test summing to the identity has identity-proportional branches.

    Raises ``BranchSumMismatchError`` when the branches do not sum to the
    identity; otherwise reports Holds/Violated with per-branch weights.
    """
    tol = backend.tol.gap if tol is None else tol
    branches = branch_channels(test, backend, bindings)
    word = branches[0][1].input_type
    for _, ch in branches:
        if ch.input_type != word or ch.output_type != word:
            raise TypeMismatchError("disturbance audit needs branches from a system to itself")
    ident = backend.kernel_identity(word)
    total = sum(ch.kernel for _, ch in branches)
    sum_residual = float(np.max(np.abs(total - ident)))
    if sum_residual > backend.tol.marginal:
        raise BranchSumMismatchError(
            f"branches sum to something other than the identity (residual {sum_residual:.3e})"
        )
    norm = float(np.real(np.trace(ident)))
    weights: dict[str, float] = {}
    max_dev = 0.0
    offender = None
    for label, ch in branches:
        w = float(np.real(np.trace(ch.kernel))) / norm
        weights[label] = w
        dev = float(np.max(np.abs(ch.kernel - w * ident)))
        if dev > max_dev:
            max_dev, offender = dev, label
    verdict = "Holds" if max_dev <= tol else "Violated"
    return NiwdReport(
        verdict=verdict,
        weights=weights,
        weights_total=float(sum(weights.values())),
        max_deviation=max_dev,
        offending_label=offender if verdict == "Violated" else None,
        sum_residual=sum_residual,
    )


@dataclass
class DilationResult:
    environment: SystemType
    environment_dim: int
    channel: Channel
    transfer: TransferMatrix
    isometry: np.ndarray
    kraus: list[np.ndarray]
    marginal_error: float
    isometry_residual: float


def stinespring_dilate(backend: TheoryBackend, m, bindings=None) -> DilationResult:
    """Pure realization of a deterministic transformation on a larger output.

    The purification of the transformation's positive representative
    (``channel_choi``), read back as a channel: its wing is the environment,
    as small as the representative's rank allows.  The classical theory only
    realizes point preparations purely and raises
    ``BackendLacksDilationError`` otherwise.
    """
    ch = as_channel(m, backend, bindings)
    det = backend.deterministic_residual(ch)
    if det > backend.tol.marginal:
        raise OptlabError(
            f"dilation needs a deterministic transformation (residual {det:.3e})"
        )

    din = backend.hilbert_dim(ch.input_type)
    choi = backend.channel_choi(ch)
    dec = backend.extremal_decomposition(choi)
    try:
        _, r = backend.purification(choi, dec)
    except BackendLacksPurificationError as e:
        raise BackendLacksDilationError(str(e)) from e
    # the purifying ket, indexed (input, output, wing), is the isometry's column stack
    v = backend.project_scalars(dec.amplitudes[:, :r].reshape(din, -1).T)
    kraus = [v[c::r] for c in range(r)]
    isometry_residual = float(np.max(np.abs(v.conj().T @ v - np.eye(din))))

    env = backend.scratch_system(r)
    pure = backend.conjugation_channel(v, ch.input_type, ch.output_type * env)
    back = backend.apply_par([Identity(ch.output_type), backend.trace_channel(env)], pure.kernel[None])
    marginal_error = float(np.max(np.abs(back[0] - ch.kernel)))

    return DilationResult(
        environment=env,
        environment_dim=r,
        channel=pure,
        transfer=backend.transfer_of(pure),
        isometry=v,
        kraus=kraus,
        marginal_error=marginal_error,
        isometry_residual=isometry_residual,
    )


def dilation_uniqueness(
    backend: TheoryBackend,
    p1: Channel,
    p2: Channel,
    base_output: SystemType,
) -> ConnectionReport:
    """Connect two pure realizations by a reversible map on the environment.

    Both inputs are pure channels into ``base_output * environment`` with
    the same marginal on ``base_output``.  Their Choi objects are pure
    extensions of one marginal on ``input * base_output``, so purification
    uniqueness connects them on the environment.
    """
    if not backend.purifies:
        raise BackendLacksDilationError(
            f"the {backend.name} theory has no nontrivial pure realizations to compare"
        )
    if (p1.input_type, p1.output_type) != (p2.input_type, p2.output_type):
        raise TypeMismatchError("the two realizations must share input and output systems")
    env = _split(p1.output_type, base_output)
    for which, p in (("first", p1), ("second", p2)):
        if not is_pure_transformation(backend, p).pure:
            raise NotPureError(f"the {which} realization is not pure")

    u, marginal_error = backend.pure_connection(
        backend.channel_choi(p1), backend.channel_choi(p2),
        backend.hilbert_dim(p1.input_type) * backend.hilbert_dim(base_output),
        backend.hilbert_dim(env),
    )
    if marginal_error > backend.tol.marginal:
        raise MarginalMismatchError(
            f"the two realizations have different marginals (deviation {marginal_error:.3e})"
        )
    return _connection(backend, u, marginal_error, base_output, env, p1.kernel, p2.kernel)
