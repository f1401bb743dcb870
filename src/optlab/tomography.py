"""Process comparison done honestly: equality of circuits is probe-relative.

Two circuits of the same type are interchangeable only when they give the
same statistics in every context, and contexts include side systems the
circuit does not touch.  Where joint state spaces outgrow products of local
ones, skipping the side system gives wrong answers — so the comparison here
always quantifies over a reference policy, and a negative verdict comes
with a concrete state/effect pair exhibiting the gap.

``equivalent`` and ``replay_witness`` build each circuit's kernel beside the
reference's identity, because they need the joint transfer matrix.  The
faithfulness check acts beside its reference through ``apply_first``, and
local tomography pairs the two sides' spanning preparations with one
``kernel_par``; neither builds an identity kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backends.base import EffectVector, StateVector, TheoryBackend
from .diagram import SystemType, UNIT
from .errors import OptlabError, TypeMismatchError
from .evaluator import as_channel
from .sampling import Sampler, run_trials

__all__ = [
    "EquivalenceWitness",
    "EquivalenceReport",
    "LocalTomographyReport",
    "FaithfulnessReport",
    "equivalent",
    "replay_witness",
    "local_tomography_check",
    "verify_faithfulness",
]


@dataclass
class EquivalenceWitness:
    """A replayable separation: a probe pair with different statistics."""

    reference: SystemType
    state: StateVector
    effect: EffectVector
    p_first: float
    p_second: float

    @property
    def gap(self) -> float:
        return abs(self.p_first - self.p_second)


@dataclass
class EquivalenceReport:
    verdict: str  # "Equivalent" | "Distinguished"
    max_gap: float
    tolerance: float
    references: list[tuple[str, float]]
    witness: EquivalenceWitness | None = None


def equivalent(
    m1,
    m2,
    backend: TheoryBackend,
    bindings=None,
    ref_policy: Sequence[SystemType] | None = None,
    tol: float | None = None,
) -> EquivalenceReport:
    """Compare two circuits over every reference in the policy.

    The default policy is the trivial system plus each declared primitive.
    The gap on a reference is the largest probability difference over a
    spanning family of joint probe states and effects, so a zero gap on a
    reference certifies equal statistics in every context using it.
    """
    tol = backend.tol.gap if tol is None else tol
    c1 = as_channel(m1, backend, bindings)
    c2 = as_channel(m2, backend, bindings)
    if (c1.input_type, c1.output_type) != (c2.input_type, c2.output_type):
        raise TypeMismatchError(
            f"cannot compare {c1.input_type} -> {c1.output_type} "
            f"with {c2.input_type} -> {c2.output_type}"
        )
    if ref_policy is None:
        ref_policy = [UNIT] + [SystemType.of(label) for label in backend.systems]

    references: list[tuple[str, float]] = []
    best: EquivalenceWitness | None = None
    max_gap = 0.0
    for ref in ref_policy:
        j1 = backend.par(c1, backend.identity(ref))
        j2 = backend.par(c2, backend.identity(ref))
        t1 = backend.transfer_of(j1).matrix
        t2 = backend.transfer_of(j2).matrix
        smat = np.ascontiguousarray(backend.spanning_states(j1.input_type).T)
        emat = backend.spanning_states(j1.output_type)  # self-dual: the rows are effects
        gaps = np.abs(emat @ (t1 - t2) @ smat)
        gap = float(gaps.max(initial=0.0))
        references.append((str(ref), gap))
        if gap > max_gap:
            max_gap = gap
            e_idx, s_idx = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
            p1 = float(emat[e_idx] @ t1 @ smat[:, s_idx])
            p2 = float(emat[e_idx] @ t2 @ smat[:, s_idx])
            best = EquivalenceWitness(ref, StateVector(smat[:, s_idx], j1.input_type),
                                      EffectVector(emat[e_idx], j1.output_type), p1, p2)

    verdict = "Distinguished" if max_gap > tol else "Equivalent"
    return EquivalenceReport(
        verdict=verdict,
        max_gap=max_gap,
        tolerance=tol,
        references=references,
        witness=best if verdict == "Distinguished" else None,
    )


def replay_witness(
    backend: TheoryBackend,
    m1,
    m2,
    witness: EquivalenceWitness,
    bindings=None,
) -> tuple[float, float]:
    """Run the witness probe against both circuits; returns both probabilities."""
    c1 = as_channel(m1, backend, bindings)
    c2 = as_channel(m2, backend, bindings)
    st_kernel = backend.state_as_channel(witness.state).kernel
    eff_obj = backend.effect_object(witness.effect.coords, witness.effect.system)
    eff_kernel = backend.effect_channel(eff_obj, witness.effect.system).kernel
    out = []
    for ch in (c1, c2):
        joint = backend.par(ch, backend.identity(witness.reference))
        scalar = eff_kernel @ joint.kernel @ st_kernel
        out.append(backend.prob(float(np.real(scalar[0, 0]))))
    return out[0], out[1]


@dataclass
class LocalTomographyReport:
    verdict: str  # "Holds" | "Fails"
    left_dim: int
    right_dim: int
    product_dim: int
    joint_dim: int
    product_span_rank: int


def local_tomography_check(
    backend: TheoryBackend, left: SystemType, right: SystemType
) -> LocalTomographyReport:
    """Do product probes span the joint state space?

    Compares the product of component coordinate dimensions with the joint
    one, and independently ranks the span of actual product states: the
    preparations of every pair of spanning states, one on each side, as one
    ``kernel_par`` of the two stacks, read out by one ``transfer_matrices``
    call.
    """
    na = backend.state_dim(left)
    nb = backend.state_dim(right)
    njoint = backend.state_dim(left * right)
    preps = [backend.state_channel(backend.state_object(backend.spanning_states(w), w), w)
             for w in (left, right)]
    products = backend.transfer_matrices(backend.kernel_par(*preps), UNIT, left * right)[:, :, 0]
    rank = int(np.linalg.matrix_rank(products))
    holds = (na * nb == njoint) and rank == njoint
    return LocalTomographyReport(
        verdict="Holds" if holds else "Fails",
        left_dim=na,
        right_dim=nb,
        product_dim=na * nb,
        joint_dim=njoint,
        product_span_rank=rank,
    )


@dataclass
class FaithfulnessReport:
    verdict: str  # "Confirmed" | "Refuted"
    trials: int
    min_gap: float
    tolerance: float
    failures: list[int]


def verify_faithfulness(
    backend: TheoryBackend,
    word: SystemType | None = None,
    trials: int = 100,
    seed: int | np.random.Generator = 0,
    tol: float | None = None,
) -> FaithfulnessReport:
    """Check the faithful state separates random pairs of transformations.

    The probe extension of the faithful state is its canonical pure
    extension where one exists; the classical theory, which purifies
    nothing mixed, uses the correlated-copy extension instead.  Each trial
    draws two independent random transformations and requires a spanning
    effect on the extended output to tell the two results apart.  A trial
    fails only when the gap is within ``tol`` and the two drawn kernels
    differ by more than ``backend.tol.algebra``: a system with one
    transformation (dimension 1) draws the same one twice, and a zero gap
    between equal transformations witnesses nothing.  ``min_gap`` is the
    least gap over all trials.

    The trials are walked by ``sampling.run_trials``, each block decided as
    stacked arrays, which bounds their memory; trial t draws kernels 2t and
    2t + 1, one channel after the other, so the block size changes neither
    the random stream nor the report.
    """
    tol = backend.tol.gap if tol is None else tol
    if word is None:
        labels = sorted(backend.systems)
        if not labels:
            raise OptlabError("no declared systems to probe")
        word = SystemType.of(labels[0])
    probe = backend.faithful_probe(word)
    sampler = Sampler(backend, seed=seed)
    emat = backend.spanning_states(probe.system)  # self-dual: the rows are effects

    def decide(first, kernels):
        coords = backend.apply_first(kernels, word, word, probe)
        diff = coords[0::2, None, :] - coords[1::2, None, :]
        gaps = np.abs(diff @ emat.T).max(axis=(1, 2))
        differ = np.abs(kernels[0::2] - kernels[1::2]).max(axis=(1, 2)) > backend.tol.algebra
        return gaps.tolist(), (gaps <= tol) & differ

    gaps, failures = run_trials(trials, lambda n: sampler.channels(word, word, 2 * n), decide)
    return FaithfulnessReport(
        verdict="Confirmed" if not failures else "Refuted",
        trials=trials,
        min_gap=float(np.min(gaps, initial=np.inf)),
        tolerance=tol,
        failures=failures,
    )
