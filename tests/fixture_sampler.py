"""Seeded random fixtures for the property tests: states, channels, tests,
instruments and well-typed circuits.

``FixtureSampler`` extends ``optlab.sampling.Sampler``, which draws the
sampled audits' trials, with the generators that only tests call.  Each
draws from the sampler's one generator, so identical seeds give identical
objects byte for byte.

Instruments are derived once, for every theory: a k-outcome instrument
``in -> out`` is a random deterministic transformation ``in -> out * @k``
whose pointer ``@k`` is read out by the k classical effects ``diagonal(e_x)``,
one ``apply_par`` of ``[Identity(out), readout]``.  Its branches sum to that
transformation with the pointer discarded, so to a deterministic one.  A
preparation is the same instrument from the unit, so its branches are a
generic ensemble: they need not commute.
"""

from __future__ import annotations

import numpy as np

from optlab.backends.base import Channel, StateVector
from optlab.diagram import (
    UNIT,
    Diagram,
    Identity,
    OutcomeSpace,
    Par,
    PrimitiveBox,
    Seq,
    Swap,
    SystemType,
    Test,
    singleton_test,
    test_par,
    test_seq,
)
from optlab.sampling import Sampler


class FixtureSampler(Sampler):
    """A ``Sampler`` that also draws the property tests' random fixtures;
    the boxes of its circuits go in ``bindings``."""

    def __init__(self, backend, seed=0) -> None:
        super().__init__(backend, seed)
        self.bindings: dict[str, Channel] = {}
        self._counter = 0

    def random_unitary(self, d: int) -> np.ndarray:
        """Haar unitary (orthogonal on real scalars; a permutation classically)."""
        return self.backend.random_unitary(self.rng, d)

    def density_matrix(self, d: int, rank: int | None = None) -> np.ndarray:
        """``g g* / Tr(g g*)`` of a Gaussian ``d x rank`` matrix ``g``."""
        g = self.backend.gaussian(self.rng, 1, d, rank or d)
        rho = g @ g.conj().swapaxes(-1, -2)
        return (rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None])[0]

    def simplex_weights(self, k: int) -> np.ndarray:
        w = self.rng.exponential(size=k)
        return w / w.sum()

    def state(self, word: SystemType, rank: int | None = None) -> StateVector:
        """A random state of the given rank (full by default): a Gaussian
        ``d x rank`` matrix's ``density_matrix`` on the matrix theories, and
        classically ``rank`` support points of a full draw, picked by one
        permutation."""
        b, d = self.backend, self.backend.hilbert_dim(word)
        if b.name != "classical":
            draws = b.gaussian(self.rng, 1, d, rank or d)
        else:
            draws = b.state_draws(self.rng, word, 1)
            if rank is not None and rank < d:
                draws[:, self.rng.permutation(d)[rank:]] = 0.0
        return StateVector(b.drawn_states(draws, word)[0], word)

    def channel(self, input_word: SystemType, output_word: SystemType) -> Channel:
        """Random deterministic (normalization-preserving) transformation."""
        return Channel(input_word, output_word, self.channels(input_word, output_word, 1)[0])

    def unitary_channel(self, word: SystemType) -> Channel:
        return self.backend.random_reversible(self.rng, word)

    def povm(self, word: SystemType, k: int) -> list[np.ndarray]:
        """k effects summing to the unit effect (matrices or rows by backend)."""
        b = self.backend
        return list(b.drawn_povms(b.povm_draws(self.rng, word, k)[None])[0])

    def observation_channels(self, word: SystemType, k: int) -> list[Channel]:
        b = self.backend
        return [b.effect_channel(e, word) for e in self.povm(word, k)]

    def instrument(self, input_word: SystemType, output_word: SystemType,
                   k: int) -> list[Channel]:
        """k branches summing to a random deterministic transformation: a
        random ``input_word -> output_word * @k`` read out on its pointer."""
        b = self.backend
        pointer = b.scratch_system(k)
        kernel = b.random_channels(self.rng, input_word, output_word * pointer, 1)
        readout = b.effect_channel(np.stack([b.diagonal(e) for e in np.eye(k)]), pointer)
        kernels = b.apply_par([Identity(output_word), readout], kernel)
        return [Channel(input_word, output_word, branch) for branch in kernels]

    def preparation_branches(self, word: SystemType, k: int) -> list[np.ndarray]:
        """Subnormalized state objects summing to a normalized state: the
        branches of an instrument from the unit."""
        b = self.backend
        kernels = np.stack([c.kernel for c in self.instrument(UNIT, word, k)])
        return list(b.state_object(b.transfer_matrices(kernels, UNIT, word)[:, :, 0], word))

    def identity_instrument(self, word: SystemType, k: int) -> list[Channel]:
        """Branches proportional to the identity, summing to it exactly."""
        weights = self.simplex_weights(k)
        ident = self.backend.identity(word).kernel
        return [Channel(word, word, w * ident) for w in weights]

    def word(self, max_len: int = 2) -> SystemType:
        labels = self._labels
        if not labels:
            return SystemType(())
        for _ in range(20):
            n = int(self.rng.integers(0, max_len + 1))
            picks = [labels[int(self.rng.integers(len(labels)))] for _ in range(n)]
            w = SystemType(tuple(picks))
            if self.backend.hilbert_dim(w) <= self.MAX_CARRIER:
                return w
        return SystemType((min(labels, key=lambda l: self.backend.primitive_dim(l)),))

    def _bind(self, prefix: str, ch: Channel) -> PrimitiveBox:
        """A fresh box name for ``ch``, put in ``bindings``."""
        name = f"{prefix}{self._counter}"
        self._counter += 1
        self.bindings[name] = ch
        return PrimitiveBox(name, ch.input_type, ch.output_type)

    def diagram(self, input_word: SystemType, output_word: SystemType,
                depth: int = 3) -> Diagram:
        """Random well-typed circuit of the given type; boxes go in bindings."""
        if depth <= 0:
            return self._bind("rbox", self.channel(input_word, output_word))
        options = ["box", "seq", "par"]
        if input_word == output_word:
            options.append("id")
        swap_cuts = [i for i in range(1, len(input_word))
                     if output_word.word == input_word.word[i:] + input_word.word[:i]]
        if swap_cuts:
            options.append("swap")
        pick = options[int(self.rng.integers(len(options)))]
        if pick == "id":
            return Identity(input_word)
        if pick == "swap":
            i = swap_cuts[int(self.rng.integers(len(swap_cuts)))]
            return Swap(SystemType(input_word.word[:i]), SystemType(input_word.word[i:]))
        if pick == "seq":
            mid = self.word()
            return Seq((self.diagram(input_word, mid, depth - 1),
                        self.diagram(mid, output_word, depth - 1)))
        if pick == "par":
            i = int(self.rng.integers(0, len(input_word) + 1))
            j = int(self.rng.integers(0, len(output_word) + 1))
            ins, outs = input_word.word, output_word.word
            return Par((self.diagram(SystemType(ins[:i]), SystemType(outs[:j]), depth - 1),
                        self.diagram(SystemType(ins[i:]), SystemType(outs[j:]), depth - 1)))
        return self._bind("rbox", self.channel(input_word, output_word))

    def closed_test_circuit(self, max_branches: int = 3, depth: int = 1) -> Test:
        """Scalar-typed test circuit assembled from complete tests.

        Preparation test, then a deterministic circuit, then an observation
        test; occasionally two such columns side by side.
        """
        b = self.backend

        def column() -> Test:
            win = self.word(1)
            if win.is_unit:
                win = self.word(1) * SystemType((self._labels[0],))
            wout = self.word(1)
            if wout.is_unit:
                wout = win
            k1 = int(self.rng.integers(1, max_branches + 1))
            k2 = int(self.rng.integers(1, max_branches + 1))
            preps = [self._bind("prep", b.state_channel(obj, win))
                     for obj in self.preparation_branches(win, k1)]
            middle = singleton_test(self.diagram(win, wout, depth))
            effs = [self._bind("meas", ch) for ch in self.observation_channels(wout, k2)]
            return test_seq(Test(OutcomeSpace(tuple(f"p{i}" for i in range(k1))), tuple(preps)),
                            middle,
                            Test(OutcomeSpace(tuple(f"m{i}" for i in range(k2))), tuple(effs)))

        t = column()
        if self.rng.uniform() < 0.3:
            t = test_par(t, column())
        return t
