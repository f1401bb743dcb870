"""Seeded random ensembles: states, channels, tests, and well-typed circuits.

Everything funnels through one ``Sampler`` per backend so that audits and
property tests are reproducible: trial k of a run seeded with s draws from
an independent stream spawned from s, and identical seeds give identical
objects byte for byte.

Batched draws keep the stream: ``channels(w_in, w_out, n)`` consumes exactly
the random numbers of ``n`` calls to ``channel``, in the same order, and
gives the same kernels, so a caller may split ``n`` draws into blocks of any
size without changing what it draws.  ``random_observation_tests`` and
``random_states`` draw their trials one at a time, each its word and then
its numbers, as a loop of ``word`` and ``observation_channels`` or ``state``
calls would; then the trials of one word are worked out as one stack, and
each comes out bit for bit as that loop gives it.

No command calls ``diagram``, ``closed_test_circuit``, ``unitary_channel``,
``identity_instrument`` or ``instrument``.  They stay because they build the
random fixtures of acceptance criteria 1, 2, 4, 8 and 11 (monoidal laws,
outcome distributions, purification, information without disturbance and
readouts).
"""

from __future__ import annotations

import numpy as np

from .backends.base import Channel, StateVector, TheoryBackend
from .diagram import (
    Diagram,
    Identity,
    Par,
    PrimitiveBox,
    Seq,
    Swap,
    SystemType,
    Test,
    OutcomeSpace,
    singleton_test,
    test_par,
    test_seq,
)

__all__ = ["Sampler", "spawn_rngs"]


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Independent per-trial generators derived from one root seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


class Sampler:
    """Random physical objects over a backend's declared systems."""

    MAX_CARRIER = 8  # largest carrier dimension of a drawn word

    def __init__(self, backend: TheoryBackend, seed: int | np.random.Generator = 0) -> None:
        self.backend = backend
        self._labels = sorted(backend.systems)
        self.rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self.bindings: dict[str, Channel] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # raw matrix ensembles
    # ------------------------------------------------------------------

    def random_unitary(self, d: int) -> np.ndarray:
        """Haar unitary (or orthogonal, on real-scalar backends) via QR."""
        return self.backend.random_unitary(self.rng, d)

    def density_matrix(self, d: int, rank: int | None = None) -> np.ndarray:
        return self.backend.density_matrix(self.rng, d, rank)

    def simplex_weights(self, k: int) -> np.ndarray:
        return self.backend.simplex_weights(self.rng, k)

    # ------------------------------------------------------------------
    # states / effects / channels
    # ------------------------------------------------------------------

    def state(self, word: SystemType, rank: int | None = None) -> StateVector:
        return self.backend.random_state(self.rng, word, rank)

    def channel(self, input_word: SystemType, output_word: SystemType) -> Channel:
        """Random deterministic (normalization-preserving) transformation."""
        return Channel(input_word, output_word, self.channels(input_word, output_word, 1)[0])

    def channels(self, input_word: SystemType, output_word: SystemType,
                 count: int) -> np.ndarray:
        """Kernels of ``count`` random deterministic transformations, stacked.

        Shape ``(count, rows, cols)``; draws what ``count`` calls to
        ``channel`` would, in the same order.
        """
        return self.backend.random_channels(self.rng, input_word, output_word, count)

    def unitary_channel(self, word: SystemType) -> Channel:
        return self.backend.random_reversible(self.rng, word)

    # ------------------------------------------------------------------
    # tests
    # ------------------------------------------------------------------

    def povm(self, word: SystemType, k: int) -> list[np.ndarray]:
        """k effects summing to the unit effect (matrices or rows by backend)."""
        return self.backend.random_povm(self.rng, word, k)

    def observation_channels(self, word: SystemType, k: int) -> list[Channel]:
        b = self.backend
        return [b.effect_channel(e, word) for e in self.povm(word, k)]

    def random_observation_tests(self, count: int) -> list[list[Channel]]:
        """``count`` tests, each ``observation_channels(word(), k)`` with k
        drawn from 2 to 4 after the word.  The tests whose draws have
        one shape (carrier dimension and outcome count) are normalized as one
        stack, and the effects on one word become channels as one stack."""
        b, unit = self.backend, SystemType(())
        words, drawn, shapes = [], [], {}
        for i in range(count):
            word = self.word()
            k = int(self.rng.integers(2, 5))
            words.append(word)
            drawn.append(b.povm_draws(self.rng, word, k))
            shapes.setdefault(drawn[i].shape, []).append(i)
        for at in shapes.values():
            for i, effects in zip(at, b.drawn_povms(np.array([drawn[i] for i in at]))):
                drawn[i] = effects
        on_word: dict[SystemType, list[int]] = {}
        for i, word in enumerate(words):
            on_word.setdefault(word, []).append(i)
        tests: list = [None] * count
        for word, at in on_word.items():
            kernels = iter(b.effect_channel(np.concatenate([drawn[i] for i in at]), word).kernel)
            for i in at:
                tests[i] = [Channel(word, unit, next(kernels)) for _ in drawn[i]]
        return tests

    def random_states(self, count: int) -> list[StateVector]:
        """``count`` states, each ``state(word(1))``; the states of one word
        are formed as one stack."""
        drawn, groups = [], {}
        for i in range(count):
            word = self.word(1)
            drawn.append(self.backend.state_draws(self.rng, word))
            groups.setdefault(word, []).append(i)
        states: list = [None] * count
        for word, at in groups.items():
            for i, coords in zip(at, self.backend.drawn_states(np.array([drawn[i] for i in at]), word)):
                states[i] = StateVector(coords, word)
        return states

    def preparation_branches(self, word: SystemType, k: int) -> list[np.ndarray]:
        """Subnormalized state objects summing to a normalized state."""
        return self.backend.random_preparation(self.rng, word, k)

    def instrument(self, input_word: SystemType, output_word: SystemType,
                   k: int) -> list[Channel]:
        """k branches summing to a random deterministic transformation."""
        return self.backend.random_instrument(self.rng, input_word, output_word, k)

    def identity_instrument(self, word: SystemType, k: int) -> list[Channel]:
        """Branches proportional to the identity, summing to it exactly."""
        weights = self.simplex_weights(k)
        ident = self.backend.identity(word).kernel
        return [Channel(word, word, w * ident) for w in weights]

    # ------------------------------------------------------------------
    # words and typed circuits
    # ------------------------------------------------------------------

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

    def _fresh_box(self, input_word: SystemType, output_word: SystemType) -> PrimitiveBox:
        name = f"rbox{self._counter}"
        self._counter += 1
        self.bindings[name] = self.channel(input_word, output_word)
        return PrimitiveBox(name, input_word, output_word)

    def diagram(self, input_word: SystemType, output_word: SystemType,
                depth: int = 3) -> Diagram:
        """Random well-typed circuit of the given type; boxes go in bindings."""
        if depth <= 0:
            return self._fresh_box(input_word, output_word)
        options = ["box", "seq", "par"]
        if input_word == output_word:
            options.append("id")
        swap_cuts = [
            i for i in range(1, len(input_word))
            if output_word.word == input_word.word[i:] + input_word.word[:i]
        ]
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
            return Seq((
                self.diagram(input_word, mid, depth - 1),
                self.diagram(mid, output_word, depth - 1),
            ))
        if pick == "par":
            i = int(self.rng.integers(0, len(input_word) + 1))
            j = int(self.rng.integers(0, len(output_word) + 1))
            left = self.diagram(
                SystemType(input_word.word[:i]), SystemType(output_word.word[:j]), depth - 1
            )
            right = self.diagram(
                SystemType(input_word.word[i:]), SystemType(output_word.word[j:]), depth - 1
            )
            return Par((left, right))
        return self._fresh_box(input_word, output_word)

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
            preps = []
            for obj in self.preparation_branches(win, k1):
                name = f"prep{self._counter}"
                self._counter += 1
                self.bindings[name] = b.state_channel(obj, win)
                preps.append(PrimitiveBox(name, SystemType(()), win))
            prep_test = Test(
                OutcomeSpace(tuple(f"p{i}" for i in range(k1))), tuple(preps)
            )
            middle = singleton_test(self.diagram(win, wout, depth))
            effs = []
            for ch in self.observation_channels(wout, k2):
                name = f"meas{self._counter}"
                self._counter += 1
                self.bindings[name] = ch
                effs.append(PrimitiveBox(name, wout, SystemType(())))
            obs_test = Test(
                OutcomeSpace(tuple(f"m{i}" for i in range(k2))), tuple(effs)
            )
            return test_seq(prep_test, middle, obs_test)

        t = column()
        if self.rng.uniform() < 0.3:
            t = test_par(t, column())
        return t
