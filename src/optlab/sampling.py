"""Seeded random ensembles: states, channels, tests, and well-typed circuits.

Everything funnels through one ``Sampler`` per backend so that audits and
property tests are reproducible: trial k of a run seeded with s draws from
an independent stream spawned from s, and identical seeds give identical
objects byte for byte.

Batched draws keep the stream: ``channels(w_in, w_out, n)`` consumes exactly
the random numbers of ``n`` calls to ``channel``, in the same order, and
gives the same kernels, so a caller may split ``n`` draws into blocks of any
size without changing what it draws.

The sampled audits' trials (``random_observation_tests`` and
``random_states``) are drawn in one stacked layout, block by block, in
blocks of ``TRIAL_BLOCK`` trials.  Within a block the generator is called in
this order:

1. one ``integers`` call for every trial's word length (0 to ``max_len``);
2. one ``integers`` call for every label pick, shape ``(n, max_len)``; a
   trial uses its first ``length`` picks;
3. for the words over ``MAX_CARRIER``, rounds of the same two calls on the
   rejected trials only, up to 20 rounds in all, after which a trial takes
   the smallest label, as ``word`` does;
4. for observation tests, one ``integers(2, 5)`` call for every outcome count;
5. for each word, in order of its first trial, one ``povm_draws`` or
   ``state_draws`` call for the numbers of all its trials, in trial order.

Each trial's law is that of ``word`` followed by ``povm`` or ``state``; only
what a seed maps to differs from a loop of those calls (and from earlier
versions, which drew the trials that way, one at a time).  The trials of one
word are worked out as one stack, and ``check_causality`` decides a block of
observation tests before the next one is drawn.

No command calls ``diagram``, ``closed_test_circuit``, ``unitary_channel``,
``identity_instrument`` or ``instrument``.  They stay because they build the
random fixtures of acceptance criteria 1, 2, 4, 8 and 11 (monoidal laws,
outcome distributions, purification, information without disturbance and
readouts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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

__all__ = ["DrawnTests", "Sampler", "TRIAL_BLOCK", "TrialStack", "spawn_rngs"]

TRIAL_BLOCK = 256  # trials drawn, and decided, together


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
        self._dims = np.array([*map(backend.primitive_dim, self._labels), 1], dtype=np.int64)

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

    def random_observation_tests(self, count: int) -> DrawnTests:
        """``count`` observation tests, each on a random word with an outcome
        count from 2 to 4, drawn block by block as they are iterated."""
        return DrawnTests(self, count)

    def observation_test_block(self, first: int, n: int) -> list[TrialStack]:
        """Trials ``first`` to ``first + n - 1`` of ``random_observation_tests``,
        one ``TrialStack`` of effect kernels per word."""
        b = self.backend
        words = self._block_words(n, 2)
        ks = self.rng.integers(2, 5, size=n)
        stacks = []
        for word, at in words:
            k = ks[at]
            draws = b.povm_draws(self.rng, word, int(k.sum()))
            # absent outcomes are zero effects: they add an exact 0.0 to a test's sum
            padded = np.zeros((len(at), int(k.max()), *draws.shape[1:]), draws.dtype)
            padded[np.arange(padded.shape[1]) < k[:, None]] = draws
            kernels = b.effect_channel(b.drawn_povms(padded), word).kernel
            stacks.append(TrialStack(word, first + at, k, kernels))
        return stacks

    def random_states(self, count: int) -> list[StateVector]:
        """``count`` states, each on a random word of at most one system."""
        b = self.backend
        states: list = [None] * count
        for first in range(0, count, TRIAL_BLOCK):
            for word, at in self._block_words(min(TRIAL_BLOCK, count - first), 1):
                coords = b.drawn_states(b.state_draws(self.rng, word, len(at)), word)
                for i, c in zip((first + at).tolist(), coords):
                    states[i] = StateVector(c, word)
        return states

    def _block_words(self, n: int, max_len: int) -> list[tuple[SystemType, np.ndarray]]:
        """Steps 1 to 3 of the layout: the words of a block's ``n`` trials,
        each with the positions of its trials, in order of its first trial."""
        labels, rng, dims = self._labels, self.rng, self._dims
        if not labels:
            return [(SystemType(()), np.arange(n))]
        blank = len(labels)  # the pick past a trial's length, of dimension 1
        picks = np.empty((n, max_len), dtype=np.int64)
        todo = np.arange(n)
        for _ in range(20):
            lengths = rng.integers(0, max_len + 1, size=todo.size)
            drawn = rng.integers(len(labels), size=(todo.size, max_len))
            picks[todo] = np.where(np.arange(max_len) < lengths[:, None], drawn, blank)
            todo = todo[dims[picks[todo]].prod(axis=1) > self.MAX_CARRIER]
            if not todo.size:
                break
        else:
            picks[todo] = blank
            picks[todo, 0] = np.argmin(dims[:blank])  # the first smallest label
        trials: dict[tuple, list[int]] = {}
        for i, row in enumerate(picks.tolist()):
            trials.setdefault(tuple(row), []).append(i)
        return [(SystemType(tuple(labels[p] for p in row if p < blank)), np.array(at))
                for row, at in trials.items()]

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


@dataclass(frozen=True)
class TrialStack:
    """The drawn observation tests on one word in a block, in trial order.

    ``trials`` are their indices in the run and ``outcomes`` their outcome
    counts; ``kernels`` holds each test's effect kernels, shape
    ``(len(trials), max(outcomes), 1, cols)``, zero past a test's count.
    """

    word: SystemType
    trials: np.ndarray
    outcomes: np.ndarray
    kernels: np.ndarray


@dataclass(frozen=True)
class DrawnTests:
    """``count`` random observation tests, drawn from ``sampler`` as they are
    iterated: a list of ``TrialStack`` per block of ``TRIAL_BLOCK`` trials.
    Each pass draws anew from the sampler's generator."""

    sampler: Sampler
    count: int

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[list[TrialStack]]:
        for first in range(0, self.count, TRIAL_BLOCK):
            yield self.sampler.observation_test_block(first, min(TRIAL_BLOCK, self.count - first))
