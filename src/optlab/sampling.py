"""Seeded random trials of the sampled audits.

Each audit draws through one ``Sampler`` per backend, so that identical
seeds give identical trials byte for byte.  A sampled audit's trials come
from one stream; the faithfulness audit gives each system its own, spawned
from the seed (``spawn_rngs``).

Batched draws keep the stream: ``channels(w_in, w_out, n)`` consumes exactly
the random numbers of ``n`` draws of one channel, in the same order, and
gives the same kernels, so a caller may split ``n`` draws into blocks of any
size without changing what it draws.

The sampled audits walk their trials with ``run_trials``, in blocks of
``TRIAL_BLOCK`` trials, each drawn by a ``Sampler`` method and decided
before the next is drawn.  Faithfulness draws its channels one after
another, so there the block size changes nothing; ``observation_test_block``
and ``state_block`` draw a block in one stacked layout, in which the block
size is part of what a seed draws.  Within a block the generator is called
in this order:

1. one ``integers`` call for every trial's word length (0 to ``max_len``);
2. one ``integers`` call for every label pick, shape ``(n, max_len)``; a
   trial uses its first ``length`` picks;
3. for the words over ``MAX_CARRIER``, rounds of the same two calls on the
   rejected trials only, up to 20 rounds in all, after which a trial takes
   the smallest label;
4. for observation tests, one ``integers(2, 5)`` call for every outcome count;
5. for each word, in order of its first trial, one ``povm_draws`` or
   ``state_draws`` call for the numbers of all its trials, in trial order.

Each trial's law is that of its word (a length, then a label per position,
redrawn while the carrier is over ``MAX_CARRIER``), then of its own
numbers: an observation test's ``k`` effects are
``drawn_povms`` of its ``povm_draws`` of ``k``, and a state is
``drawn_states`` of its ``state_draws`` of one.  Only what a seed maps to
differs from drawing the trials one at a time (as earlier versions did).
The trials of one word are worked out as one stack.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .backends.base import TheoryBackend
from .diagram import SystemType

__all__ = ["Sampler", "TRIAL_BLOCK", "run_trials", "spawn_rngs"]

TRIAL_BLOCK = 256  # trials drawn, and decided, together


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Independent per-trial generators derived from one root seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def run_trials(count: int, draw: Callable, decide: Callable) -> tuple[list, list[int]]:
    """Walk ``count`` sampled trials, block by block: ``draw(n)`` draws the
    next ``n`` of them (``TRIAL_BLOCK``, the last block fewer), and
    ``decide(first, block)``, where ``first`` is the block's first trial,
    returns each of its trials' deciding statistic in trial order and which
    of them failed (a mask).  Returns every trial's statistic in trial order
    and the failing trials in ascending order, the first failing trial
    first.  A decision that raises ends the walk: no later block is drawn."""
    statistics: list = []
    failures: list[int] = []
    for first in range(0, count, TRIAL_BLOCK):
        stats, failed = decide(first, draw(min(TRIAL_BLOCK, count - first)))
        statistics += stats
        failures += (first + np.flatnonzero(failed)).tolist()
    return statistics, failures


class Sampler:
    """The sampled audits' random trials over a backend's declared systems."""

    MAX_CARRIER = 8  # largest carrier dimension of a drawn word

    def __init__(self, backend: TheoryBackend, seed: int | np.random.Generator = 0) -> None:
        self.backend = backend
        self._labels = sorted(backend.systems)
        self.rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self._dims = np.array([*map(backend.primitive_dim, self._labels), 1], dtype=np.int64)

    def channels(self, input_word: SystemType, output_word: SystemType,
                 count: int) -> np.ndarray:
        """Kernels of ``count`` random deterministic transformations, stacked.

        Shape ``(count, rows, cols)``; draws what ``count`` draws of one
        would, in the same order.
        """
        return self.backend.random_channels(self.rng, input_word, output_word, count)

    def observation_test_block(self, n: int) -> list[tuple[SystemType, np.ndarray, np.ndarray]]:
        """``n`` observation tests, each on a random word with an outcome count
        from 2 to 4: per word, the positions of its tests and their effect
        kernels, shape ``(tests, max count, 1, cols)``, zero past a test's count."""
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
            stacks.append((word, at, b.effect_channel(b.drawn_povms(padded), word).kernel))
        return stacks

    def state_block(self, n: int) -> list[tuple[SystemType, np.ndarray, np.ndarray]]:
        """``n`` states, each on a random word of at most one system: per word,
        the positions of its states and their coordinates, stacked."""
        b = self.backend
        return [(word, at, b.drawn_states(b.state_draws(self.rng, word, len(at)), word))
                for word, at in self._block_words(n, 1)]

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
