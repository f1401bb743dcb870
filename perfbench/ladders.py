"""Brick-wall ladders for the ``ladder-eval`` and ``ladder-prob`` workloads.

A ladder on n two-level systems ``Q0 .. Q{n-1}`` is ``LAYERS`` layers of
random two-system gates on neighbouring pairs, alternating between the pairs
(0,1),(2,3),... and (1,2),(3,4),...  Gates are Haar unitaries on the complex
quantum theory, Haar orthogonal matrices on the real one and random
permutations of the four joint outcomes on the classical one, so every ladder
is reversible and its transfer matrix has closed-form invariants.

The references here are the benchmark's own: a dense numpy simulation of the
generated gates on the 2^n-dimensional carrier.  Nothing is taken from a run
of optlab.
"""

from __future__ import annotations

import numpy as np

LAYERS = 4
THEORIES = ("quantum", "quantum-real", "classical")


def _fmt(a: np.ndarray, pairs: bool) -> str:
    """Payload literal; ``repr`` round-trips every double, so the reference
    and the program see the same numbers."""
    if a.ndim == 0:
        z = complex(a)
        return f"[{z.real!r},{z.imag!r}]" if pairs else repr(float(z.real))
    return "[" + ",".join(_fmt(row, pairs) for row in a) + "]"


def _haar(rng: np.random.Generator, d: int, complex_: bool) -> np.ndarray:
    g = rng.normal(size=(d, d))
    if complex_:
        g = g + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _density(rng: np.random.Generator, d: int, complex_: bool) -> np.ndarray:
    g = rng.normal(size=(d, d))
    if complex_:
        g = g + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class Ladder:
    """One generated ladder: its gates, and the .opt text that declares it."""

    def __init__(self, rng: np.random.Generator, theory: str, n: int, closed: bool):
        self.theory, self.n, self.closed = theory, n, closed
        self.complex = theory == "quantum"
        self.gates: list[tuple[int, int, np.ndarray]] = []  # (layer, first qubit, 4x4)
        for layer in range(LAYERS):
            start = layer % 2 if n > 2 else 0
            for i in range(start, n - 1, 2):
                if theory == "classical":
                    g = np.eye(4)[rng.permutation(4)]
                else:
                    g = _haar(rng, 4, self.complex)
                self.gates.append((layer, i, g))
        # per-system preparation test and measurement, two branches each
        self.preps: list[tuple[np.ndarray, np.ndarray]] = []
        self.effects: list[tuple[np.ndarray, np.ndarray]] = []
        if closed:
            for _ in range(n):
                p = rng.uniform(0.2, 0.8)
                if theory == "classical":
                    a, b = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
                    e = rng.uniform(0.1, 0.9, size=2)
                else:
                    a, b = _density(rng, 2, self.complex), _density(rng, 2, self.complex)
                    u = _haar(rng, 2, self.complex)
                    e = u @ np.diag(rng.uniform(0.1, 0.9, size=2)) @ u.conj().T
                self.preps.append((p * a, (1 - p) * b))
                self.effects.append((e, (1.0 - e) if theory == "classical" else np.eye(2) - e))

    # -- text -----------------------------------------------------------

    def _payload(self, m: np.ndarray, role: str) -> str:
        if self.theory == "classical":
            return f"{'stoch' if role == 'gate' else 'vec'}={_fmt(m, False)}"
        body = _fmt(m, self.complex)
        return f"kraus=[{body}]" if role == "gate" else f"dens={body}"

    def text(self) -> str:
        n = self.n
        q = [f"Q{i}" for i in range(n)]
        lines = [f"theory {self.theory}"] + [f"system {s} dim=2" for s in q]
        layers: dict[int, dict[int, str]] = {}
        for k, (layer, i, g) in enumerate(self.gates):
            name = f"g{k}"
            lines.append(f"box {name} : {q[i]} * {q[i + 1]} -> {q[i]} * {q[i + 1]} = "
                         f"{self._payload(g, 'gate')}")
            layers.setdefault(layer, {})[i] = name
        terms = []
        for layer in range(LAYERS):
            row, i = [], 0
            while i < n:
                if i in layers[layer]:
                    row.append(layers[layer][i])
                    i += 2
                else:
                    row.append(f"id({q[i]})")
                    i += 1
            terms.append("(" + " * ".join(row) + ")")
        lines.append("circuit ladder = " + " ; ".join(terms))
        if self.closed:
            for i, ((a, b), (e0, e1)) in enumerate(zip(self.preps, self.effects)):
                lines.append(f"test prep{i} : I -> {q[i]} outcomes={{0,1}} "
                             f"{{ 0: {self._payload(a, 'state')}; 1: {self._payload(b, 'state')} }}")
                lines.append(f"test meas{i} : {q[i]} -> I outcomes={{0,1}} "
                             f"{{ 0: {self._payload(e0, 'effect')}; 1: {self._payload(e1, 'effect')} }}")
            preps = " * ".join(f"prep{i}" for i in range(n))
            meas = " * ".join(f"meas{i}" for i in range(n))
            lines.append(f"circuit run = ({preps}) ; ladder ; ({meas})")
        return "\n".join(lines) + "\n"

    # -- references -----------------------------------------------------

    def operator(self) -> np.ndarray:
        """The ladder as one 2^n x 2^n matrix (unitary, orthogonal or permutation)."""
        n = self.n
        total = np.eye(2 ** n)
        for _, i, g in self.gates:
            total = np.kron(np.kron(np.eye(2 ** i), g), np.eye(2 ** (n - i - 2))) @ total
        return total

    def check_eval(self, report: dict) -> str | None:
        word = "*".join(f"Q{i}" for i in range(self.n))
        if (report.get("command"), report.get("input"), report.get("output")) != ("eval", word, word):
            return f"eval report header is {report.get('command')!r} {report.get('input')!r}"
        t = np.asarray(report["transfer"], dtype=float)
        u = self.operator()
        if self.theory == "classical":
            return None if np.array_equal(t, u) else "classical transfer differs from the gate product"
        d = 2 ** self.n
        if self.theory == "quantum":
            dim = d * d
            tr1 = abs(np.trace(u)) ** 2
            tr2 = abs(np.trace(u @ u)) ** 2
        else:
            dim = d * (d + 1) // 2
            tr1 = (np.trace(u) ** 2 + np.trace(u @ u)) / 2
            u2 = u @ u
            tr2 = (np.trace(u2) ** 2 + np.trace(u2 @ u2)) / 2
        if t.shape != (dim, dim):
            return f"transfer has shape {t.shape}, expected {(dim, dim)}"
        tol = 1e-9
        checks = {
            "orthogonality": float(np.max(np.abs(t @ t.T - np.eye(dim)))),
            "trace": abs(np.trace(t) - tr1),
            "trace of square": abs(np.trace(t @ t) - tr2),
            "frobenius": abs(float(np.sum(t * t)) - dim),
        }
        bad = {k: v for k, v in checks.items() if not v <= tol}
        return f"transfer invariants off: {bad}" if bad else None

    def distribution(self) -> dict[str, float]:
        """Outcome probabilities keyed by the program's composite label format."""
        n, u = self.n, self.operator()
        probs: dict[str, float] = {}
        for bits in np.ndindex(*(2,) * n):
            factors = [self.preps[i][b] for i, b in enumerate(bits)]
            if self.theory == "classical":
                state = u @ _kron_all(factors)
            else:
                rho = _kron_all(factors)
                state = u @ rho @ u.conj().T
            for out in np.ndindex(*(2,) * n):
                e_all = _kron_all([self.effects[i][o] for i, o in enumerate(out)])
                if self.theory == "classical":
                    probs[f"({_label(bits)},{_label(out)})"] = float(e_all @ state)
                else:
                    probs[f"({_label(bits)},{_label(out)})"] = float(np.real(np.trace(e_all @ state)))
        return probs

    def check_prob(self, report: dict) -> str | None:
        want = self.distribution()
        if set(report) != set(want):
            return f"prob labels differ: {len(report)} reported, {len(want)} expected"
        worst = max(abs(float(report[k]) - v) for k, v in want.items())
        return None if worst <= 1e-10 else f"prob differs from the reference by {worst:.3e}"


def _kron_all(factors: list[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def _label(bits: tuple[int, ...]) -> str:
    """Left-nested product label, as ``a * b * c`` composes tests."""
    text = str(bits[0])
    for b in bits[1:]:
        text = f"({text},{b})"
    return text
