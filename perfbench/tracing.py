"""Span recording around optlab's public functions, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records
a span (id, parent, name, op, start, end, raised, counters) in memory.  A
module-level function is replaced in every ``optlab`` module that holds it,
which catches by-name imports such as ``cli.dumps_canonical``; a method is
replaced on the class that defines it.  ``uninstall`` puts the originals
back.  ``layer_metrics`` turns the spans into the per-layer metrics, where a
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# -- counters taken from a call's arguments and result -------------------------


def _nbytes(*arrays) -> float:
    return float(sum(a.nbytes for a in arrays))


def _matmul_flops(m: int, k: int, n: int, complex_: bool) -> float:
    return float((8 if complex_ else 2) * m * k * n)


# each probe returns (flops, bytes of operands and result, result bytes), from shapes alone


def _seq_probe(args, kwargs, out):
    first, second = args[1], args[2]
    a, b = second.kernel, first.kernel
    cplx = a.dtype.kind == "c" or b.dtype.kind == "c"
    return _matmul_flops(a.shape[0], a.shape[1], b.shape[1], cplx), _nbytes(a, b, out), _nbytes(out)


def _par_probe(args, kwargs, out):
    left, right = args[1], args[2]
    # one (real or complex) multiply per entry of the Kronecker product
    flops = float(out.size * (6 if out.dtype.kind == "c" else 1))
    return flops, _nbytes(left.kernel, right.kernel, out), _nbytes(out)


def _build_probe(args, kwargs, out):
    return 0.0, _nbytes(out), _nbytes(out)


def _transfer_probe(args, kwargs, out):
    k, t = args[1].kernel, out.matrix
    rows, cols = t.shape
    if k.shape == t.shape:  # classical: the kernel is the transfer matrix
        return 0.0, _nbytes(k, t), _nbytes(t)
    # quantum: basis^H (rows x K0) @ kernel (K0 x K1) @ basis (K1 x cols), left to right
    cplx = k.dtype.kind == "c"
    flops = _matmul_flops(rows, k.shape[0], k.shape[1], cplx) + _matmul_flops(rows, k.shape[1], cols, cplx)
    moved = k.itemsize * (rows * k.shape[0] + k.shape[1] * cols) + _nbytes(k, t)
    return flops, moved, _nbytes(t)


def _parse_probe(args, kwargs, out):
    return len(out.statements), len(args[0].encode())


def _branches_probe(args, kwargs, out):
    return len(args[0].branches)


def _causality_trials(args, kwargs, out):
    return out.tests_checked


def _faithfulness_trials(args, kwargs, out):
    return out.trials


def _one(args, kwargs, out):
    return 1


# -- what is traced -------------------------------------------------------------

# (span name, module, attribute path, probe)
FUNCTIONS = [
    ("cli.serialize", "optlab.serialize", "dumps_canonical", None),
    ("dsl.parse", "optlab.dsl", "parse", _parse_probe),
    ("dsl.bind", "optlab.dsl", "bind", None),
    ("evaluator.evaluate", "optlab.evaluator", "evaluate", None),
    ("evaluator.evaluate_channel", "optlab.evaluator", "evaluate_channel", None),
    ("evaluator.run_test_circuit", "optlab.evaluator", "run_test_circuit", _branches_probe),
    ("tomography.equivalent", "optlab.tomography", "equivalent", None),
    ("tomography.local_tomography", "optlab.tomography", "local_tomography_check", _one),
    ("tomography.faithfulness", "optlab.tomography", "verify_faithfulness", _faithfulness_trials),
    ("audit.causality", "optlab.audit.causality", "check_causality", _causality_trials),
    ("audit.purify", "optlab.audit.purification", "purify_state", _one),
    ("audit.steer", "optlab.audit.purification", "steering_measurement", _one),
    ("audit.dilate", "optlab.audit.dilation", "stinespring_dilate", _one),
    ("audit.niwd", "optlab.audit.dilation", "niwd_check", _one),
]

BACKEND_METHODS = {
    "compile_payload": ("backends.compile", None),
    "certify_channel": ("backends.certify", None),
    "kernel_seq": ("backends.kernel_seq", _seq_probe),
    "kernel_par": ("backends.kernel_par", _par_probe),
    "kernel_swap": ("backends.kernel_swap", _build_probe),
    "kernel_identity": ("backends.kernel_identity", _build_probe),
    "transfer_of": ("backends.transfer_of", _transfer_probe),
}
KERNEL_SPANS = {"backends.kernel_seq", "backends.kernel_par", "backends.kernel_swap",
                "backends.kernel_identity", "backends.transfer_of"}
# the outermost of these spans carry the audit trials (a count each)
TRIAL_SPANS = {"audit.causality", "audit.purify", "audit.steer", "audit.dilate",
               "audit.niwd", "tomography.faithfulness", "tomography.local_tomography"}
AUDIT_SPANS = {"audit.causality", "audit.purify", "audit.steer", "audit.dilate", "audit.niwd"}

LAYERS = ("cli", "dsl", "backends", "evaluator", "sampling", "tomography", "audit")

# every per-layer metric a traced run reports: name -> (unit, which way is better)
PER_LAYER = {
    "cli.serialize_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "dsl.parse_s": ("s", "lower"),
    "dsl.bind_s": ("s", "lower"),
    "dsl.statements": ("count", "lower"),
    "dsl.input_bytes": ("bytes", "lower"),
    "dsl.errors": ("count", "lower"),
    "backends.compile_s": ("s", "lower"),
    "backends.certify_s": ("s", "lower"),
    "backends.compiles": ("count", "lower"),
    "backends.kernel_seq_s": ("s", "lower"),
    "backends.kernel_par_s": ("s", "lower"),
    "backends.kernel_swap_s": ("s", "lower"),
    "backends.kernel_identity_s": ("s", "lower"),
    "backends.transfer_of_s": ("s", "lower"),
    "backends.kernel_flops": ("flop", "lower"),
    "backends.kernel_bytes": ("bytes", "lower"),
    "backends.max_kernel_bytes": ("bytes", "lower"),
    "evaluator.evaluate_channel_s": ("s", "lower"),
    "evaluator.nodes": ("count", "lower"),
    "evaluator.memo_hit_ratio": ("ratio", "higher"),
    "evaluator.run_test_circuit_s": ("s", "lower"),
    "evaluator.branches": ("count", "lower"),
    "sampling.draw_s": ("s", "lower"),
    "sampling.draws": ("count", "lower"),
    "tomography.faithfulness_s": ("s", "lower"),
    "tomography.local_tomography_s": ("s", "lower"),
    "tomography.equivalent_s": ("s", "lower"),
    "audit.causality_s": ("s", "lower"),
    "audit.purify_s": ("s", "lower"),
    "audit.dilate_s": ("s", "lower"),
    "audit.steer_s": ("s", "lower"),
    "audit.niwd_s": ("s", "lower"),
    "audit.trials": ("count", "higher"),
    "audit.trials_per_s": ("1/s", "higher"),
    "audit.errors": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, op, start, end, raised, counters)
        self.stack: list[int] = []
        self.next_id = 0
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, probe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised, out = True, None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                counters = probe(args, kwargs, out) if probe is not None and not raised else None
                spans.append((sid, parent, name, self.op, start, end, raised, counters))

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from optlab.backends import BACKENDS
        from optlab.sampling import Sampler

        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "optlab"]
        for name, module, attr, probe in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self.wrap(original, name, probe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        classes = {c for b in BACKENDS.values() for c in b.__mro__}
        for cls in classes:
            for method, (name, probe) in BACKEND_METHODS.items():
                if method in cls.__dict__:
                    self._set(cls, method, self.wrap(cls.__dict__[method], name, probe))
        for method, fn in list(vars(Sampler).items()):
            if callable(fn) and not method.startswith("_"):
                self._set(Sampler, method, self.wrap(fn, "sampling.draw"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def unwrapped_references(self) -> list[str]:
        """Names in optlab modules that still point at a traced original."""
        originals = {}
        for _, module, attr, _ in FUNCTIONS:
            fn = getattr(importlib.import_module(module), attr)
            originals[id(getattr(fn, "__wrapped__", fn))] = f"{module}.{attr}"
        missed = []
        for n, mod in list(sys.modules.items()):
            if n.split(".")[0] != "optlab":
                continue
            for key, value in vars(mod).items():
                if id(value) in originals and not hasattr(value, "__wrapped__"):
                    missed.append(f"{n}.{key}")
        return missed

    def write(self, path) -> None:
        """One JSON array per line: id, parent, name, op, start, end, raised, counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[tuple], passes: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, per pass over the workload's op list."""
    child_time: dict[int, float] = defaultdict(float)
    parent_of: dict[int, int] = {}
    name_of: dict[int, str] = {}
    spans_by_id: dict[int, tuple] = {}
    for span in spans:
        sid, parent, name, _, start, end, _, _ = span
        child_time[parent] += end - start
        parent_of[sid] = parent
        name_of[sid] = name
        spans_by_id[sid] = span

    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    raised: dict[str, int] = defaultdict(int)
    counters: dict[str, list] = defaultdict(list)
    for sid, _, name, _, start, end, err, cnt in spans:
        self_time[name] += (end - start) - child_time.get(sid, 0.0)
        calls[name] += 1
        raised[name] += err
        if cnt is not None:
            counters[name].append(cnt)

    # evaluate_channel calls with a kernel call somewhere beneath them
    with_kernel: set[int] = set()
    for sid, name in name_of.items():
        if name not in KERNEL_SPANS:
            continue
        up = parent_of[sid]
        while up != -1 and up not in with_kernel:
            if name_of[up] == "evaluator.evaluate_channel":
                with_kernel.add(up)  # marked spans have all their ancestors marked
            up = parent_of[up]
    ec_calls = calls["evaluator.evaluate_channel"]

    def outermost(names: set[str]) -> list[int]:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        found = []
        for sid, name in name_of.items():
            if name in names:
                up = parent_of[sid]
                while up != -1 and name_of[up] not in names:
                    up = parent_of[up]
                if up == -1:
                    found.append(sid)
        return found

    # a purification inside a faithfulness audit is part of that trial, not one more
    trial_spans = [spans_by_id[sid] for sid in outermost(TRIAL_SPANS)]
    trials = sum(cnt for *_, cnt in trial_spans if cnt is not None)
    trial_time = sum(end - start for _, _, _, _, start, end, _, _ in trial_spans)
    draws = len(outermost({"sampling.draw"}))
    kernel = [c for n in KERNEL_SPANS for c in counters[n]]
    parse = counters["dsl.parse"]

    per_pass = {
        "cli.serialize_s": self_time["cli.serialize"],
        "dsl.parse_s": self_time["dsl.parse"],
        "dsl.bind_s": self_time["dsl.bind"],
        "dsl.statements": sum(c[0] for c in parse),
        "dsl.input_bytes": sum(c[1] for c in parse),
        "dsl.errors": raised["dsl.parse"] + raised["dsl.bind"],
        "backends.compile_s": self_time["backends.compile"],
        "backends.certify_s": self_time["backends.certify"],
        "backends.compiles": calls["backends.compile"],
        "backends.kernel_seq_s": self_time["backends.kernel_seq"],
        "backends.kernel_par_s": self_time["backends.kernel_par"],
        "backends.kernel_swap_s": self_time["backends.kernel_swap"],
        "backends.kernel_identity_s": self_time["backends.kernel_identity"],
        "backends.transfer_of_s": self_time["backends.transfer_of"],
        "backends.kernel_flops": sum(c[0] for c in kernel),
        "backends.kernel_bytes": sum(c[1] for c in kernel),
        "evaluator.evaluate_channel_s": self_time["evaluator.evaluate_channel"],
        "evaluator.nodes": ec_calls,
        "evaluator.run_test_circuit_s": self_time["evaluator.run_test_circuit"],
        "evaluator.branches": sum(counters["evaluator.run_test_circuit"]),
        "sampling.draw_s": self_time["sampling.draw"],
        "sampling.draws": draws,
        "tomography.faithfulness_s": self_time["tomography.faithfulness"],
        "tomography.local_tomography_s": self_time["tomography.local_tomography"],
        "tomography.equivalent_s": self_time["tomography.equivalent"],
        "audit.causality_s": self_time["audit.causality"],
        "audit.purify_s": self_time["audit.purify"],
        "audit.dilate_s": self_time["audit.dilate"],
        "audit.steer_s": self_time["audit.steer"],
        "audit.niwd_s": self_time["audit.niwd"],
        "audit.trials": trials,
        "audit.errors": sum(raised[n] for n in AUDIT_SPANS),
    }
    metrics = {k: v / passes for k, v in per_pass.items()}
    metrics["backends.max_kernel_bytes"] = max((c[2] for c in kernel), default=0.0)
    metrics["evaluator.memo_hit_ratio"] = (1.0 - len(with_kernel) / ec_calls) if ec_calls else 0.0
    metrics["audit.trials_per_s"] = trials / trial_time if trial_time else 0.0
    return metrics


def layers_seen(spans: list[tuple]) -> set[str]:
    """Layers with at least one span; the per-op root span belongs to none."""
    return {name.split(".")[0] for _, _, name, *_ in spans} & set(LAYERS)
