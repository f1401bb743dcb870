"""optlab benchmark: four CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload ladder-eval --seed 1 --seconds 15 --trace 0

Every op is one ``optlab`` command, run in this process through
``optlab.cli.main(argv)`` with its standard output captured, and checked
against an answer the benchmark works out itself.  After one warm-up pass, a
run repeats whole passes over the workload's fixed op list, at least three,
until ``--seconds`` of op time is spent.  Times are scaled to a reference
pace of the machine, measured by a probe timed after every op (``pace.py``),
because a shared host changes speed by up to 1.5 times for minutes on end;
the wall-clock figures are printed and recorded beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with spans recorded around every public function of
each module, and reports the per-layer metrics per pass plus the tracing
overhead.  The last line of standard output is the JSON result; the full
record (machine, input digest, every metric) and the spans are written under
``.bench_out/``.  The exit code is 0 when every op agreed with its answer, 1
when one did not, and 2 when the program could not be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread, set before numpy loads.  On a few shared cores a second
# thread makes every matrix product wait for the busier core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import audits  # noqa: E402
import fixtures  # noqa: E402
import machine  # noqa: E402
import pace  # noqa: E402
from ladders import THEORIES, Ladder  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics, layers_seen  # noqa: E402

SETUP_REPEATS = 7
SETUP_PROBES = 5  # probes before and after each import, for its pace
MIN_PASSES = 3  # each op runs at least this often in a measured phase

# (theory, n) -> ladders per pass.  Quantum n=5 eval is left out (5 s per op, mostly
# serializing a 24 MB matrix), so the L3-sized kernels come from quantum-real n=5
# here and from quantum n=5 in ladder-prob.  The counts put the median and the 90th
# percentile inside one cost class each, away from a class boundary where they
# would jump between classes from run to run.  The 90th percentile falls inside
# the quantum n=4 class (1 MB kernels, 1.5 MB of JSON out), four ops from its
# cheap end; quantum-real n=4 ops swing with the machine more than the pace
# probe does, so they are fewer.
EVAL_MIX = {
    "quantum": {2: 12, 3: 12, 4: 16},
    "quantum-real": {2: 12, 3: 12, 4: 4, 5: 1},
    "classical": {2: 12, 3: 12, 4: 12, 5: 12},
}
PROB_MIX = {  # quantum n=3 is the median's class and quantum n=4 the 90th percentile's
    "quantum": {2: 12, 3: 30, 4: 14, 5: 1},
    "quantum-real": {2: 12, 3: 12, 4: 8, 5: 1},
    "classical": {2: 12, 3: 12, 4: 8, 5: 1},
}
AUDIT_TRIALS = (20, 40, 80)
AUDIT_REPEATS = 6  # ops per (theory, axiom, trials) class; their seeds vary the work

# layers each workload is meant to load; the traced run fails if one records no span
COVERAGE = {
    "ladder-eval": {"cli", "dsl", "backends", "evaluator"},
    "ladder-prob": {"dsl", "backends", "evaluator"},
    "audit-sampled": {"sampling", "tomography", "audit"},
    "fixtures-cli": {"cli", "dsl", "backends", "evaluator", "tomography", "audit"},
}

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
}


@dataclass
class Op:
    group: str  # ops of one group cost about the same
    filename: str
    text: str
    args: list[str]  # command line after the file
    code: int  # expected exit code
    check: Callable[[dict], str | None]  # the parsed report -> a problem, or None

    def argv(self, workdir: Path) -> list[str]:
        return [self.args[0], str(workdir / self.filename)] + self.args[1:]


# -- workloads -----------------------------------------------------------------


def _ladders(seed: int, mix: dict, closed: bool) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for theory, sizes in mix.items():
        for n, count in sizes.items():
            for _ in range(count):
                lad = Ladder(rng, theory, n, closed)
                if closed:
                    args, check = ["prob", "--test-circuit", "run"], lad.check_prob
                else:
                    args, check = ["eval", "--circuit", "ladder"], lad.check_eval
                ops.append(Op(f"{theory}/n{n}", "", lad.text(), args, 0, check))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    for i, op in enumerate(ops):
        op.filename = f"op{i:03d}.opt"
    return ops


def _audit_sampled(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for theory in THEORIES:
        plan = [(axiom, t) for axiom in ("faithfulness", "causality", "purification")
                for t in AUDIT_TRIALS]
        # local tomography ignores --trials; two of them per repeat move the 90th
        # percentile off the boundary between two faithfulness classes
        plan += [("local-tomography", AUDIT_TRIALS[0])] * 2
        for axiom, trials in plan * AUDIT_REPEATS:
            args = ["audit", "--axiom", axiom, "--trials", str(trials),
                    "--seed", str(int(rng.integers(2 ** 31)))]
            check = lambda rep, th=theory, ax=axiom, t=trials: audits.check(th, ax, t, rep)
            ops.append(Op(f"{theory}/{axiom}/{trials}", f"op{len(ops):03d}.opt",
                          audits.theory_text(rng, theory), args,
                          audits.KNOWN[theory][axiom][0], check))
    return ops


def _fixtures_cli(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for name, rows in fixtures.TABLE.items():
        text = (HERE / "fixtures" / f"{name}.opt").read_text(encoding="utf-8")
        for line, code, verdict, numbers in rows:
            args = line.split() + ["--seed", str(int(rng.integers(2 ** 31)))]
            check = lambda rep, cmd=args[0], v=verdict, num=numbers: fixtures.check(cmd, rep, v, num)
            ops.append(Op(f"{name}/{args[0]}", f"{name}.opt", text, args, code, check))
    return ops


WORKLOADS = {
    "ladder-eval": lambda seed: _ladders(seed, EVAL_MIX, closed=False),
    "ladder-prob": lambda seed: _ladders(seed, PROB_MIX, closed=True),
    "audit-sampled": _audit_sampled,
    "fixtures-cli": _fixtures_cli,
}


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update("\0".join([op.filename, *op.args, op.text, ""]).encode())
    return h.hexdigest()


# -- measuring -----------------------------------------------------------------


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import optlab.cli: (scaled to
    the reference pace, wall)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", "import optlab.cli"]
    scaled, wall = [], []
    for i in range(SETUP_REPEATS + 1):  # the first run also compiles bytecode; not counted
        probes = [pace.probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        probes += [pace.probe() for _ in range(SETUP_PROBES)]
        if proc.returncode != 0:
            sys.stderr.write(f"cannot import optlab.cli from {ROOT / 'src'}:\n{proc.stderr}")
            sys.exit(2)
        if i:
            scaled.append(elapsed / pace.of(probes))
            wall.append(elapsed)
    return statistics.median(scaled), statistics.median(wall)


class Runner:
    """Runs ops through the CLI entry point and checks every report."""

    def __init__(self, main, ops: list[Op], workdir: Path) -> None:
        self.main, self.ops, self.workdir = main, ops, workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.verified: dict[int, bytes] = {}  # op index -> sha256 of output that passed

    def run(self, index: int, main=None) -> tuple[float, int]:
        """One op: (wall seconds, stdout bytes).  Checking is outside the timing.

        Output equal to one already checked for the same op passes without
        parsing again; the program promises byte-identical output per input.
        """
        op = self.ops[index]
        buf = io.StringIO()
        argv = op.argv(self.workdir)
        problem = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = (main or self.main)(argv)
        except SystemExit as e:  # argparse rejects a command line this way
            code = e.code
        except Exception:
            code, problem = None, "crashed:\n" + traceback.format_exc()
        elapsed = time.perf_counter() - t0
        out = buf.getvalue()
        seen = hashlib.sha256(out.encode()).digest()
        if problem is None and code != op.code:
            problem = f"exit code {code}, expected {op.code}: {out[:200]!r}"
        if problem is None and self.verified.get(index) != seen:
            try:
                problem = op.check(json.loads(out))
            except (ValueError, KeyError, TypeError, IndexError) as e:
                problem = f"report does not parse or lacks a field: {e!r}"
            if problem is None:
                self.verified[index] = seen
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{op.group} {' '.join(op.args)}: {problem}")
        return elapsed, len(out)

    def passes(self, seconds: float, tracer=None, least: int = MIN_PASSES) -> dict:
        """At least ``least`` whole passes over the op list, and more until
        ``seconds`` of op time is spent.

        Each op's time is scaled to the reference pace by the pace of its
        pass, from a probe timed after every op (see ``pace.py``); an op's
        latency is the median of its scaled runs.  The same figures from
        unscaled wall times are under ``"wall"``.
        """
        main = tracer.wrap(self.main, "op") if tracer is not None else None
        runs: list[list[float]] = [[] for _ in self.ops]
        paces: list[float] = []
        out_bytes, passes, spent = 0, 0, 0.0
        while passes < least or spent < seconds:
            probes = []
            for i in range(len(self.ops)):
                if tracer is not None:
                    tracer.op = passes * len(self.ops) + i
                elapsed, size = self.run(i, main)
                probes.append(pace.probe())
                runs[i].append(elapsed)
                spent += elapsed
                out_bytes += size
            paces.append(pace.of(probes))
            passes += 1
        typical = [statistics.median(t / p for t, p in zip(r, paces)) for r in runs]
        groups: dict[str, list[float]] = {}
        for op, t in zip(self.ops, typical):
            groups.setdefault(op.group, []).append(t * 1e3)
        return {
            **_latency(typical), "wall": _latency([statistics.median(r) for r in runs]),
            "passes": passes, "paces": paces, "stdout_bytes": out_bytes,
            "group_p50_ms": {g: statistics.median(v) for g, v in sorted(groups.items())},
        }


def _latency(typical: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles over per-op latencies in seconds."""
    return {
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_p90_ms": statistics.quantiles(typical, n=10, method="inclusive")[8] * 1e3,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    setup = measure_setup()
    sys.path.insert(0, str(ROOT / "src"))
    import optlab.cli

    build = WORKLOADS[args.workload]
    ops = build(args.seed)
    inputs_sha256 = digest(ops)
    checks = {
        "same seed, same inputs": digest(build(args.seed)) == inputs_sha256,
        "other seed, other inputs": digest(build(args.seed + 1)) != inputs_sha256,
    }
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    try:
        for op in ops:
            (workdir / op.filename).write_text(op.text, encoding="utf-8")
        runner = Runner(optlab.cli.main, ops, workdir)
        for i in range(len(ops)):  # one untimed pass fills caches and checks every op
            runner.run(i)
        if args.trace:
            metrics, units, extra = _traced(runner, args, checks)
        else:
            metrics, units, extra = _untraced(runner, args, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not runner.failures and all(checks.values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": runner.attempted,
        "failed": len(runner.failures), "error_rate": len(runner.failures) / runner.attempted,
        "input_sha256": inputs_sha256, "checks": checks,
        "failures": runner.failures[:20], "machine": machine.describe(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, **extra,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in runner.failures[:20]:
        print("FAILED", failure)
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops per pass, inputs sha256 {inputs_sha256}")
    print(f"error_rate {record['error_rate']:.6g} ({len(runner.failures)} of {runner.attempted} ops)")
    for k, v in metrics.items():
        print(f"{k:32s} {v:.6g} {units[k]}")
    for k, v in extra.get("wall", {}).items():
        print(f"{k + ' (wall clock)':32s} {v:.6g} {units[k]}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": record["metrics"]}))
    return 0 if correct else 1


def _untraced(runner: Runner, args, setup: tuple[float, float]):
    res = runner.passes(args.seconds)
    metrics = {"setup_s": setup[0], "ops_per_s": res["ops_per_s"], "op_p50_ms": res["op_p50_ms"],
               "op_p90_ms": res["op_p90_ms"],
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    extra = {"latency_samples": len(runner.ops), "runs_per_op": res["passes"],
             "pass_paces": res["paces"], "wall": {"setup_s": setup[1], **res["wall"]},
             "group_p50_ms": res["group_p50_ms"]}
    return metrics, END_TO_END, extra


def _traced(runner: Runner, args, checks: dict):
    # per-layer metrics are per pass, and carry no bound: one pass per half will do
    plain = runner.passes(args.seconds / 2, least=1)
    tracer = Tracer()
    tracer.install()
    try:
        missed = tracer.unwrapped_references()
        traced = runner.passes(args.seconds / 2, tracer, least=1)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, traced["passes"])
    rate = statistics.median(traced["paces"])  # layer times too are at the reference pace
    for name, (unit, _) in PER_LAYER.items():
        if unit == "s":
            metrics[name] /= rate
        elif unit == "1/s":
            metrics[name] *= rate
    metrics["cli.stdout_bytes"] = traced["stdout_bytes"] / traced["passes"]
    metrics["trace.overhead_ratio"] = plain["ops_per_s"] / traced["ops_per_s"]
    seen = layers_seen(tracer.spans)
    checks["traced every optlab binding"] = not missed
    checks["every layer this workload loads recorded a span"] = COVERAGE[args.workload] <= seen
    tracer.write(ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-spans.jsonl")
    extra = {"layers_seen": sorted(seen), "missed_bindings": missed, "spans": len(tracer.spans),
             "traced_passes": traced["passes"], "untraced_passes": plain["passes"],
             "traced_paces": traced["paces"]}
    metrics = {k: metrics[k] for k in PER_LAYER}
    return metrics, {k: u for k, (u, _) in PER_LAYER.items()}, extra


if __name__ == "__main__":
    sys.exit(main())
