"""The benchmark's tracer still binds every function it names.

``perfbench/tracing.py`` patches optlab's functions by name; a refactor that
renames or unbinds one would leave its layer silently empty in a traced
benchmark run.  This loads the tracer from its file, as the benchmark does,
and installs it over the CLI.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import optlab.cli

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_binds_every_traced_name_and_counts_the_sampled_trials():
    tracing = load_tracing()
    for _, module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_references() == []
        argv = ["audit", str(ROOT / "tests" / "fixtures" / "three_systems.opt"),
                "--axiom", "causality", "--trials", "300"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert optlab.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracing.layer_metrics(tracer.spans, 1)["audit.trials"] == 300
    assert tracer.unwrapped_references()  # uninstalled: the originals are back
