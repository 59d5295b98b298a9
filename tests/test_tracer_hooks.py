"""The benchmark tracer's hooks against the names they patch: a renamed or
unimported traced name fails here, without the traced benchmark runs."""
import importlib.util
import sys
import time
from pathlib import Path

from cachegeo import experiments
from cachegeo.experiments import ExperimentConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    """perfbench/tracing.py as a module, leaving no bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_interference_run_counts_trials_and_rows(monkeypatch, tmp_path):
    tracer = load_tracing(monkeypatch).Tracer()
    start = time.perf_counter()
    tracer.install()
    patched = list(tracer._restore)  # (owner, attr, original) of every patched name
    try:
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
        config = ExperimentConfig(scenario="simulate", channel="interference", trials=64,
                                  output=str(tmp_path / "out.csv"))
        assert experiments.run(config) == 0
        metrics = tracer.summary(time.perf_counter() - start)["metrics"]
    finally:
        tracer.uninstall()
    assert metrics["simulator.interference.instantaneous.trials"] == 64
    assert metrics["placement.cache_matrix.rows"] > 0
    assert metrics["experiments.rows_written"] == 1
    assert patched and all(owner.__dict__[attr] is original for owner, attr, original in patched)
