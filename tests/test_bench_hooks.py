"""bench/child.py traces colmode functions by name and reads their arguments
by name; a rename in colmode, or a call that bypasses a traced function, would
silently zero its per-layer metrics.  These checks read bench/child.py as it
stands, and run it on one small command; they run no benchmark."""

import ast
import collections
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from colmode.cli import save_record
from colmode.gaussian_core import closed_form_dynamics
from colmode.trajectory import TrajectoryConfig, sample_exact_ou

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "bench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _load_child()


def _argument_reads() -> dict[str, list[tuple[str, int]]]:
    """Per hook function: each (parameter name, position) it reads through
    kwargs.get("name", args[position] ...)."""
    reads: dict[str, list[tuple[str, int]]] = {}
    for fn in ast.parse(CHILD.read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "kwargs"):
                continue
            name, fallback = node.args
            (position,) = [sub.slice.value for sub in ast.walk(fallback)
                           if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                           and sub.value.id == "args"]
            reads.setdefault(fn.name, []).append((name.value, position))
    return reads


READS = _argument_reads()


@pytest.mark.parametrize("module, function, hook", child.TRACED,
                         ids=[f"{m}.{f}" for m, f, _ in child.TRACED])
def test_traced_function_resolves_with_the_parameters_its_hook_reads(module, function, hook):
    fn = getattr(importlib.import_module(f"colmode.{module}"), function)
    assert inspect.isfunction(fn)
    params = list(inspect.signature(fn).parameters)
    for name, position in READS.get(getattr(hook, "__name__", None), []):
        assert params[position] == name, (name, position, params)


def test_the_argument_reads_are_found():
    """The parse above sees the reads it must check, so the test cannot pass
    by finding none."""
    hooks = {f"{m}.{f}": hook.__name__ for m, f, hook in child.TRACED if hook}
    assert ("path", 0) in READS[hooks["cli.write_csv"]]
    assert ("path", 0) in READS[hooks["cli.sha256_file"]]
    assert {("out_dir", 0), ("name", 1)} <= set(READS[hooks["cli.finish_manifest"]])


def _traced_spans(argv, tmp_path) -> collections.Counter:
    """Span counts per traced function of bench/child.py running argv, traced,
    in its own interpreter on this checkout's colmode."""
    result = tmp_path / "result.json"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"argv": argv, "trace": True, "result": str(result)}))
    env = {k: v for k, v in os.environ.items() if not k.startswith("COLMODE_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, str(CHILD), str(spec)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["rc"] == 0
    assert Path(report["colmode_file"]).resolve().parent == (ROOT / "src" / "colmode").resolve()
    return collections.Counter(name for name, *_ in report["spans"])


def test_traced_analyze_spans_each_pipeline_layer_once_per_record(tmp_path):
    """bench/child.py, run traced in its own interpreter on a two-record
    analyze, records one span of each per-record pipeline layer per record."""
    A, D = closed_form_dynamics(0.25, 1.0, 0.0)
    paths = []
    for seed in (1, 2):
        cfg = TrajectoryConfig(dt=0.05, n_steps=4000, master_seed=seed)
        record = sample_exact_ou(A, D, cfg, meta={"kappa": 1.0})
        npy, _ = save_record(record, tmp_path / f"r{seed}", "npy", "m.json")
        paths.append(str(npy))
    config = tmp_path / "analyze.json"
    config.write_text(json.dumps({"pipeline": {
        "bandwidth": 1.0, "integration_time": 10.0, "bootstrap_resamples": 20}}))
    spans = _traced_spans(
        ["analyze", *paths, "-c", str(config), "--out-dir", str(tmp_path / "out")], tmp_path
    )
    for name in ("pipeline.analyze_record", "pipeline.estimate_covariance",
                 "pipeline.witness_from_estimate"):
        assert spans[name] == 2, (name, spans)


def test_traced_converge_spans_each_pipeline_layer_per_record_and_cell(tmp_path):
    """A traced converge of 2 sweep cells and a 1-cell crossing at 2
    couplings, 2 runs each, draws 8 records: each passes analyze_record and
    estimate_covariance once, and each of the 4 cell ensembles is reduced by
    one witness_with_uncertainty.  A cell path that bypasses a traced layer
    fails here rather than zeroing that layer's bench metric."""
    config = tmp_path / "converge.json"
    config.write_text(json.dumps({
        "params": {"G": 0.25, "kappa_a": 1.0, "kappa_b": 1.0, "n_a": 0.0, "n_b": 0.0,
                   "preset": "CLOSED_FORM"},
        "master_seed": 7,
        "cells": [{"T": 8.0, "B": 1.0}, {"T": 16.0, "B": 1.0}],
        "runs_per_cell": 2,
        "segments_per_record": 4,
        "crossing": {"n": 0.5, "g_values": [0.1, 0.2], "cells": [{"T": 8.0, "B": 1.0}],
                     "runs_per_cell": 2, "segments_per_record": 4},
    }))
    spans = _traced_spans(
        ["converge", "-c", str(config), "--out-dir", str(tmp_path / "out")], tmp_path
    )
    assert spans["pipeline.analyze_record"] == 8, spans
    assert spans["pipeline.estimate_covariance"] == 8, spans
    assert spans["pipeline.witness_with_uncertainty"] == 4, spans
