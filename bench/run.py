"""colmode benchmark: time to a verdict through the public CLI.

Usage:
    python3 bench/run.py --workload {certify,converge,phase} --seed N \
        --seconds S --trace {0,1}

Run from the root of a colmode source tree; the program is taken from
``src/`` of that tree (no install step).  Every CLI command runs in a fresh
interpreter (``bench/child.py``) with ``--threads 1`` and BLAS pinned to one
thread, because every real CLI call is a fresh interpreter and the 4x4
kernels gain nothing from BLAS threads.  A run repeats the workload's
commands on the same seed-generated configs until ``--seconds`` have passed,
checks every command's outputs, and reports medians.

Workloads (why each was chosen):
  certify   simulate + analyze: the paper's verdict path on a few long
            records.  The exact-OU sampler, the null-model C search, the
            bootstrap witness and npy/SHA-256 I/O do most of their work here.
  converge  convergence sweep + crossing scan: many short records in memory,
            no null models, no bootstrap, negligible I/O.  Bootstrap, witness
            batching, null-model and I/O changes should not move it.
  phase     TMS phase diagram: no sampling; one Lyapunov solve and one
            validated exact-state witness per cell, one CSV row per cell.

End-to-end metrics (``--trace 0``): setup_s (interpreter start until
``colmode.cli`` is imported and the config parsed, median over every command
of the run), wall_s (median over iterations of the summed command times,
set-up excluded) and peak_rss_mb (median over iterations of the largest
command's peak RSS).  certify also prints simulate_s and analyze_s, and every
run prints error_rate = failed / attempted commands; the result line carries
failed and attempted.

Per-layer metrics (``--trace 1``): iterations alternate traced and untraced,
starting traced, and a run ends after an untraced one.  The traced ones give
calls and self time for each function in ``child.TRACED`` plus the counters
of ``child.COUNTERS``, as medians over traced iterations.  trace.overhead_s
is the median over consecutive (traced, untraced) pairs of the difference
of their summed command times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import COUNTERS, TRACED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
WORK_ROOT_NAME = ".bench_out"
COMMAND_TIMEOUT_S = 150

WORKLOADS = ("certify", "converge", "phase")

#: Shipped ensemble size of configs/simulate.json; certify runs a fraction.
SHIPPED_ENSEMBLE = 200

SIZES = {
    "full": {
        "certify": {"members": 20, "n_steps": 100_000, "restarts": 8, "max_evals": 2000,
                    "bootstrap": 1000},
        "converge": {"runs_per_cell": 16, "crossing_runs": 12},
        "phase": {"g_steps": 200, "n_steps": 200},
    },
    "smoke": {
        "certify": {"members": 3, "n_steps": 20_000, "restarts": 2, "max_evals": 200,
                    "bootstrap": 100},
        "converge": {"runs_per_cell": 4, "crossing_runs": 4},
        "phase": {"g_steps": 24, "n_steps": 12},
    },
}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]

#: Public functions wrapped by the traced run, as "<module>.<function>".
TRACED_FUNCTIONS = [f"{module}.{function}" for module, function, _ in TRACED]

PER_LAYER = [
    (f"{fn}.{kind}", unit)
    for fn in TRACED_FUNCTIONS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
] + list(COUNTERS.items()) + [
    ("pipeline.witness_from_estimate.per_record", "ratio"),
    ("null_models.mixture_state.per_restart", "ratio"),
    ("trace.overhead_s", "s"),
]


class SetupError(Exception):
    """The tree holds no runnable colmode; no result may be printed."""


# ---------------------------------------------------------------------------
# workload definitions: configs from the seed, commands, output checks


@dataclass
class Command:
    label: str
    out: str  # output directory, relative to the iteration directory
    argv: object  # callable(iter_dir) -> list[str] of CLI arguments
    check: object  # callable(out_dir) -> list[str] of failure messages


@dataclass
class Workload:
    configs: dict
    commands: list
    facts: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"colmode-bench:{workload}:{seed}")


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# manifest="):
        raise ValueError(f"{path.name}: missing manifest comment")
    return list(csv.DictReader(lines[1:]))


def _cli(command: str, cfg: Path, out: Path, *extra: str) -> list[str]:
    return [command, *extra, "-c", str(cfg), "--out-dir", str(out), "--threads", "1"]


def certify_workload(seed: int, cfg_dir: Path, size: dict, n_thermal: float = 0.0) -> Workload:
    rng = _rng("certify", seed)
    members = size["members"]
    simulate = {
        "params": {"G": 0.25, "kappa_a": 1.0, "kappa_b": 1.0, "n_a": n_thermal,
                   "n_b": n_thermal, "delta_a": 0.0, "delta_b": 0.0, "preset": "CLOSED_FORM"},
        "trajectory": {"dt": 0.01, "n_steps": size["n_steps"], "scheme": "EXACT_OU",
                       "master_seed": rng.getrandbits(32), "burn_in": 0},
        "ensemble": members,
        "format": "npy",
        "null_trio": {"enabled": True, "correlation": 0.7, "gain": 0.25,
                      "restarts": size["restarts"], "max_evals": size["max_evals"]},
    }
    analyze = {"pipeline": {"bandwidth": 1.0, "integration_time": 10.0, "demod_frequency": 0.0,
                            "bootstrap_resamples": size["bootstrap"],
                            "segment_statistic": "second_moment"}}
    record_names = [f"quantum_{k:04d}" for k in range(members)] + ["null_a", "null_b", "null_c"]

    def check_simulate(out: Path) -> list[str]:
        want = {f"{n}{ext}" for n in record_names for ext in (".npy", ".meta.json")}
        have = {p.name for p in out.iterdir() if not p.name.startswith("manifest_")}
        return [] if have == want else [f"simulate wrote {sorted(have ^ want)[:4]} unexpectedly"]

    def analyze_argv(iter_dir: Path) -> list[str]:
        records = [str(iter_dir / "records" / f"{n}.npy") for n in record_names]
        return _cli("analyze", cfg_dir / "analyze.json", iter_dir / "analysis", *records)

    def check_analyze(out: Path) -> list[str]:
        errors = []
        rows = _read_csv(out / "witness_distribution.csv")
        if sorted(r["file"] for r in rows) != sorted(f"{n}.npy" for n in record_names):
            errors.append(f"witness_distribution.csv has {len(rows)} rows, not one per record")
        quantum = json.loads((out / "witness_report.json").read_text())["groups"].get("QUANTUM")
        if quantum is None:
            errors.append("no QUANTUM group in witness_report.json")
        elif not (quantum["nu_minus"] < 0.5 - 3.0 * quantum["stderr_nu"]
                  and quantum["duan_sum"] < 2.0 - 3.0 * quantum["stderr_duan"]):
            errors.append(f"QUANTUM group not entangled at 3 sigma on both witnesses: {quantum}")
        for r in rows:
            if r["source"] == "QUANTUM":
                continue
            z = max((0.5 - float(r["nu_minus"])) / max(float(r["stderr_nu"]), 1e-12),
                    (2.0 - float(r["duan_sum"])) / max(float(r["stderr_duan"]), 1e-12))
            if not z < 4.5:
                errors.append(f"null record {r['file']} violates a bound at z = {z:.2f}")
        return errors

    return Workload(
        configs={"simulate.json": simulate, "analyze.json": analyze},
        commands=[
            Command("simulate", "records",
                    lambda d: _cli("simulate", cfg_dir / "simulate.json", d / "records"),
                    check_simulate),
            Command("analyze", "analysis", analyze_argv, check_analyze),
        ],
        facts={"certify_members": members, "certify_scale": members / SHIPPED_ENSEMBLE,
               "certify_shipped_members": SHIPPED_ENSEMBLE},
    )


def converge_workload(seed: int, cfg_dir: Path, size: dict) -> Workload:
    rng = _rng("converge", seed)
    n_cross = 0.5
    config = {
        "params": {"G": 0.25, "kappa_a": 1.0, "kappa_b": 1.0, "n_a": 0.0, "n_b": 0.0,
                   "preset": "CLOSED_FORM"},
        "master_seed": rng.getrandbits(32),
        "cells": [{"T": 50.0, "B": 0.04}, {"T": 100.0, "B": 0.04}, {"T": 100.0, "B": 0.08},
                  {"T": 200.0, "B": 0.08}, {"T": 400.0, "B": 0.08}, {"T": 400.0, "B": 0.16}],
        "runs_per_cell": size["runs_per_cell"],
        "segments_per_record": 24,
        "crossing": {"n": n_cross, "g_values": [0.10, 0.14, 0.18, 0.22],
                     "cells": [{"T": 8.0, "B": 1.0}, {"T": 16.0, "B": 2.0}],
                     "runs_per_cell": size["crossing_runs"], "segments_per_record": 24},
    }
    g_star = n_cross / (2.0 * (n_cross + 1.0))

    def check(out: Path) -> list[str]:
        errors = []
        rows = _read_csv(out / "converge.csv")
        if len(rows) != len(config["cells"]):
            errors.append(f"converge.csv has {len(rows)} rows for {len(config['cells'])} cells")
        for r in rows:
            for key in ("nu_stderr", "duan_stderr"):
                v = float(r[key])
                if not (math.isfinite(v) and v > 0):
                    errors.append(f"cell T={r['T']} B={r['B']}: {key} = {v}")
        cross = _read_csv(out / "crossing.csv")
        if len(cross) != len(config["crossing"]["cells"]):
            errors.append(f"crossing.csv has {len(cross)} rows")
        for r in cross:
            if not r["g_cross"]:
                errors.append(f"cell T={r['T']} B={r['B']}: no crossing found")
            elif not abs(float(r["g_cross"]) - g_star) <= 3.0 * float(r["sigma"]) + 0.01:
                errors.append(f"cell T={r['T']} B={r['B']}: g_cross {r['g_cross']} "
                              f"+- {r['sigma']} misses {g_star:.6f}")
        return errors

    return Workload(
        configs={"converge.json": config},
        commands=[Command("converge", "converge",
                          lambda d: _cli("converge", cfg_dir / "converge.json", d / "converge"),
                          check)],
    )


def phase_workload(seed: int, cfg_dir: Path, size: dict) -> Workload:
    rng = _rng("phase", seed)
    kappa = 0.5 + rng.random()
    config = {
        "preset": "TMS_HAMILTONIAN",
        "kappa": kappa,
        "g_over_kappa": {"min": 0.0, "max": 0.55, "steps": size["g_steps"]},
        "n_eff": {"min": 0.0, "max": 2.0 + 2.0 * rng.random(), "steps": size["n_steps"]},
    }
    cells = size["g_steps"] * size["n_steps"]

    def check(out: Path) -> list[str]:
        errors = []
        rows = _read_csv(out / "phase_diagram.csv")
        if len(rows) != cells:
            errors.append(f"phase_diagram.csv has {len(rows)} rows for {cells} cells")
        for r in rows:
            g, n = float(r["g_over_kappa"]), float(r["n_eff"])
            G = g * kappa
            unstable = 2.0 * G >= kappa
            if (r["boundary_flag"] == "UNSTABLE") != unstable:
                errors.append(f"cell g={g} n={n}: flag {r['boundary_flag']}")
            elif not unstable:
                oracle = (2.0 * n + 1.0) * kappa / (2.0 * (kappa + 2.0 * G))
                if not abs(float(r["nu_minus"]) - oracle) <= 1e-10:
                    errors.append(f"cell g={g} n={n}: nu_minus {r['nu_minus']} vs TMS {oracle!r}")
            if len(errors) > 10:
                break
        return errors

    return Workload(
        configs={"phase_diagram.json": config},
        commands=[Command("phase-diagram", "phase",
                          lambda d: _cli("phase-diagram", cfg_dir / "phase_diagram.json",
                                         d / "phase"),
                          check)],
        facts={"phase_cells": cells},
    )


def make_workload(name: str, seed: int, cfg_dir: Path, size: str = "full", **overrides) -> Workload:
    builders = {"certify": certify_workload, "converge": converge_workload,
                "phase": phase_workload}
    return builders[name](seed, cfg_dir, SIZES[size][name], **overrides)


# ---------------------------------------------------------------------------
# running commands


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("COLMODE_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], trace: bool, spec_path: Path) -> tuple[dict | None, float, str]:
    """Run one CLI command in a fresh interpreter; returns (result, setup_s, stderr)."""
    result_path = spec_path.with_suffix(".result.json")
    spec_path.write_text(json.dumps({"argv": argv, "trace": trace, "result": str(result_path)}))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(spec_path)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        return None, math.nan, proc.stderr[-2000:]
    result = json.loads(result_path.read_text())
    if Path(result["colmode_file"]).resolve().parent != (ROOT / "src" / "colmode").resolve():
        raise SetupError(f"child imported colmode from {result['colmode_file']}")
    return result, result["ready"] - spawned, proc.stderr[-2000:]


def digest_tree(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def check_manifest(out: Path, digests: dict[str, str]) -> list[str]:
    manifests = [n for n in digests if n.startswith("manifest_")]
    if len(manifests) != 1:
        return [f"{out.name}: expected one manifest, found {manifests}"]
    body = json.loads((out / manifests[0]).read_text())
    listed = {e["path"]: e["sha256"] for e in body["outputs"]}
    data = {n: d for n, d in digests.items() if n not in manifests}
    if listed != data:
        bad = sorted(n for n in listed.keys() | data.keys() if listed.get(n) != data.get(n))
        return [f"{out.name}: manifest digests disagree with files {bad[:4]}"]
    return []


# ---------------------------------------------------------------------------
# trace reduction


#: The command's one cli.cmd_* root span must cover its measured time but
#: for argument parsing and config loading in cli.main.
UNCOVERED_MAX_S = 0.02
UNCOVERED_MAX_SHARE = 0.01


def reduce_spans(spans: list, command_s: float) -> tuple[dict, list[str]]:
    """Per-function calls and self time, plus a check that every span runs
    under the command's one ``cli.cmd_*`` root span and that this span covers
    the command time measured around ``cli.main``."""
    child_sum = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_sum[parent] += end - start
    per_fn: dict[str, list[float]] = {}
    for (name, start, end, _), inner in zip(spans, child_sum):
        acc = per_fn.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += end - start - inner
    roots = [s for s in spans if s[3] < 0]
    errors = [f"span {s[0]} ran outside any cli.cmd_* root span"
              for s in roots if not s[0].startswith("cli.cmd_")]
    if len(roots) != 1:
        errors.append(f"expected one root span, found {[s[0] for s in roots]}")
    elif not errors:
        uncovered = command_s - (roots[0][2] - roots[0][1])
        if uncovered > UNCOVERED_MAX_S + UNCOVERED_MAX_SHARE * command_s:
            errors.append(f"{roots[0][0]} leaves {uncovered:.3f} s of the "
                          f"{command_s:.3f} s command untraced")
    return per_fn, errors


def layer_metrics(reduced: list[tuple[dict, dict]]) -> dict:
    """Per-layer values for one traced iteration from the (per-function
    totals, counters) of each of its commands."""
    values = {}
    counters: dict[str, float] = {}
    for fn in TRACED_FUNCTIONS:
        values[f"{fn}.calls"] = 0
        values[f"{fn}.self_s"] = 0.0
    for per_fn, cmd_counters in reduced:
        for fn, (calls, self_s) in per_fn.items():
            values[f"{fn}.calls"] += calls
            values[f"{fn}.self_s"] += self_s
        for k, v in cmd_counters.items():
            counters[k] = counters.get(k, 0) + v
    for k in COUNTERS:
        values[k] = counters.get(k, 0)
    records = values["pipeline.analyze_record.calls"]
    values["pipeline.witness_from_estimate.per_record"] = (
        values["pipeline.witness_from_estimate.calls"] / records if records else 0.0)
    restarts = values["null_models.optimizer_restarts"]
    values["null_models.mixture_state.per_restart"] = (
        values["null_models.mixture_state.calls"] / restarts if restarts else 0.0)
    return values


# ---------------------------------------------------------------------------
# machine facts


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "commit": source_commit(),
        "source_sha256": source_digest(),
    }


def source_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "colmode").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# the measured loop


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    wall: list = field(default_factory=list)  # untraced iterations
    overhead: list = field(default_factory=list)  # traced - untraced wall, per pair
    rss_mb: list = field(default_factory=list)  # untraced iterations
    command_s: dict = field(default_factory=dict)  # label -> untraced times
    layers: list = field(default_factory=list)  # per traced iteration


def run_iterations(workload: Workload, work: Path, seconds: float, trace: bool) -> RunResult:
    res = RunResult()
    reference: dict[str, dict] = {}
    start = time.monotonic()
    it = 0
    traced_wall = None  # wall of the traced iteration just before, if it completed
    while True:
        traced = trace and it % 2 == 0
        iter_dir = work / f"iter{it:03d}"
        iter_dir.mkdir()
        reduced, wall, rss, ran = [], 0.0, 0.0, 0
        for cmd in workload.commands:
            res.attempted += 1
            out = iter_dir / cmd.out
            result, setup_s, stderr = run_child(cmd.argv(iter_dir), traced,
                                                iter_dir / f"{cmd.out}.spec.json")
            errors = []
            if result is None or result["rc"] != 0:
                errors.append(f"{cmd.label} failed: rc={result and result['rc']} {stderr.strip()}")
            else:
                ran += 1
                res.setup.append(setup_s)
                wall += result["command_s"]
                rss = max(rss, result["maxrss_kb"] / 1024.0)
                if traced:
                    per_fn, span_errors = reduce_spans(result["spans"], result["command_s"])
                    reduced.append((per_fn, result["counters"]))
                    errors += span_errors
                else:
                    res.command_s.setdefault(cmd.label, []).append(result["command_s"])
                try:
                    digests = digest_tree(out)
                    errors += check_manifest(out, digests)
                    errors += cmd.check(out)
                except (OSError, ValueError, KeyError) as exc:
                    errors.append(f"{cmd.label}: unreadable output: {exc!r}")
                else:
                    data = {n: d for n, d in digests.items() if not n.startswith("manifest_")}
                    first = reference.setdefault(cmd.label, data)
                    if data != first:
                        errors.append(f"{cmd.label}: data files differ from the first "
                                      "iteration of this seed")
            if errors:
                res.failed += 1
                res.failures += errors
        complete = ran == len(workload.commands)
        if complete and traced:
            res.layers.append(layer_metrics(reduced))
        elif complete:
            res.wall.append(wall)
            res.rss_mb.append(rss)
            if traced_wall is not None:
                res.overhead.append(traced_wall - wall)
        traced_wall = wall if complete and traced else None
        shutil.rmtree(iter_dir)
        it += 1
        # Stop where the next iteration would end closer to `seconds` past
        # the start than continuing would, so a run measures about `seconds`.
        elapsed = time.monotonic() - start
        done = elapsed + 0.5 * elapsed / it >= seconds
        if done and (not trace or it % 2 == 0):
            return res


def _median(values):
    return statistics.median(values) if values else math.nan


def summarize(res: RunResult, trace: bool) -> tuple[dict, list[str]]:
    samples = {"setup_s": res.setup, "wall_s": res.wall, "peak_rss_mb": res.rss_mb}
    samples.update((f"{label}_s", res.command_s[label]) for label in ("simulate", "analyze")
                   if label in res.command_s)
    units = dict(END_TO_END, simulate_s="s", analyze_s="s")
    lines = [f"{name} = {_median(vals):.6g} {units[name]} (median of {len(vals)})"
             for name, vals in samples.items()]
    lines.append(f"error_rate = {res.failed / max(res.attempted, 1):.6g} ratio "
                 f"({res.failed} of {res.attempted} commands)")
    if not trace:
        metrics = {name: {"value": _median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
        return metrics, lines
    metrics = {}
    lines.append(f"per-layer values below are medians of {len(res.layers)} traced iterations")
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = _median(res.overhead)
            lines.append(f"{name} = {value:.6g} {unit} "
                         f"(median of {len(res.overhead)} traced/untraced pairs)")
        else:
            value = _median([layer[name] for layer in res.layers])
            lines.append(f"{name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, lines


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        **overrides) -> dict:
    """Run one benchmark run; returns the result object and prints the report."""
    if not (ROOT / "src" / "colmode" / "cli.py").is_file():
        raise SetupError(f"no colmode source tree under {ROOT / 'src'}")
    work = ROOT / WORK_ROOT_NAME / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg_dir = work / "configs"
        cfg_dir.mkdir()
        workload = make_workload(workload_name, seed, cfg_dir, size, **overrides)
        for fname, config in workload.configs.items():
            (cfg_dir / fname).write_text(json.dumps(config, indent=2))
        warm = subprocess.run([sys.executable, "-c", "import colmode.cli"], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        if warm.returncode != 0:
            raise SetupError(f"cannot import colmode.cli: {warm.stderr.strip()[-500:]}")
        facts = dict(machine_facts(), workload=workload_name, seed=seed, size=size,
                     **workload.facts)
        res = run_iterations(workload, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_ROOT_NAME).rmdir()
        except OSError:
            pass
    metrics, lines = summarize(res, trace)
    print("# machine: " + json.dumps(facts, sort_keys=True))
    for line in lines:
        print(line)
    for msg in res.failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    return {"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
