"""Smoke-size tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _printed(capsys) -> list[str]:
    return capsys.readouterr().out.splitlines()


def test_benchmark_json_matches_the_metrics_run_py_emits():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_separable_quantum_state_fails_the_verdict_check(capsys):
    good = run.run("certify", 5, 0, False, size="smoke")
    assert good["correct"] and good["failed"] == 0
    assert "error_rate = 0 ratio" in "\n".join(_printed(capsys))

    # n_a = n_b = 2 at G/kappa = 0.25 gives nu_minus = 5/6: separable.
    bad = run.run("certify", 5, 0, False, size="smoke", n_thermal=2.0)
    out = "\n".join(_printed(capsys))
    assert not bad["correct"]
    assert bad["failed"] >= 1
    rate = next(line for line in out.splitlines() if line.startswith("error_rate"))
    assert float(rate.split()[2]) > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, capsys):
    result = run.run(workload, 3, 0, False, size="smoke")
    lines = _printed(capsys)
    assert result["correct"], result
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") and f" {unit} (median of " in line
                   for line in lines), name
    assert json.loads(json.dumps(result)) == result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, capsys):
    result = run.run(workload, 4, 0, True, size="smoke")
    lines = _printed(capsys)
    assert result["correct"], result  # includes the root-span coverage check
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.PER_LAYER
    for name, unit in run.PER_LAYER:
        assert any(line.startswith(f"{name} = ") and line.split()[3] == unit
                   for line in lines), name
    root = {"certify": "cli.cmd_simulate", "converge": "cli.cmd_converge",
            "phase": "cli.cmd_phase_diagram"}[workload]
    assert result["metrics"][f"{root}.calls"]["value"] == 1


def test_traced_and_untraced_commands_write_identical_data(tmp_path):
    workload = run.make_workload("phase", 6, tmp_path, size="smoke")
    for fname, config in workload.configs.items():
        (tmp_path / fname).write_text(json.dumps(config))
    cmd = workload.commands[0]
    digests = []
    for traced in (False, True):
        iter_dir = tmp_path / f"traced{int(traced)}"
        iter_dir.mkdir()
        result, setup_s, _ = run.run_child(cmd.argv(iter_dir), traced, iter_dir / "spec.json")
        assert result["rc"] == 0 and setup_s > 0
        assert ("spans" in result) == traced
        digests.append({n: d for n, d in run.digest_tree(iter_dir / cmd.out).items()
                        if not n.startswith("manifest_")})
    assert digests[0] == digests[1] and digests[0]


def test_fails_without_a_result_in_a_tree_without_colmode(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
