"""Run one colmode CLI command in this fresh interpreter and report on it.

Usage: python3 bench/child.py SPEC.json

SPEC.json holds {"argv": [...], "trace": bool, "result": path}.  The parent
takes a CLOCK_MONOTONIC reading just before it starts this interpreter; the
reading taken here once ``colmode.cli`` is imported and the command's config
is parsed closes the set-up interval, because time.monotonic() reads the same
clock in every process on Linux.

With "trace" true, the public functions in TRACED are wrapped in every
colmode namespace that binds them (``cli`` imports names with
``from .x import f``, so patching the defining module alone would miss those
calls).  Each call records a span (name, start, end, parent); the spans stay
in memory and go into the result file when the command has finished.
Counters are derived from arguments, returned objects and file sizes, never
from inside the package.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from pathlib import Path


def _size(path) -> int:
    return os.path.getsize(path)


def _count_samples(counters, args, kwargs, result):
    records = result if isinstance(result, list) else [result]
    counters["trajectory.samples_drawn"] += sum(r.samples.shape[0] for r in records)


def _count_optimizer(counters, args, kwargs, result):
    info = result[0].meta["optimizer"]
    counters["null_models.optimizer_converged"] += int(bool(info["converged"]))
    counters["null_models.optimizer_restarts"] += int(info["restarts"])


def _count_save(counters, args, kwargs, result):
    counters["cli.bytes_written"] += sum(_size(p) for p in result)


def _count_csv(counters, args, kwargs, result):
    counters["cli.bytes_written"] += _size(kwargs.get("path", args[0] if args else None))


def _count_manifest(counters, args, kwargs, result):
    out_dir = kwargs.get("out_dir", args[0] if args else None)
    name = kwargs.get("name", args[1] if len(args) > 1 else None)
    counters["cli.bytes_written"] += _size(Path(out_dir) / name)


def _count_hashed(counters, args, kwargs, result):
    counters["cli.bytes_hashed"] += _size(kwargs.get("path", args[0] if args else None))


#: Counters the hooks below fill in, with their units.
COUNTERS = {
    "trajectory.samples_drawn": "count",
    "cli.bytes_written": "bytes",
    "cli.bytes_hashed": "bytes",
    "null_models.optimizer_converged": "count",
    "null_models.optimizer_restarts": "count",
}

#: (module, function, counter hook).  run.py names the per-layer metrics
#: from this list and from COUNTERS.
TRACED = [
    ("gaussian_core", "solve_steady_lyapunov", None),
    ("entanglement", "witness_report_from_covariance", None),
    ("trajectory", "sample_exact_ou", _count_samples),
    ("trajectory", "sample_ensemble", _count_samples),
    ("null_models", "gen_shared_noise", None),
    ("null_models", "gen_classical_paramp", None),
    ("null_models", "gen_optimized_mixture", _count_optimizer),
    ("null_models", "mixture_state", None),
    ("pipeline", "bandlimit", None),
    ("pipeline", "estimate_covariance", None),
    ("pipeline", "analyze_record", None),
    ("pipeline", "witness_from_estimate", None),
    ("pipeline", "witness_with_uncertainty", None),
    ("cli", "save_record", _count_save),
    ("cli", "load_record", None),
    ("cli", "sha256_file", _count_hashed),
    ("cli", "write_csv", _count_csv),
    ("cli", "finish_manifest", _count_manifest),
    ("cli", "cmd_phase_diagram", None),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_analyze", None),
    ("cli", "cmd_converge", None),
]


class Tracer:
    """In-memory span recorder; one per traced command."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, return_value)
            return return_value

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "colmode" or n.startswith("colmode.")]
        for module_name, func_name, hook in TRACED:
            original = getattr(sys.modules[f"colmode.{module_name}"], func_name)
            wrapped = self.wrap(f"{module_name}.{func_name}", original, hook)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapped)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from colmode import cli

    args = cli.build_parser().parse_args(spec["argv"])
    json.loads(Path(args.config).read_text())
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    t0 = time.monotonic()
    rc = cli.main(spec["argv"])
    t1 = time.monotonic()
    result = {
        "rc": rc,
        "ready": ready,
        "command_s": t1 - t0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "colmode_file": cli.__file__,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
