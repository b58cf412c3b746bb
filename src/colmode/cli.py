"""Batch front end: sweeps, simulation, analysis, and threshold calculators.

Subcommands: phase-diagram, simulate, analyze, converge, thresholds.  All
physics parameters come from JSON config files; the only flag overrides are
--seed, --out-dir, and --threads.  Only simulate uses --threads, as the
number of worker processes for its ensemble members; the other commands run
in one process and only record the value in the manifest.  Every run writes
a manifest JSON naming its config hash, seed, and the SHA-256 digest of each
output file, and every output file references its manifest.  Data files
carry no timestamps, so a rerun with the same config and seed is
byte-identical; parallel execution changes scheduling but never sample
streams, which are fixed entirely by derived per-task seeds.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import datetime
import hashlib
import json
import math
import multiprocessing
import os
import platform
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._fields import count, real
from .entanglement import (
    _checked_witnesses,
    _require_positive_definite,
    analytic_nu_minus,
    make_report,
)
from .errors import NumericalError, ValidationError
from .gaussian_core import (
    ModelParams,
    Preset,
    build_drift,
    build_diffusion,
    closed_form_covariance,
    solve_steady_lyapunov,
    steady_dynamics,
    steady_state_covariance,
)
from .null_models import (
    NullKind,
    gen_classical_paramp,
    gen_optimized_mixture,
    gen_shared_noise,
    matched_null_specs,
)
from .pipeline import (
    PipelineConfig,
    analyze_record,
    convergence_sweep,
    crossing_scan,
    witness_from_estimate,
    witness_with_uncertainty,
)
from .thresholds import (
    NoiseInputSpec,
    VminForm,
    collective_occupation,
    cooperativity,
    n_eff_from_noise,
    phase_diffusion,
    v_min,
)
from .trajectory import (
    Scheme,
    SourceTag,
    TrajectoryConfig,
    TrajectoryRecord,
    derive_stream_seed,
    load_record_csv,
    sample_exact_ou,
    sample_euler_maruyama,
    save_record_csv,
)

RNG_NAME = "pcg64"


# ---------------------------------------------------------------------------
# small IO helpers

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def config_digest(config: dict) -> str:
    return sha256_bytes(canonical_json(config).encode())[:12]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, columns, rows, manifest_name: str) -> None:
    lines = [f"# manifest={manifest_name}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def _strict(obj):
    """obj with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def write_json(path, obj) -> None:
    """Strict JSON: a NaN or infinity is written as null, never as a bare NaN."""
    text = json.dumps(_strict(obj), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def _load_json(path, what: str) -> dict:
    """The JSON object in a file; an unreadable file, malformed JSON or a
    value that is not an object is a ValidationError."""
    try:
        obj = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ValidationError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return obj


_REQUIRED = object()


def _field(section: dict, key: str, kind, default=_REQUIRED, **bounds):
    """section[key] read by kind, or default when it is absent or null; a
    missing or malformed field raises a ValidationError that names it.
    real and count check the value under the field's own name, within bounds."""
    value = section.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValidationError(f"missing field '{key}'")
        return default
    if kind is real or kind is count:
        return kind(value, key, **bounds)
    try:
        return kind(value)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"field '{key}': {exc}") from exc


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"expected a JSON object, got {value!r}")
    return value


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _record_format(value) -> str:
    if value not in ("npy", "csv"):
        raise ValueError(f"must be 'npy' or 'csv', got {value!r}")
    return value


def save_record(record: TrajectoryRecord, base: Path, fmt: str, manifest_name: str) -> list[Path]:
    """Persist one record; returns the written paths."""
    meta = dict(record.meta)
    meta["manifest"] = manifest_name
    if fmt == "csv":
        path = base.with_suffix(".csv")
        rec = TrajectoryRecord(
            samples=record.samples, dt=record.dt, source=record.source,
            seed=record.seed, meta=meta,
        )
        save_record_csv(rec, path)
        return [path]
    npy = base.with_suffix(".npy")
    np.save(npy, record.samples, allow_pickle=False)
    side = base.with_suffix(".meta.json")
    write_json(
        side,
        {"dt": record.dt, "source": record.source.value, "seed": record.seed, "meta": meta},
    )
    return [npy, side]


def load_record(path) -> TrajectoryRecord:
    """A .csv record, or a .npy record with its .meta.json sidecar; a file
    that does not hold a valid record is a ValidationError."""
    path = Path(path)
    if path.suffix == ".npy":
        info = _load_json(path.with_suffix("").with_suffix(".meta.json"), "record sidecar")
    elif path.suffix != ".csv":
        raise ValidationError(f"unsupported record file {path}")
    try:
        if path.suffix == ".csv":
            return load_record_csv(path)
        return TrajectoryRecord(
            samples=np.load(path, allow_pickle=False),
            dt=_field(info, "dt", real),
            source=_field(info, "source", SourceTag),
            seed=_field(info, "seed", count),
            meta=_field(info, "meta", _object, {}),
        )
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot load record {path}: {exc}") from exc


def _blas() -> dict:
    """Name and version of the BLAS numpy was built with; None where numpy
    cannot tell (show_config has mode="dicts" from numpy 1.25)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def make_manifest(command: str, config: dict, seed, threads: int, inputs: dict | None = None):
    name = f"manifest_{command.replace('-', '_')}_{config_digest(config)}.json"
    body = {
        "schema": "colmode.manifest/1",
        "tool": "colmode",
        "version": __version__,
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "threads": threads,
        "rng": RNG_NAME,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
            "blas_threads_env": dict(_BLAS_ENV_AT_START),
        },
        "config": config,
        "config_sha256": sha256_bytes(canonical_json(config).encode()),
        "inputs": inputs or {},
        "outputs": [],
    }
    return name, body


def finish_manifest(out_dir: Path, name: str, body: dict, outputs: list[Path]) -> None:
    body["outputs"] = sorted(
        ({"path": p.name, "sha256": sha256_file(p)} for p in outputs),
        key=lambda e: e["path"],
    )
    write_json(out_dir / name, body)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# BLAS sizes its thread pool from these when numpy loads, so the manifest
# records them as the process started (_pmap sets them only for its workers)
_BLAS_ENV_AT_START = {
    key: os.environ.get(key) for key in (*_BLAS_THREAD_VARS, "MKL_NUM_THREADS")
}


@contextlib.contextmanager
def _one_blas_thread_for_children():
    """os.environ with one BLAS thread, restored on exit.  Only processes
    started inside see it: this process's BLAS pool already exists."""
    saved = {key: os.environ.get(key) for key in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _pmap(fn, items, threads: int):
    """Order-preserving map, optionally across processes; results never
    depend on scheduling because each item owns its derived seed.  Workers
    are spawned, so each starts a BLAS of one thread and `threads` workers
    use `threads` cores instead of one BLAS pool per core each."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    spawn = multiprocessing.get_context("spawn")
    with _one_blas_thread_for_children(), concurrent.futures.ProcessPoolExecutor(
        max_workers=threads, mp_context=spawn
    ) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# phase-diagram

def _axis_values(axis: dict) -> np.ndarray:
    axis = _object(axis)
    lo, hi = _field(axis, "min", real), _field(axis, "max", real)
    return np.linspace(lo, hi, _field(axis, "steps", count, at_least=2))


def phase_diagram_rows(config: dict) -> list[dict]:
    """Witness grid over (g/kappa, n_eff), one coupling row at a time: each
    stable row takes one stacked solve, validation and witness evaluation."""
    preset = _field(config, "preset", Preset, Preset.CLOSED_FORM)
    kappa = _field(config, "kappa", real, 1.0, above=0.0)
    g_values = _field(config, "g_over_kappa", _axis_values)
    n_values = _field(config, "n_eff", _axis_values)
    if preset is Preset.TMS_HAMILTONIAN:
        # the diffusion depends on n_eff alone: one stack serves every row
        D = np.stack([
            build_diffusion(ModelParams(G=0.0, kappa_a=kappa, kappa_b=kappa, n_a=n, n_b=n))
            for n in n_values
        ])
    rows = []
    for g in g_values:
        G = g * kappa
        unstable = 2.0 * G >= kappa
        if not unstable:
            if preset is Preset.CLOSED_FORM:
                # an n_eff that overflows leaves non-finite entries, refused below
                with np.errstate(over="ignore", invalid="ignore"):
                    V = np.stack([closed_form_covariance(G, kappa, n) for n in n_values])
            else:
                params = ModelParams(G=G, kappa_a=kappa, kappa_b=kappa, n_a=0.0, n_b=0.0)
                V = solve_steady_lyapunov(build_drift(params), D)
            nu, duan = _checked_witnesses(_require_positive_definite(V, stacked=True))
        for k, n in enumerate(n_values):
            row = {"g_over_kappa": float(g), "n_eff": float(n)}
            if unstable:
                row.update(
                    nu_minus=None, duan_sum=None, entangled_ppt=None,
                    analytic_nu_minus=None, boundary_flag="UNSTABLE",
                )
            else:
                rep = make_report(nu[k], duan[k])
                row.update(
                    nu_minus=rep.nu_minus,
                    duan_sum=rep.duan_sum,
                    entangled_ppt=rep.entangled_ppt,
                    analytic_nu_minus=analytic_nu_minus(G, kappa, n),
                    boundary_flag="STABLE",
                )
            rows.append(row)
    rows.sort(key=lambda r: (r["g_over_kappa"], r["n_eff"]))
    return rows


PHASE_COLUMNS = [
    "g_over_kappa", "n_eff", "nu_minus", "duan_sum",
    "entangled_ppt", "analytic_nu_minus", "boundary_flag",
]


def cmd_phase_diagram(config: dict, out_dir: Path, seed, threads: int) -> int:
    name, manifest = make_manifest("phase-diagram", config, seed, threads)
    rows = phase_diagram_rows(config)
    out = out_dir / "phase_diagram.csv"
    write_csv(out, PHASE_COLUMNS, rows, name)
    finish_manifest(out_dir, name, manifest, [out])
    print(f"wrote {out} ({len(rows)} cells) and {name}")
    return 0


# ---------------------------------------------------------------------------
# simulate

def _simulate_member(args) -> list[str]:
    params_d, traj_d, k, base, fmt, manifest_name = args
    params = ModelParams.from_dict(params_d)
    traj = TrajectoryConfig.from_dict(traj_d)
    A, D = steady_dynamics(params)
    member_cfg = dc_replace(traj, master_seed=derive_stream_seed(traj.master_seed, k))
    meta = {"kappa": params.kappa_a, "params_hash": params.digest(), "member": k}
    if traj.scheme is Scheme.EULER_MARUYAMA:
        record = sample_euler_maruyama(A, D, member_cfg, meta=meta)
    else:
        record = sample_exact_ou(A, D, member_cfg, meta=meta)
    return [str(p) for p in save_record(record, Path(base), fmt, manifest_name)]


def cmd_simulate(config: dict, out_dir: Path, seed, threads: int) -> int:
    if seed is not None:
        config = dict(config)
        config["trajectory"] = dict(_field(config, "trajectory", _object), master_seed=seed)
    params = _field(config, "params", ModelParams.from_dict)
    traj = _field(config, "trajectory", TrajectoryConfig.from_dict)
    fmt = _field(config, "format", _record_format, "npy")
    n_members = _field(config, "ensemble", count, 1, at_least=1)
    trio = _field(config, "null_trio", _object, {})
    specs = None
    if _field(trio, "enabled", _bool, False):
        # built before any record is written, so a bad trio field writes nothing
        specs = matched_null_specs(
            steady_state_covariance(params),
            kappa=params.kappa_a,
            seed=traj.master_seed,
            correlation=_field(trio, "correlation", real, 0.7),
            gain=_field(trio, "gain", real, None),
        )
    name, manifest = make_manifest("simulate", config, config["trajectory"].get("master_seed"), threads)
    written: list[Path] = []
    members = [
        (params.to_dict(), traj.to_dict(), k, str(out_dir / f"quantum_{k:04d}"), fmt, name)
        for k in range(n_members)
    ]
    for paths in _pmap(_simulate_member, members, threads):
        written.extend(Path(p) for p in paths)

    if specs:
        rec_a = gen_shared_noise(specs[NullKind.SHARED_NOISE], traj, kappa=params.kappa_a)
        rec_b = gen_classical_paramp(specs[NullKind.CLASSICAL_PARAMP], traj, kappa=params.kappa_a)
        rec_c, _ = gen_optimized_mixture(
            specs[NullKind.OPTIMIZED_MIXTURE], config=traj, kappa=params.kappa_a
        )
        for tag, rec in (("null_a", rec_a), ("null_b", rec_b), ("null_c", rec_c)):
            written.extend(save_record(rec, out_dir / tag, fmt, name))

    finish_manifest(out_dir, name, manifest, written)
    print(f"wrote {len(written)} record files and {name}")
    return 0


# ---------------------------------------------------------------------------
# analyze

ANALYZE_COLUMNS = [
    "file", "source", "nu_minus", "duan_sum", "entangled_ppt", "entangled_duan",
    "stderr_nu", "stderr_duan", "n_segments", "n_eff",
]


def cmd_analyze(record_paths, config: dict, out_dir: Path, seed, threads: int) -> int:
    pconf = _field(config, "pipeline", PipelineConfig.from_dict)
    for path in record_paths:
        if not Path(path).is_file():
            raise ValidationError(f"record file not found: {path}")
    inputs = {Path(p).name: sha256_file(p) for p in record_paths}
    name, manifest = make_manifest("analyze", config, seed, threads, inputs=inputs)

    rows = []
    groups: dict[str, list] = {}
    factors = {"default_kappa": [], "per_file": {}}
    for path in record_paths:
        fname = Path(path).name
        record = load_record(path)
        est = analyze_record(record, pconf)
        rep = witness_from_estimate(est)
        if "kappa" not in record.meta:
            factors["default_kappa"].append(fname)
        factors["per_file"][fname] = {"calibration": est.calibration, "attenuation": est.attenuation}
        rows.append(
            {
                "file": fname,
                "source": est.source,
                "nu_minus": rep.nu_minus,
                "duan_sum": rep.duan_sum,
                "entangled_ppt": rep.entangled_ppt,
                "entangled_duan": rep.entangled_duan,
                "stderr_nu": rep.stderr_nu,
                "stderr_duan": rep.stderr_duan,
                "n_segments": est.n_segments,
                "n_eff": est.n_eff,
            }
        )
        groups.setdefault(est.source, []).append((est, rep))

    summary = {"config_hash": pconf.digest(), "manifest": name, "groups": {}}
    for source, members in sorted(groups.items()):
        if len(members) >= 2:
            rep = witness_with_uncertainty(est for est, _ in members)
        else:
            rep = members[0][1]
        summary["groups"][source] = dict(rep.to_dict(), n_records=len(members))

    rows.sort(key=lambda r: r["file"])
    csv_path = out_dir / "witness_distribution.csv"
    json_path = out_dir / "witness_report.json"
    write_csv(csv_path, ANALYZE_COLUMNS, rows, name)
    write_json(json_path, summary)
    factors["default_kappa"].sort()
    manifest["factors"] = factors
    finish_manifest(out_dir, name, manifest, [csv_path, json_path])
    print(f"analyzed {len(rows)} records into {csv_path} / {json_path}")
    return 0


# ---------------------------------------------------------------------------
# converge

def _cells(cells) -> list[tuple[float, float]]:
    return [(_field(_object(c), "T", real), _field(c, "B", real)) for c in cells]


CONVERGE_COLUMNS = ["T", "B", "n_eff", "nu_mean", "nu_stderr", "duan_mean", "duan_stderr", "n_runs"]


def cmd_converge(config: dict, out_dir: Path, seed, threads: int) -> int:
    master_seed = seed if seed is not None else _field(config, "master_seed", count, 0)
    name, manifest = make_manifest("converge", config, master_seed, threads)
    params = _field(config, "params", ModelParams.from_dict)
    A, D = steady_dynamics(params)
    cells = _field(config, "cells", _cells)
    segment_statistic = config.get("segment_statistic", "second_moment")
    result = convergence_sweep(
        A,
        D,
        cells,
        runs_per_cell=_field(config, "runs_per_cell", count, 16),
        segments_per_record=_field(config, "segments_per_record", count, 24),
        master_seed=master_seed,
        segment_statistic=segment_statistic,
    )
    csv_path = out_dir / "converge.csv"
    write_csv(csv_path, CONVERGE_COLUMNS, result["rows"], name)
    summary = {
        "manifest": name,
        "slope_nu": result["slope_nu"],
        "slope_duan": result["slope_duan"],
        "cells": len(cells),
    }
    outputs = [csv_path]

    crossing = config.get("crossing")
    if crossing:
        crossing = _field(config, "crossing", _object)
        rows = crossing_scan(
            kappa=params.kappa_a,
            n=_field(crossing, "n", real),
            g_values=_field(crossing, "g_values", list),
            cells=_field(crossing, "cells", _cells),
            runs_per_cell=_field(crossing, "runs_per_cell", count, 12),
            segments_per_record=_field(crossing, "segments_per_record", count, 24),
            master_seed=master_seed,
            segment_statistic=segment_statistic,
        )
        cross_path = out_dir / "crossing.csv"
        write_csv(cross_path, ["T", "B", "g_cross", "sigma"], rows, name)
        outputs.append(cross_path)
        summary["crossing_cells"] = len(rows)

    json_path = out_dir / "converge_summary.json"
    write_json(json_path, summary)
    outputs.append(json_path)
    finish_manifest(out_dir, name, manifest, outputs)
    print(f"wrote {csv_path} (slopes: nu {result['slope_nu']:.3f}, duan {result['slope_duan']:.3f})")
    return 0


# ---------------------------------------------------------------------------
# thresholds

def _threshold_report(config: dict) -> dict:
    for pair in (("kappa", "ringdown_time"), ("omega_col", "f_col")):
        if all(config.get(key) is not None for key in pair):
            raise ValidationError("give '{}' or '{}', not both".format(*pair))
    kappa = _field(config, "kappa", real, None, above=0.0)
    kappa_formula = "given"
    if config.get("ringdown_time") is not None:
        kappa = 1.0 / _field(config, "ringdown_time", real, above=0.0)
        kappa_formula = "1/ringdown_time"
    omega = config.get("omega_col")
    if config.get("f_col") is not None:
        omega = 2.0 * np.pi * _field(config, "f_col", real)
    spec = NoiseInputSpec(
        B=config.get("B"),
        C_eff=config.get("C_eff"),
        omega_col=omega,
        T_amb=config.get("T_amb"),
        S_V0=config.get("S_V0"),
        R_eff=config.get("R_eff"),
        Re_Y_eff=config.get("Re_Y_eff"),
    )
    report: dict = {"inputs": spec.to_dict()}
    if kappa is not None:
        report["kappa"] = {"value": kappa, "formula": kappa_formula}

    n_eff, clamped = n_eff_from_noise(spec)
    report["n_eff"] = {
        "value": n_eff,
        "clamped": clamped,
        "formula": "(C_eff*S_V0*B/(hbar*omega_col) - 1)/2",
    }

    c_corr = None
    g_over_kappa = _field(config, "G_over_kappa", real, None)
    if g_over_kappa is not None and kappa is not None and n_eff > 0:
        c_corr = cooperativity(g_over_kappa * kappa, kappa, n_eff)
        report["cooperativity"] = {
            "value": c_corr,
            "formula": "(2G/kappa)*(n_eff+1)/n_eff",
        }
    if c_corr is None:
        c_corr = _field(config, "C_corr", real, None)

    vmin: dict = {}
    if c_corr is not None:
        vmin["GENERAL"] = {
            "value": v_min(VminForm.GENERAL, spec, C_corr=c_corr),
            "formula": "sqrt(S_V0*B/C_corr)",
        }
        if spec.R_eff is not None:
            vmin["THERMAL"] = {
                "value": v_min(VminForm.THERMAL, spec, C_corr=c_corr),
                "formula": "sqrt(4*k_B*T*R_eff*B/C_corr)",
            }
    if kappa is not None:
        val = v_min(VminForm.CONSERVATIVE, spec, kappa=kappa)
        vmin["CONSERVATIVE"] = {
            "value": val,
            "formula": "sqrt(2*k_B*T*B/(C_eff*kappa))",
            "rounded_1sf": f"{val:.0e}",
        }
    if vmin:
        report["v_min"] = vmin

    v_col = _field(config, "V_col", real, None)
    if v_col is not None:
        n_col = collective_occupation(v_col, spec.C_eff, spec.omega_col)
        report["N_col"] = {"value": n_col, "formula": "C_eff*V_col^2/(2*hbar*omega_col)"}
        if kappa is not None:
            t_int = _field(config, "T_int", real, 1.0)
            d_phi, sigma2 = phase_diffusion(kappa, n_eff, n_col, t_int)
            report["phase_diffusion"] = {
                "D_phi": d_phi,
                "sigma2_phi": sigma2,
                "T_int": t_int,
                "formula": "kappa*(2*n_eff+1)/(4*N_col)",
            }
    return report


def cmd_thresholds(config: dict, out_dir: Path, seed, threads: int) -> int:
    name, manifest = make_manifest("thresholds", config, seed, threads)
    report = _threshold_report(config)
    report["manifest"] = name
    out = out_dir / "thresholds.json"
    write_json(out, report)
    finish_manifest(out_dir, name, manifest, [out])
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colmode",
        description="Steady-state entanglement simulator and certification toolkit "
        "for two coupled collective bosonic modes.",
    )
    parser.add_argument("--version", action="version", version=f"colmode {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", "-c", required=True, help="JSON config file")
        p.add_argument("--out-dir", default=None, help="output directory (env COLMODE_OUT_DIR)")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker processes for simulate's ensemble members; the other "
            "commands run in one process and only record the value in the "
            "manifest (env COLMODE_THREADS)",
        )

    common(sub.add_parser("phase-diagram", help="witness grid over (G/kappa, n_eff)"))
    common(sub.add_parser("simulate", help="generate quantum and null-model records"))
    p_an = sub.add_parser("analyze", help="run the identical pipeline over record files")
    p_an.add_argument("records", nargs="+", help="record files (.npy or .csv)")
    common(p_an)
    common(sub.add_parser("converge", help="estimator convergence versus N_eff = T*B"))
    common(sub.add_parser("thresholds", help="operational threshold calculators"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out_dir = Path(args.out_dir or os.environ.get("COLMODE_OUT_DIR", "out"))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot use output directory {out_dir}: {exc}") from exc
        threads = args.threads
        if threads is None:
            env_threads = os.environ.get("COLMODE_THREADS", "1")
            try:
                threads = int(env_threads)
            except ValueError:
                raise ValidationError(
                    f"COLMODE_THREADS must be an integer, got {env_threads!r}"
                ) from None
        if threads < 1:
            raise ValidationError("--threads must be >= 1")
        config = _load_json(args.config, "config file")
        if args.command == "phase-diagram":
            return cmd_phase_diagram(config, out_dir, args.seed, threads)
        if args.command == "simulate":
            return cmd_simulate(config, out_dir, args.seed, threads)
        if args.command == "analyze":
            return cmd_analyze(args.records, config, out_dir, args.seed, threads)
        if args.command == "converge":
            return cmd_converge(config, out_dir, args.seed, threads)
        if args.command == "thresholds":
            return cmd_thresholds(config, out_dir, args.seed, threads)
        raise ValidationError(f"unknown command {args.command}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
