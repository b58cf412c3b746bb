"""Batch front end: sweeps, simulation, analysis, and threshold calculators.

Subcommands: phase-diagram, simulate, analyze, converge, thresholds.  All
physics parameters come from JSON config files; the only flag overrides are
--seed, --out-dir, and --threads.  Only simulate uses --threads, as the
number of worker processes for its ensemble members; the other commands run
in one process and only record the value in the manifest.  Every run writes
a manifest JSON naming its config hash, seed, and the SHA-256 digest of each
output file, taken as the file was written, and every output file references
its manifest.  Data files carry no timestamps, so a rerun with the same config
and seed is byte-identical; parallel execution changes scheduling but never
sample streams, which are fixed entirely by derived per-task seeds.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import datetime
import hashlib
import io
import json
import math
import os
import platform
import sys
import warnings
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._fields import count, fields_of, json_object, real
from .entanglement import (
    PPT_BOUND,
    _checked_witnesses,
    _require_positive_definite,
    _violates,
    analytic_nu_minus,
)
from .errors import NumericalError, ValidationError
from .gaussian_core import (
    ModelParams,
    Preset,
    build_drift,
    build_diffusion,
    closed_form_covariance,
    is_stable,
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
    _cell_plans,
    _checked_cells,
    _checked_couplings,
    _crossing_rows,
    _segment_statistic,
    analyze_record,
    convergence_sweep,
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
    RNG_ALGORITHM,
    Scheme,
    SourceTag,
    TrajectoryConfig,
    TrajectoryRecord,
    _euler_stream,
    _exact_stream,
    _records,
    derive_stream_seed,
)


# ---------------------------------------------------------------------------
# small IO helpers

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: Bytes hashed at a time, so hashing never holds the file.
HASH_BLOCK_BYTES = 1 << 20


def sha256_file(path) -> str:
    """The SHA-256 of a file this process did not write (analyze's inputs)."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(HASH_BLOCK_BYTES), b""):
            digest.update(block)
    return digest.hexdigest()


def write_bytes(path, chunks) -> str:
    """Write each chunk of bytes to path in turn, hashing it as it goes;
    returns the file's SHA-256.  Every output goes through here, so no
    output is read back to be hashed."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def write_npy(path, array: np.ndarray) -> str:
    """np.save's bytes for array at path, written from the array's own memory
    HASH_BLOCK_BYTES at a time; returns the file's SHA-256."""
    info = np.lib.format.header_data_from_array_1_0(array)
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(buffer, info)
    # np.save writes a Fortran-ordered array's bytes in Fortran order, any other in C order
    body = array.T if info["fortran_order"] else np.ascontiguousarray(array)
    data = memoryview(body).cast("B")
    starts = range(0, data.nbytes, HASH_BLOCK_BYTES)
    return write_bytes(path, [buffer.getvalue(), *(data[s : s + HASH_BLOCK_BYTES] for s in starts)])


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


#: Rows (phase-diagram cells, record samples) per block of CSV text, so the
#: text in memory stays bounded however many rows a CSV has.
CSV_BLOCK_ROWS = 2048


def text_columns(names, rows) -> list[list[str]]:
    """The named fields of each row as CSV text, one list per column."""
    return [[_fmt(row[name]) for row in rows] for name in names]


def write_csv(path, names, blocks, manifest_name: str) -> str:
    """A CSV with the named columns under a manifest comment; returns its
    SHA-256.  Each block holds one list of text per column, all of one
    length, and is written before the next is taken, so one block's text
    is in memory at a time."""
    def text():
        yield f"# manifest={manifest_name}\n{','.join(names)}\n".encode()
        for block in blocks:
            if len(block) != len(names):
                raise ValueError(f"{len(block)} text columns for {len(names)} names")
            yield "\n".join([*map(",".join, zip(*block, strict=True)), ""]).encode()

    return write_bytes(path, text())


def _strict(obj):
    """obj with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def write_json(path, obj) -> str:
    """Strict JSON: a NaN or infinity is written as null, never as a bare NaN;
    returns the file's SHA-256."""
    text = json.dumps(_strict(obj), sort_keys=True, indent=2, allow_nan=False)
    return write_bytes(path, [f"{text}\n".encode()])


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


def _bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _record_format(value, name: str) -> str:
    if value not in ("npy", "csv"):
        raise ValueError(f"must be 'npy' or 'csv', got {value!r}")
    return value


def record_sidecar(path) -> Path:
    """The <stem>.meta.json sidecar beside a .npy or .csv record, whatever dots its stem holds."""
    path = Path(path)
    if path.suffix not in (".npy", ".csv"):
        raise ValidationError(f"unsupported record file {path}")
    return path.with_name(f"{path.stem}.meta.json")


RECORD_COLUMNS = ["t", "X_a", "P_a", "X_b", "P_b"]


def save_record(
    record: TrajectoryRecord, base: Path, fmt: str, manifest_name: str
) -> dict[Path, str]:
    """Persist one record's samples as .npy or as a CSV with a time column,
    and its metadata in the .meta.json sidecar; returns {path: SHA-256} of
    the two files, in the order written.  The record is <base name>.<fmt>."""
    data = base.with_name(f"{base.name}.{fmt}")
    if fmt == "csv":
        columns = [record.times(), *record.samples.T]
        blocks = (
            [list(map(repr, x[start:start + CSV_BLOCK_ROWS].tolist())) for x in columns]
            for start in range(0, record.n_steps, CSV_BLOCK_ROWS)
        )
        written = {data: write_csv(data, RECORD_COLUMNS, blocks, manifest_name)}
    else:
        written = {data: write_npy(data, record.samples)}
    side = record_sidecar(data)
    meta = dict(record.meta, manifest=manifest_name)
    written[side] = write_json(
        side,
        {"dt": record.dt, "source": record.source.value, "seed": record.seed, "meta": meta},
    )
    return written


def load_record(path) -> TrajectoryRecord:
    """A .npy or .csv record with its .meta.json sidecar; a file that does
    not hold a valid record is a ValidationError."""
    path = Path(path)
    info = _load_json(record_sidecar(path), "record sidecar")
    try:
        if path.suffix == ".csv":
            with warnings.catch_warnings():
                # an empty table is refused by its shape, not warned about
                warnings.simplefilter("ignore", UserWarning)
                samples = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)[:, 1:]
        else:
            samples = np.load(path, allow_pickle=False)
        with fields_of(info) as read:
            return TrajectoryRecord(samples=samples, dt=read("dt", real),
                                    source=read("source", SourceTag), seed=read("seed", count),
                                    meta=read("meta", json_object, {}))
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


#: (section, sorted keys) of the fields older configs set that no longer have
#: an effect, by command: accepted, and listed in the manifest's ignored_fields.
_RETIRED_FIELDS = {
    "analyze": ("pipeline", ("bootstrap_resamples",)),
    "simulate": ("null_trio", ("max_evals", "restarts")),
}


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
        "rng": RNG_ALGORITHM,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
            "blas_threads_env": dict(_BLAS_ENV_AT_START),
            "allocator": _fix_heap_thresholds(),
        },
        "config": config,
        "config_sha256": sha256_bytes(canonical_json(config).encode()),
        "inputs": inputs or {},
        "outputs": [],
    }
    if command in _RETIRED_FIELDS:
        section, keys = _RETIRED_FIELDS[command]
        given = config.get(section) or {}
        body["ignored_fields"] = [f"{section}.{k}" for k in keys if k in given]
    return name, body


def finish_manifest(out_dir: Path, name: str, body: dict, outputs: dict[Path, str]) -> None:
    """Write the manifest with the SHA-256 of each output, {path: digest} as
    its writer returned it; no output is read back."""
    body["outputs"] = sorted(
        ({"path": p.name, "sha256": digest} for p, digest in outputs.items()),
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


# glibc reads these when the process starts; a user who set any of them
# chose the heap's behaviour, and the CLI leaves it alone
_USER_HEAP_ENV_AT_START = any(
    key in os.environ
    for key in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")
) or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")

# mallopt parameter numbers (malloc.h) and the values the CLI fixes.  Fixed
# thresholds also switch off glibc's dynamic ones, which return a freed
# record's pages to the kernel so that the next record faults them in again.
# Below 4 MiB, freed blocks stay in the heap for the next record: the heap
# never grows past its own peak, so keeping its pages adds almost no peak
# memory.  Blocks of 4 MiB and more still come fresh from mmap, because
# numpy asks for huge pages (madvise MADV_HUGEPAGE) on exactly those sizes.
_HEAP_THRESHOLDS = {"M_TRIM_THRESHOLD": (-1, 1 << 30), "M_MMAP_THRESHOLD": (-3, 4 << 20)}


def _fix_heap_thresholds():
    """Fix glibc's heap thresholds for this process; a second call changes
    nothing.  Returns the thresholds applied, or why none were
    ("not_glibc", "user_env").  Only the CLI and its workers call this;
    importing colmode leaves the allocator alone."""
    if _USER_HEAP_ENV_AT_START:
        return "user_env"
    if not sys.platform.startswith("linux"):
        return "not_glibc"
    libc = ctypes.CDLL(None)
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return "not_glibc"
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    return {
        name: value
        for name, (param, value) in _HEAP_THRESHOLDS.items()
        if libc.mallopt(param, value) == 1
    }


def _pmap(fn, items, threads: int):
    """Order-preserving map, optionally across processes; results never
    depend on scheduling because each item owns its derived seed.  Workers
    are spawned, so each starts a BLAS of one thread and `threads` workers
    use `threads` cores instead of one BLAS pool per core each.  Each fixes
    its heap thresholds as the CLI process does."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    import concurrent.futures  # imported here: a run of one process never loads them
    import multiprocessing

    spawn = multiprocessing.get_context("spawn")
    with _one_blas_thread_for_children(), concurrent.futures.ProcessPoolExecutor(
        max_workers=threads, mp_context=spawn, initializer=_fix_heap_thresholds
    ) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# phase-diagram

def _axis_values(axis, name: str) -> np.ndarray:
    with fields_of(axis, name) as read:
        lo, hi = read("min", real), read("max", real)
        steps = read("steps", count, at_least=2)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(lo, hi, steps)
    if not np.isfinite(values).all():
        raise ValueError(f"steps from {lo!r} to {hi!r} leave the float range")
    return values


PHASE_COLUMNS = [
    "g_over_kappa", "n_eff", "nu_minus", "duan_sum",
    "entangled_ppt", "analytic_nu_minus", "boundary_flag",
]


def phase_diagram_columns(config: dict) -> Iterator[list[list[str]]]:
    """The phase-diagram CSV as blocks of text columns (PHASE_COLUMNS), its
    cells in (g/kappa, n_eff) order, CSV_BLOCK_ROWS cells a block.

    Each stable coupling row (2G < kappa) takes one stacked Lyapunov solve or
    closed-form stack, and one validation and witness evaluation; verdicts
    and the analytic column are array expressions over the whole grid.  Rows
    at or beyond 2G = kappa are UNSTABLE, with empty witness cells, and so is
    a TMS row whose drift fails the Hurwitz test solve_steady_lyapunov applies.
    Every number is computed before this returns, so a failing cell raises
    before any output is opened; only the text is made lazily, block by block.
    """
    with fields_of(config) as read:
        preset = read("preset", Preset, Preset.CLOSED_FORM)
        kappa = read("kappa", real, 1.0, above=0.0)
        g_values = read("g_over_kappa", _axis_values)
        n_values = read("n_eff", _axis_values)
    if preset is Preset.TMS_HAMILTONIAN:
        # the diffusion depends on n_eff alone: one stack serves every row
        D = np.stack([
            build_diffusion(ModelParams(G=0.0, kappa_a=kappa, kappa_b=kappa, n_a=n, n_b=n))
            for n in n_values
        ])
    G = g_values * kappa
    stable = 2.0 * G < kappa
    nu = np.full((g_values.size, n_values.size), np.nan)
    duan = np.full_like(nu, np.nan)
    for i in np.flatnonzero(stable):
        if preset is Preset.CLOSED_FORM:
            # an n_eff that overflows leaves non-finite entries, refused below
            with np.errstate(over="ignore", invalid="ignore"):
                V = closed_form_covariance(G[i], kappa, n_values)
        else:
            params = ModelParams(G=G[i], kappa_a=kappa, kappa_b=kappa, n_a=0.0, n_b=0.0)
            A = build_drift(params)
            if not is_stable(A):
                # within the solver's stability margin of 2G = kappa: flagged, not refused
                stable[i] = False
                continue
            V = solve_steady_lyapunov(A, D)
        nu[i], duan[i] = _checked_witnesses(_require_positive_definite(V, stacked=True))

    # a stable sort of the flattened grid keeps tied cells in grid order
    order = np.lexsort((np.tile(n_values, g_values.size), np.repeat(g_values, n_values.size)))
    g_index, n_index = np.divmod(order, n_values.size)
    # stability only falls as g grows (the drift's largest real part is G - kappa/2),
    # so the stable cells lead the order
    n_stable = np.count_nonzero(stable) * n_values.size
    first = order[:n_stable]
    nu, duan = nu.ravel()[first], duan.ravel()[first]
    stable_columns = (
        nu, duan, _violates(nu, PPT_BOUND),
        analytic_nu_minus(G[g_index[:n_stable]], kappa, n_values[n_index[:n_stable]]),
    )
    g_text, n_text = (list(map(repr, values.tolist())) for values in (g_values, n_values))

    def block(start: int, stop: int) -> list[list[str]]:
        mid = min(max(start, n_stable), stop)  # cells start..mid are stable, mid..stop not
        blank = [""] * (stop - mid)
        return [
            [g_text[i] for i in g_index[start:stop].tolist()],
            [n_text[i] for i in n_index[start:stop].tolist()],
            *(list(map(repr, values[start:mid].tolist())) + blank for values in stable_columns),
            ["STABLE"] * (mid - start) + ["UNSTABLE"] * (stop - mid),
        ]

    return (block(start, min(start + CSV_BLOCK_ROWS, order.size))
            for start in range(0, order.size, CSV_BLOCK_ROWS))


def cmd_phase_diagram(config: dict, out_dir: Path, seed, threads: int) -> int:
    name, manifest = make_manifest("phase-diagram", config, seed, threads)
    blocks = phase_diagram_columns(config)
    out = out_dir / "phase_diagram.csv"
    finish_manifest(out_dir, name, manifest, {out: write_csv(out, PHASE_COLUMNS, blocks, name)})
    print(f"wrote {out} and {name}")
    return 0


# ---------------------------------------------------------------------------
# simulate

def _simulate_member(args) -> dict[Path, str]:
    """Draw member k of a simulate ensemble from the prepared stream, which
    a spawned worker receives pickled, and save it."""
    stream, traj, k, meta, base, fmt, manifest_name = args
    members = [(derive_stream_seed(traj.master_seed, k), {"member": k})]
    record = next(_records(stream, traj, traj.scheme, SourceTag.QUANTUM, meta, members))
    return save_record(record, Path(base), fmt, manifest_name)


def cmd_simulate(config: dict, out_dir: Path, seed, threads: int) -> int:
    # every field is read, the trio's too when it is off, before any record is written
    with fields_of(config) as read:
        params = read("params", ModelParams)
        trajectory = read("trajectory", json_object)
        traj = TrajectoryConfig.from_dict(trajectory, "trajectory")
        fmt = read("format", _record_format, "npy")
        n_members = read("ensemble", count, 1, at_least=1)
        with fields_of(read("null_trio", json_object, {}), "null_trio") as trio:
            enabled = trio("enabled", _bool, False)
            correlation = trio("correlation", real, 0.7, at_least=0.0, at_most=1.0)
            # null model B is stable only below kappa/2
            gain = trio("gain", real, None, at_least=0.0, below=params.kappa_a / 2)
            trio("restarts", count, None)
            trio("max_evals", count, None)
    if seed is not None:
        # the config as run, which the manifest records, holds the seed used
        config = dict(config, trajectory=dict(trajectory, master_seed=seed))
        traj = dataclasses.replace(traj, master_seed=seed)
    specs = enabled and matched_null_specs(steady_state_covariance(params), kappa=params.kappa_a,
                                           seed=traj.master_seed, correlation=correlation, gain=gain)
    name, manifest = make_manifest("simulate", config, traj.master_seed, threads)
    # {path: SHA-256} of each file, taken as it was written (in a worker or here)
    written: dict[Path, str] = {}
    # prepared once, and handed to every member here or pickled to its worker
    A, D = steady_dynamics(params)
    if traj.scheme is Scheme.EULER_MARUYAMA:
        stream = _euler_stream(A, D, traj.dt)
    else:
        stream = _exact_stream(A, D, traj.dt)
    meta = {"kappa": params.kappa_a, "params_hash": params.digest()}
    members = [
        (stream, traj, k, meta, str(out_dir / f"quantum_{k:04d}"), fmt, name)
        for k in range(n_members)
    ]
    for member in _pmap(_simulate_member, members, threads):
        written.update(member)

    if specs:
        # each null record is saved before the next is drawn, and no name holds
        # it, so one is alive at a time
        kappa = params.kappa_a
        written.update(save_record(
            gen_shared_noise(specs[NullKind.SHARED_NOISE], traj, kappa=kappa),
            out_dir / "null_a", fmt, name,
        ))
        written.update(save_record(
            gen_classical_paramp(specs[NullKind.CLASSICAL_PARAMP], traj, kappa=kappa),
            out_dir / "null_b", fmt, name,
        ))
        written.update(save_record(
            gen_optimized_mixture(specs[NullKind.OPTIMIZED_MIXTURE], config=traj, kappa=kappa)[0],
            out_dir / "null_c", fmt, name,
        ))

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
    with fields_of(config) as read:
        pconf = read("pipeline", PipelineConfig)
    path_of: dict[str, str] = {}
    sidecars: dict[str, Path] = {}
    for path in record_paths:
        if not Path(path).is_file():
            raise ValidationError(f"record file not found: {path}")
        side = record_sidecar(path)
        if not side.is_file():
            raise ValidationError(f"record sidecar not found: {side}")
        # the outputs and the manifest name each file by its base name, so no
        # two records, and no two distinct sidecars, may share one
        fname = Path(path).name
        if fname in path_of:
            raise ValidationError(f"records {path_of[fname]} and {path} share the name {fname}")
        path_of[fname] = path
        if not sidecars.setdefault(side.name, side).samefile(side):
            raise ValidationError(
                f"sidecars {sidecars[side.name]} and {side} share the name {side.name}"
            )
    # the sidecars hold dt, kappa and any applied calibration, which the verdict reads
    inputs = {Path(p).name: sha256_file(p) for p in [*record_paths, *sidecars.values()]}
    name, manifest = make_manifest("analyze", config, seed, threads, inputs=inputs)

    rows = []
    groups: dict[str, list] = {}
    factors = {"default_kappa": [], "per_file": {}}
    filters = {}  # the records of one dt and length share one prepared filter
    for path in record_paths:
        fname = Path(path).name
        record = load_record(path)
        if "kappa" not in record.meta:
            factors["default_kappa"].append(fname)
        est = analyze_record(record, pconf, filters)
        rep = witness_from_estimate(est)
        del record  # let go before the next file is read: one record at a time
        factors["per_file"][fname] = {"calibration": est.calibration}
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
    table = [text_columns(ANALYZE_COLUMNS, rows)]
    outputs = {csv_path: write_csv(csv_path, ANALYZE_COLUMNS, table, name),
               json_path: write_json(json_path, summary)}
    factors["default_kappa"].sort()
    manifest["factors"] = factors
    finish_manifest(out_dir, name, manifest, outputs)
    print(f"analyzed {len(rows)} records into {csv_path} / {json_path}")
    return 0


# ---------------------------------------------------------------------------
# converge

def _cells(cells, name: str) -> list[tuple[float, float]]:
    """The (T, B) of each cell of a JSON list, its fields named by place (name[i].T)."""
    def cell(i, c):
        with fields_of(c, f"{name}[{i}]") as read:
            return read("T", real), read("B", real)

    return _checked_cells([cell(i, c) for i, c in enumerate(cells)], name)


CONVERGE_COLUMNS = ["T", "B", "n_eff", "nu_mean", "nu_stderr", "duan_mean", "duan_stderr", "n_runs"]
CROSSING_COLUMNS = ["T", "B", "g_cross", "sigma"]


def _crossing(section, name: str):
    """(n, g_values, (runs_per_cell, plans)) of a crossing section: every cell
    is planned before the sweep draws a record."""
    with fields_of(section, name) as read:
        n, g_values = read("n", real, at_least=0.0), read("g_values", _checked_couplings)
        plans = _cell_plans(read("cells", _cells), read("runs_per_cell", count, 12, at_least=2),
                            read("segments_per_record", count, 24, at_least=2), f"{name}.cells")
    return n, g_values, plans


def cmd_converge(config: dict, out_dir: Path, seed, threads: int) -> int:
    with fields_of(config) as read:
        master_seed = read("master_seed", count, 0)
        params = read("params", ModelParams)
        cells = read("cells", _cells)
        read("segment_statistic", _segment_statistic, None)
        runs_per_cell = read("runs_per_cell", count, 16, at_least=2)
        segments_per_record = read("segments_per_record", count, 24, at_least=2)
        # absent or null means no scan; a bad field writes nothing
        crossing = read("crossing", _crossing, None)
    master_seed = master_seed if seed is None else seed
    name, manifest = make_manifest("converge", config, master_seed, threads)
    A, D = steady_dynamics(params)
    result = convergence_sweep(
        A, D, cells, runs_per_cell, segments_per_record, master_seed, params.kappa_a
    )
    # every number is computed before any output is opened
    if crossing is not None:
        n, g_values, plans = crossing
        rows = _crossing_rows(params.kappa_a, n, g_values, *plans, master_seed)
    csv_path = out_dir / "converge.csv"
    table = [text_columns(CONVERGE_COLUMNS, result["rows"])]
    outputs = {csv_path: write_csv(csv_path, CONVERGE_COLUMNS, table, name)}
    summary = {
        "manifest": name,
        "slope_nu": result["slope_nu"],
        "slope_duan": result["slope_duan"],
        "cells": len(cells),
    }

    if crossing is not None:
        cross_path = out_dir / "crossing.csv"
        table = [text_columns(CROSSING_COLUMNS, rows)]
        outputs[cross_path] = write_csv(cross_path, CROSSING_COLUMNS, table, name)
        summary["crossing_cells"] = len(rows)

    json_path = out_dir / "converge_summary.json"
    outputs[json_path] = write_json(json_path, summary)
    finish_manifest(out_dir, name, manifest, outputs)
    print(f"wrote {csv_path} (slopes: nu {result['slope_nu']:.3f}, duan {result['slope_duan']:.3f})")
    return 0


# ---------------------------------------------------------------------------
# thresholds

def _threshold_report(config: dict) -> dict:
    # NoiseInputSpec refuses two sources of S_V0
    for pair in (("kappa", "ringdown_time"), ("omega_col", "f_col"), ("G_over_kappa", "C_corr")):
        if all(config.get(key) is not None for key in pair):
            raise ValidationError("give '{}' or '{}', not both".format(*pair))
    with fields_of(config) as read:
        kappa = read("kappa", real, None, above=0.0)
        ringdown_time = read("ringdown_time", real, None, above=0.0)
        f_col = read("f_col", real, None)
        # NoiseInputSpec checks its own fields, in its own order
        inputs = {f.name: read(f.name, lambda value, name: value, None)
                  for f in dataclasses.fields(NoiseInputSpec)}
        c_corr = read("C_corr", real, None)
        g_over_kappa = read("G_over_kappa", real, None, at_least=0.0)
        v_col = read("V_col", real, None)
        t_int = read("T_int", real, 1.0)
    kappa_formula = "given"
    if ringdown_time is not None:
        kappa = 1.0 / ringdown_time
        kappa_formula = "1/ringdown_time"
    if f_col is not None:
        inputs["omega_col"] = 2.0 * np.pi * f_col
    spec = NoiseInputSpec(**inputs)
    report: dict = {"inputs": spec.to_dict()}
    if kappa is not None:
        report["kappa"] = {"value": kappa, "formula": kappa_formula}

    n_eff, clamped = n_eff_from_noise(spec)
    report["n_eff"] = {
        "value": n_eff,
        "clamped": clamped,
        "formula": "(C_eff*S_V0*B/(hbar*omega_col) - 1)/2",
    }

    # C_corr is given, or derived from G_over_kappa; a G_over_kappa that
    # cannot give one is refused, never dropped
    if g_over_kappa is not None:
        if kappa is None:
            raise ValidationError("G_over_kappa needs 'kappa' or 'ringdown_time'")
        if n_eff == 0.0:
            raise ValidationError(
                "G_over_kappa gives no cooperativity at n_eff = 0; "
                "use the PT eigenvalue criterion directly"
            )
        c_corr = cooperativity(g_over_kappa * kappa, kappa, n_eff)
        report["cooperativity"] = {
            "value": c_corr,
            "formula": "(2G/kappa)*(n_eff+1)/n_eff",
        }

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

    if v_col is not None:
        n_col = collective_occupation(v_col, spec.C_eff, spec.omega_col)
        report["N_col"] = {"value": n_col, "formula": "C_eff*V_col^2/(2*hbar*omega_col)"}
        if kappa is not None:
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
    finish_manifest(out_dir, name, manifest, {out: write_json(out, report)})
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
    _fix_heap_thresholds()
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
    except MemoryError as exc:
        # a record too large to allocate is an input this machine cannot take
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
