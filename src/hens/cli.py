"""Deterministic command-line front end.

Subcommands ``dephase``, ``invert``, ``landscape``, ``witness`` and
``simulate`` read a JSON config (flags override file fields; each flag is its
field path in kebab case, as declared once in ``FIELDS``) and emit flat
CSV/JSON data files.  Output is a deterministic function of the config, files
are written atomically, and every numeric is printed with 17 significant
digits.

Exit codes: 0 success, 2 config error, 3 numerical-precondition failure,
4 sampling impossibility (negative quasi-distribution weights).  ``main()`` is
the one place that sets them: every failure below it raises ``ConfigError``
carrying its code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from .dephasing import (
    CoefficientSingularityError,
    DephasingSeries,
    SpectralDensityModel,
    dephasing_conventional,
    dephasing_extended,
    extended_exponents,
    master_coeffs,
    propagate_master,
    time_grid,
)
from .ensemble import (
    NEGATIVE_TOL,
    HamiltonianEnsemble,
    SpectralEnsemble,
    _coherence_factor,
    cnot_ensemble,
    dephase_qubit,
    dilate,
    he_average,
    joint_evolve_reduce,
    require_uniform_grid,
    sample_frequencies,  # noqa: F401  bench/spans.py wraps this name
    sampled_coherence,
)
from .inversion import (
    bochner_search,
    conjugate_frequency_grid,
    forward_ft,
    inverse_ft,
    negativity_landscape,
    on_conjugate_grid,
)
from .qdyn import DensityMatrix, HermitianOperator, maximally_mixed, pure_state, trace_distance


TABLE_BLOCK = 4096  # rows of a table formatted per call


class ConfigError(Exception):
    """A failure that ``main`` reports as ``hens <cmd>: <message>``, exiting with
    ``code``: 2 config error, 3 numerical precondition, 4 sampling impossibility."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


# Every config field: path -> (default, the JSON types it takes when the default
# does not show them, the argparse options of its flag --<path in kebab case>,
# or None for a field read only from the config file, and for a count the
# largest value it takes).  A null default keeps null allowed; a number field
# also takes an integer; no field takes a boolean.  A count's bound keeps the
# array it sizes within COUNT_BYTES: the bytes of one unit are noted beside it.
COUNT_BYTES = 1 << 30
FIELDS = {
    "model.kind": ("ohmic_exp_cutoff", None, {"choices": ["ohmic_exp_cutoff", "tabulated"]},
                   None),
    "model.omega_c": (1.0, None, {"metavar": "W", "help": "Ohmic cutoff frequency"}, None),
    "model.temperature": (0.0, None, {"metavar": "T"}, None),
    "model.path": (None, (str,),
                   {"metavar": "FILE", "help": "two-column text with omega, J(omega)"}, None),
    "mode": ("conventional", None, {"choices": ["conventional", "extended"]}, None),
    "omega0": (0.0, None, {"metavar": "W", "help": "system level splitting"}, None),
    "phase": (0.0, None,
              {"metavar": "RAD", "help": "relative coupling phase of the extended model"}, None),
    "grid.t_max": (None, (float,), {"metavar": "T"}, None),
    # a row of dephase's four float columns per point: 32 B
    "grid.n": (65536, None, {"metavar": "POW2"}, COUNT_BYTES // 32),
    "window.omega_lo": (-10.0, None, {"metavar": "W"}, None),
    "window.omega_hi": (10.0, None, {"metavar": "W"}, None),
    # a landscape cell in each of the TABLE_BLOCK rows formatted at once, as a Python
    # float in a list and a tuple plus its 24 characters of text: 64 B each
    "phases.count": (64, None, {"metavar": "N"}, COUNT_BYTES // (64 * TABLE_BLOCK)),
    # a floor per restart, were all held at once: 8 B
    "witness.restarts": (10000, None, {"metavar": "N"}, COUNT_BYTES // 8),
    # a Gram matrix of s x s complex entries: 16 s^2 B
    "witness.max_set_size": (8, None, {"metavar": "N"}, math.isqrt(COUNT_BYTES // 16)),
    "witness.stop_below": (None, (float,), {
        "metavar": "EIG", "help": "stop once an eigenvalue below this is found"}, None),
    "series.path": (None, (str,),
                    {"metavar": "FILE", "help": "invert a phi.csv series instead of a model"},
                    None),
    "ensemble.kind": (None, (str,), {"choices": ["discrete", "spectral", "cnot"]}, None),
    "ensemble.members": (None, (list,), None, None),
    "ensemble.path": (None, (str,),
                      {"metavar": "FILE", "help": "two-column text with omega, weight"}, None),
    "ensemble.a": (0.5, None, {"metavar": "A", "help": "cnot mixing weight"}, None),
    "ensemble.j": (1.0, None, {"metavar": "J", "help": "cnot coupling strength"}, None),
    # the dilation's joint Hamiltonian of (2 bins)^2 complex entries: 64 bins^2 B
    "ensemble.bins": (32, None,
                      {"metavar": "N", "help": "bins for discretizing a spectral ensemble"},
                      math.isqrt(COUNT_BYTES // 64)),
    "rho0": ("plus", (str, list), {"help": "plus | up | down | mixed"}, None),
    "times.t_max": (10.0, None, {"metavar": "T"}, None),
    # a 2 x 2 complex state held as its own array (~180 B) by each of four routes,
    # and its stacked copy: 1 KiB per time
    "times.count": (21, None, {"metavar": "N"}, COUNT_BYTES // 1024),
    "times.list": (None, (list,), None, None),
    # a float draw, were all held at once (8 B); the mc route holds one MC_BLOCK of them
    "mc.samples": (100000, None, {"metavar": "N"}, COUNT_BYTES // 8),
    "paths": (None, (str, list),
              {"metavar": "LIST", "help": "comma-joined subset of he,dilation,mc,master"}, None),
    "seed": (12345, None, {"metavar": "INT"}, None),
    "output.dir": (".", None, {"metavar": "DIR", "help": "output directory"}, None),
    "output.format": ("csv", None, {"choices": ["csv", "json"]}, None),
}
# bounds of two-field products: the state entries one simulate route holds (as many
# as times.count at its bound of 2 x 2 states) and the cells of a landscape, 8 B each
STATE_ENTRIES, LANDSCAPE_CELLS = FIELDS["times.count"][3] * 4, COUNT_BYTES // 8
# the paths of the objects that hold fields: every prefix of a field path ending at a dot
SECTIONS = {path[:i] for path in FIELDS for i, c in enumerate(path) if c == "."}
TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list"}
INT64 = np.iinfo(np.int64)


def _types(path: str) -> tuple:
    default, types, _, _ = FIELDS[path]
    return types or (type(default),)


def _fmt(x) -> str:
    return f"{float(x):.16e}"


def _object_once(pairs: list) -> dict:
    """A JSON object of the config file, whose keys must differ: json.load would keep
    the last of two equal keys and drop the other without a word."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"config key {key!r} appears twice in one object")
        seen.add(key)
    return dict(pairs)


def _file_fields(loaded: dict, prefix: str, cfg: dict) -> list[str]:
    """Set in cfg each field of a config file object, keyed by its FIELDS path, and
    return the path of each object of fields that the file gives another value.
    Raises ConfigError naming the first key path, in file order, that is neither a
    field nor an object of fields; a key holding a dot is neither.  A field's value,
    a list or not, is not descended into."""
    not_objects = []
    for key, value in loaded.items():
        path = prefix + key
        if "." in key or path not in FIELDS and path not in SECTIONS:
            raise ConfigError(f"unknown config field {path!r}")
        if path in FIELDS:
            cfg[path] = value
        elif isinstance(value, dict):
            not_objects += _file_fields(value, path + ".", cfg)
        else:
            not_objects.append(path)
    return not_objects


def load_config(args: argparse.Namespace) -> dict:
    """The defaults, overridden by the --config file, overridden by the flags, as a
    flat dict keyed by the FIELDS paths (each flag's argparse dest).

    Raises ConfigError naming the first key of the file that is no field, or the
    first field whose JSON type the table does not allow, whose number is NaN,
    infinite or past the float range, or whose integer is past the int64 range
    or, for a count, past the field's bound.  A field the subcommand does not
    read is accepted, so that one file can serve every subcommand.
    """
    cfg = {path: field[0] for path, field in FIELDS.items()}
    config = getattr(args, "config", None)
    if config:
        try:
            with open(config) as fh:
                loaded = json.load(fh, object_pairs_hook=_object_once)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        not_objects = _file_fields(loaded, "", cfg)
        if not_objects:
            raise ConfigError(f"config field {not_objects[0]!r} must be an object")
    for path in FIELDS:
        value = getattr(args, path, None)
        if value is not None:
            cfg[path] = value
        value = cfg[path]
        if value is None and FIELDS[path][0] is None:
            continue
        kinds = _types(path)
        allowed = tuple((int, float) if k is float else k for k in kinds)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(f"config field {path!r} must be "
                              + " or ".join(TYPE_NAMES[k] for k in kinds))
        # NaN fails this comparison, and so do ±inf and integers past the float range
        if float in kinds and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"config field {path!r} must be finite")
        # counts and seeds reach numpy as int64, and a count stays within its bound:
        # a larger one fails here, allocating nothing
        bound = FIELDS[path][3]
        if int in kinds and not INT64.min <= value <= (INT64.max if bound is None else bound):
            raise ConfigError(f"config field {path!r} is out of range"
                              + ("" if bound is None else f" (at most {bound})"))
    return cfg


def build_model(cfg: dict) -> SpectralDensityModel:
    kind, temperature = cfg["model.kind"], cfg["model.temperature"]
    try:
        if kind == "ohmic_exp_cutoff":
            return SpectralDensityModel.ohmic(cfg["model.omega_c"], temperature=temperature)
        if kind == "tabulated":
            if not cfg["model.path"]:
                raise ConfigError("tabulated model needs model.path")
            table = read_table(cfg["model.path"], 2)
            return SpectralDensityModel.tabulated(table[:, 0], table[:, 1],
                                                  temperature=temperature)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad spectral density model: {exc}")
    raise ConfigError(f"unknown model kind {kind!r}")


def build_grid(cfg: dict, omega_scale: float = 1.0) -> np.ndarray:
    t_max = cfg["grid.t_max"]
    try:
        return time_grid(float(200.0 / omega_scale if t_max is None else t_max),
                         int(cfg["grid.n"]))
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}")


def build_series(cfg: dict) -> DephasingSeries:
    model = build_model(cfg)
    grid = build_grid(cfg, model.omega_scale())
    omega0, phase = float(cfg["omega0"]), float(cfg["phase"])
    try:
        if cfg["mode"] == "conventional":
            return dephasing_conventional(model, omega0, grid)
        if cfg["mode"] == "extended":
            return dephasing_extended(model, phase, grid)
    except ValueError as exc:
        raise ConfigError(str(exc))
    raise ConfigError(f"unknown mode {cfg['mode']!r}")


def _out_dir(cfg: dict) -> str:
    d = cfg["output.dir"]
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {d}: {exc}")
    if not os.access(d, os.W_OK):
        raise ConfigError(f"output directory {d} is not writable")
    if cfg["output.format"] not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")
    return d


def _write_atomic(path: str, parts) -> None:
    """Write the strings of ``parts`` to path, which holds all of them or is untouched."""
    d, name = os.path.split(path)
    tmp = os.path.join(d, f".tmp-{os.getpid()}-{os.urandom(4).hex()}-{name}")
    # mode 0o666 lets the umask decide the final permissions
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(cfg: dict, stem: str, header: list[str], columns: list[np.ndarray]) -> str:
    """Emit named columns as CSV or JSON per output.format."""
    d = _out_dir(cfg)
    table = np.column_stack(columns)
    fields = ["%.16e"] * table.shape[1]  # the format of _fmt
    if cfg["output.format"] == "csv":
        path = os.path.join(d, stem + ".csv")
        head, row, sep, tail = ",".join(header) + "\n", ",".join(fields) + "\n", "", ""
    else:
        path = os.path.join(d, stem + ".json")
        head = '{\n  "columns": %s,\n  "rows": [\n' % json.dumps(header)
        row, sep, tail = "    [" + ", ".join(fields) + "]", ",\n", "\n  ]\n}\n"

    def text():
        # one %-template per block of rows, filled in one call; a block at a
        # time keeps the text held in memory small
        yield head
        for i in range(0, len(table), TABLE_BLOCK):
            block = table[i:i + TABLE_BLOCK]
            yield (sep if i else "") + sep.join([row] * len(block)) % tuple(block.ravel().tolist())
        yield tail

    _write_atomic(path, text())
    return path


def write_json(cfg: dict, name: str, obj) -> str:
    path = os.path.join(_out_dir(cfg), name)
    _write_atomic(path, [_json_text(obj, 0) + "\n"])
    return path


def _json_text(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  "{k}": {_json_text(v, indent + 1).lstrip()}' for k, v in obj.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_json_text(v, indent + 1).lstrip() for v in obj]
        return pad + "[" + ", ".join(items) + "]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _fmt(obj)
    if obj is None:
        return pad + "null"
    return pad + json.dumps(obj)


def cmd_dephase(cfg: dict) -> None:
    series = build_series(cfg)
    write_table(
        cfg, "phi",
        ["t", "re_phi", "im_phi", "abs_phi"],
        [series.times, series.values.real, series.values.imag, np.abs(series.values)],
    )


def read_table(path: str, columns: int) -> np.ndarray:
    """Numeric table with at least ``columns`` columns, as a 2-d array.

    Entries are separated by commas or whitespace (the first line decides),
    an optional first line that does not parse as numbers is a header, and
    every entry must be finite.
    """
    try:
        with open(path) as fh:
            first = fh.readline()
        try:
            [float(x) for x in first.replace(",", " ").split()]
            skip = 0
        except ValueError:
            skip = 1
        with warnings.catch_warnings():  # an empty table is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter="," if "," in first else None,
                              skiprows=skip, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read table {path}: {exc}")
    if data.shape[0] == 0:
        raise ConfigError(f"{path} holds no rows")
    if data.shape[1] < columns:
        raise ConfigError(f"{path}: expected at least {columns} columns")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{path}: non-finite entry")
    return data


def cmd_invert(cfg: dict) -> None:
    if cfg["series.path"]:
        data = read_table(cfg["series.path"], 3)
        try:
            series = DephasingSeries(data[:, 0], data[:, 1] + 1j * data[:, 2])
        except ValueError as exc:
            raise ConfigError(str(exc), 3)
    else:
        series = build_series(cfg)
    try:
        dist = inverse_ft(series)
    except ValueError as exc:
        raise ConfigError(str(exc))
    write_table(cfg, "wp", ["omega", "wp"], [dist.omega, dist.values])
    write_json(cfg, "diagnostics.json", {
        "norm": dist.norm,
        "min_value": dist.min_value,
        "negativity": dist.negativity,
        "realness_residual": dist.realness_residual,
    })


def cmd_landscape(cfg: dict) -> None:
    model = build_model(cfg)
    if cfg["mode"] != "extended":
        raise ConfigError("landscape requires mode = extended")
    count = int(cfg["phases.count"])
    if count < 1:
        raise ConfigError("phases.count must be positive")
    phases = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    grid = build_grid(cfg, model.omega_scale())
    window = (float(cfg["window.omega_lo"]), float(cfg["window.omega_hi"]))
    if not window[0] < window[1]:
        raise ConfigError("empty frequency window")
    try:
        omega = conjugate_frequency_grid(grid)
    except ValueError as exc:
        raise ConfigError(str(exc))
    inside = int(np.count_nonzero((omega >= window[0]) & (omega <= window[1])))
    if inside * count > LANDSCAPE_CELLS:
        raise ConfigError(f"config fields 'grid.n' and 'phases.count' are out of range together: "
                          f"{inside} window frequencies x {count} phases (at most "
                          f"{LANDSCAPE_CELLS} cells)")
    try:
        exponent, drift = extended_exponents(model, grid)
        omega, phases, cells = negativity_landscape(exponent, drift, phases, window, grid)
    except ValueError as exc:
        raise ConfigError(str(exc))
    header = ["omega"] + [f"phi={_fmt(p)}" for p in phases]
    write_table(cfg, "landscape", header, [omega] + [cells[:, j] for j in range(phases.size)])


def cmd_witness(cfg: dict) -> None:
    series = build_series(cfg)
    stop = cfg["witness.stop_below"]
    try:
        report, used = bochner_search(
            series,
            restarts=int(cfg["witness.restarts"]),
            seed=int(cfg["seed"]),
            max_size=int(cfg["witness.max_set_size"]),
            stop_below=None if stop is None else float(stop),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    write_json(cfg, "bochner.json", {
        "times": list(report.times),
        "min_eigenvalue": report.min_eigenvalue,
        "matrix_dim": report.matrix_dim,
        "restarts_used": used,
        "seed": int(cfg["seed"]),
    })


def _number(value, field: str) -> float:
    """A JSON number inside a config list, as a float; ConfigError names the field otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {field!r} must hold numbers, not {value!r}")
    if isinstance(value, int) and not abs(value) <= sys.float_info.max:  # float() would raise
        raise ConfigError(f"config field {field!r} is out of range")
    return float(value)


def _parse_matrix(entries, field: str) -> np.ndarray:
    def scal(v):
        if isinstance(v, list):
            if len(v) != 2:
                raise ConfigError(f"config field {field!r}: complex entries are [re, im] pairs")
            return complex(_number(v[0], field), _number(v[1], field))
        return complex(_number(v, field), 0.0)

    try:
        return np.array([[scal(v) for v in row] for row in entries], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {field!r} holds a bad matrix: {exc}")


def _parse_rho0(value) -> DensityMatrix:
    presets = {
        "plus": lambda: pure_state([1.0, 1.0]),
        "up": lambda: pure_state([1.0, 0.0]),
        "down": lambda: pure_state([0.0, 1.0]),
        "mixed": lambda: maximally_mixed(2),
    }
    try:
        if isinstance(value, str):
            if value not in presets:
                raise ConfigError(f"unknown rho0 preset {value!r}")
            return presets[value]()
        return DensityMatrix(_parse_matrix(value, "rho0"))
    except ValueError as exc:
        raise ConfigError(f"bad rho0: {exc}")


def _requested_paths(cfg: dict, kind: str) -> list[str]:
    paths = cfg["paths"]
    if paths is None:
        paths = ["he", "dilation", "mc", "master"] if kind == "spectral" else ["he", "dilation"]
    if isinstance(paths, str):
        paths = [p for p in paths.split(",") if p]
    if not paths:
        raise ConfigError("config field 'paths' names no simulation path")
    bad = [p for p in paths if p not in ("he", "dilation", "mc", "master")]
    if bad:
        raise ConfigError(f"unknown simulation paths: {bad}")
    repeated = sorted({p for p in paths if paths.count(p) > 1})
    if repeated:
        raise ConfigError(f"simulation paths named more than once: {repeated}")
    if kind != "spectral":
        unsupported = set(paths) & {"mc", "master"}
        if unsupported:
            raise ConfigError(f"paths {sorted(unsupported)} require a spectral ensemble")
    return list(paths)


def _output_times(cfg: dict) -> np.ndarray:
    listed, t_max, count = cfg["times.list"], cfg["times.t_max"], cfg["times.count"]
    if listed is not None:
        if not listed:
            raise ConfigError("config field 'times.list' is empty")
        times = np.array([_number(x, "times.list") for x in listed])
    else:
        if not 0.0 < t_max or count < 1:
            raise ConfigError("times.t_max must be positive and times.count >= 1")
        times = np.linspace(0.0, float(t_max), int(count))
    if not np.all((times >= 0) & np.isfinite(times)):
        raise ConfigError("output times must be finite and nonnegative")
    return times


def _master_route(cfg: dict, omega: np.ndarray, weights: np.ndarray, rho0: DensityMatrix,
                  times: np.ndarray) -> tuple[list[DensityMatrix], np.ndarray]:
    """The master route's states, and the output times moved onto its step grid.
    Its grid-sized arrays are released on return, before any later route runs."""
    # without an explicit grid, a table in FFT layout (the conjugate of a
    # time grid of its own size) keeps that grid, so the transform runs on
    # the exact FFT pair; any other table gets the configured grid
    grid = None
    n_om = omega.size
    if cfg["grid.t_max"] is None and n_om >= 4 and not (n_om & (n_om - 1)):
        conjugate = time_grid(np.pi / (omega[1] - omega[0]), n_om)
        if on_conjugate_grid(omega, conjugate):
            grid = conjugate
    if grid is None:
        grid = build_grid(cfg)
    if times.max() > grid[-1]:  # before the grid indices below can overflow
        raise ConfigError("output times exceed the master-equation grid")
    dt = float(grid[1] - grid[0])
    stride = 2.0 * dt
    k_idx = np.rint(times / stride).astype(int)
    # grid points 0..last, at least one RK4 step; the centered
    # differences there reach from -dt to (last + 1) dt
    last = max(2 * int(k_idx.max()), 2)
    if not on_conjugate_grid(omega, grid):
        # direct summation costs one row per time: sum only the smallest
        # symmetric power-of-two subgrid that holds that reach
        half = min(grid.size, 1 << (2 * last + 3).bit_length()) // 2
        grid = grid[grid.size // 2 - half : grid.size // 2 + half]
    try:
        series = forward_ft((omega, weights), grid)
        t_all, eps, gam = master_coeffs(series, -1.5 * dt, (last + 1.5) * dt)
    except CoefficientSingularityError as exc:
        raise ConfigError(str(exc), 3)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if last >= t_all.size:
        raise ConfigError("output times exceed the master-equation grid")
    try:
        _, factors = propagate_master(t_all[:last + 1], eps[:last + 1], gam[:last + 1])
    except ValueError as exc:  # a step factor past unit modulus: unresolved coefficients
        raise ConfigError(str(exc), 3)
    return dephase_qubit(rho0, factors[k_idx]), k_idx * stride


def cmd_simulate(cfg: dict) -> None:
    kind = cfg["ensemble.kind"]
    if kind not in ("discrete", "spectral", "cnot"):
        raise ConfigError("ensemble.kind must be discrete, spectral or cnot")
    rho0 = _parse_rho0(cfg["rho0"])
    times = _output_times(cfg)
    paths = _requested_paths(cfg, kind)
    seed, bins, samples = int(cfg["seed"]), int(cfg["ensemble.bins"]), int(cfg["mc.samples"])
    if bins < 1 or samples < 1:
        raise ConfigError("ensemble.bins and mc.samples must be positive")

    flags: dict[str, object] = {"weights_nonnegative": True}
    if kind == "spectral":
        table = cfg["ensemble.path"]
        if not table:
            raise ConfigError("spectral ensemble needs ensemble.path")
        omega, weights = read_table(table, 2)[:, :2].T
        try:
            require_uniform_grid(omega)
        except ValueError as exc:
            raise ConfigError(f"{table}: {exc}")
        mass = float(np.trapezoid(weights, omega))
        if abs(mass - 1.0) > 1e-3:
            raise ConfigError("spectral weights are not normalized")
        weights = weights / mass
        negative = bool(np.min(weights) < -NEGATIVE_TOL)
        flags["weights_nonnegative"] = not negative
        if negative and ({"mc", "dilation"} & set(paths)):
            raise ConfigError("not a probability distribution - cannot sample "
                              "(negative weights; a nonclassicality signal)", 4)
        if {"mc", "dilation"} & set(paths):
            spectral = SpectralEnsemble(omega, weights)
        if "dilation" in paths:
            ens = spectral.discretize(bins)
    elif kind == "cnot":
        a, j = float(cfg["ensemble.a"]), float(cfg["ensemble.j"])
        if not 0.0 <= a <= 1.0:
            raise ConfigError("cnot mixing weight must lie in [0, 1]")
        ens = cnot_ensemble(a, j)
    else:
        members = cfg["ensemble.members"]
        if not members:
            raise ConfigError("discrete ensemble needs members [[p, matrix], ...]")
        for m in members:
            if not (isinstance(m, list) and len(m) == 2):
                raise ConfigError(f"config field 'ensemble.members' holds [p, matrix] pairs, "
                                  f"not {m!r}")
        try:
            probs = [_number(m[0], "ensemble.members") for m in members]
            hams = tuple(HermitianOperator(_parse_matrix(m[1], "ensemble.members"))
                         for m in members)
            ens = HamiltonianEnsemble(probs, hams)
        except (TypeError, ValueError, LookupError) as exc:
            raise ConfigError(f"bad ensemble: {exc}")
    dim = 2 if kind == "spectral" else ens.dim  # a spectral ensemble acts on one qubit
    if rho0.dim != dim:
        raise ConfigError("rho0 dimension differs from the ensemble")
    if times.size * dim * dim > STATE_ENTRIES:
        fields = ("times.count" if cfg["times.list"] is None else "times.list",
                  "ensemble.members" if kind == "discrete" else "ensemble.kind")
        raise ConfigError("config fields %r and %r are out of range together: %d times of "
                          "%d x %d states (at most %d entries)"
                          % (*fields, times.size, dim, dim, STATE_ENTRIES))

    states: dict[str, list[DensityMatrix]] = {}
    if "master" in paths:  # spectral ensembles only, see _requested_paths
        states["master"], times = _master_route(cfg, omega, weights, rho0, times)
    try:  # a phase w t past the float range, or a signed table's factor past unit modulus
        if "he" in paths:
            states["he"] = (dephase_qubit(rho0, _coherence_factor(omega, weights, times))
                            if kind == "spectral" else he_average(ens, rho0, times))
        if "dilation" in paths:
            states["dilation"], flags["classical_ok"] = joint_evolve_reduce(dilate(ens), rho0,
                                                                            times)
        if "mc" in paths:  # spectral ensembles only, see _requested_paths
            means, stderrs = sampled_coherence(spectral, samples, seed, times)
            states["mc"] = dephase_qubit(rho0, means)
            flags["mc_max_stderr"] = float(stderrs.max())
    except ValueError as exc:
        raise ConfigError(str(exc))

    emitted = [p for p in ("he", "dilation", "mc", "master") if p in states]
    header, columns = ["t"], [np.asarray(times)]
    for label in emitted:
        stack = np.array([s.matrix for s in states[label]])
        for i, j in itertools.product(range(dim), repeat=2):
            header += [f"{label}_re_{i}{j}", f"{label}_im_{i}{j}"]
            columns += [stack[:, i, j].real, stack[:, i, j].imag]
    write_table(cfg, "state", header, columns)

    distances = {f"{a}_vs_{b}": max(trace_distance(x, y) for x, y in zip(states[a], states[b]))
                 for a, b in itertools.combinations(emitted, 2)}
    write_json(cfg, "consistency.json", {
        "pairwise_max_trace_distance": distances, **flags, "seed": seed,
    })


COMMON = ("output.dir", "output.format", "seed")
MODEL = ("model.kind", "model.omega_c", "model.temperature", "model.path", "mode",
         "grid.t_max", "grid.n")
SERIES = MODEL + ("omega0", "phase")  # the system parameters of one dephasing series
# subcommand -> (handler, help, fields that take a flag, in help order)
COMMANDS = {
    "dephase": (cmd_dephase, "emit the dephasing factor phi(t)", SERIES),
    "invert": (cmd_invert, "recover the simulating (quasi-)distribution",
               SERIES + ("series.path",)),
    "landscape": (cmd_landscape, "negative contributions over (omega, phase)",
                  MODEL + ("phases.count", "window.omega_lo", "window.omega_hi")),
    "witness": (cmd_witness, "search for a positive-definiteness violation",
                SERIES + ("witness.restarts", "witness.max_set_size", "witness.stop_below")),
    "simulate": (cmd_simulate, "evolve an ensemble by every applicable route",
                 ("grid.t_max", "grid.n", "ensemble.kind", "ensemble.path", "ensemble.a",
                  "ensemble.j", "ensemble.bins", "rho0", "times.t_max", "times.count",
                  "mc.samples", "paths")),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hens",
        description="Simulate qubit dephasing with Hamiltonian ensembles and "
                    "witness nonclassicality of the dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, fields) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", metavar="FILE", help="JSON config file")
        for path in COMMON + fields:
            p.add_argument("--" + path.replace(".", "-").replace("_", "-"), dest=path,
                           type=_types(path)[0], **FIELDS[path][2])
        p.set_defaults(func=handler)
    # the landscape sweeps the extended model's phases; --mode conventional exits 2
    sub.choices["landscape"].set_defaults(mode="extended")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place that reports a failure and sets the exit code."""
    args = make_parser().parse_args(argv)
    try:
        args.func(load_config(args))
    except ConfigError as exc:
        print(f"hens {args.command}: {exc}", file=sys.stderr)
        return exc.code
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
