"""Deterministic command-line front end.

Subcommands ``dephase``, ``invert``, ``landscape``, ``witness`` and
``simulate`` read a JSON config (flags override file fields, kebab-case flag
names mirror the field paths) and emit flat CSV/JSON data files.  Output is a
deterministic function of the config, files are written atomically, and every
numeric is printed with 17 significant digits.

Exit codes: 0 success, 2 config error, 3 numerical-precondition failure,
4 sampling impossibility (negative quasi-distribution weights).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

import numpy as np

from .dephasing import (
    CoefficientSingularityError,
    DephasingSeries,
    SpectralDensityModel,
    dephasing_conventional,
    dephasing_extended,
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
    mc_coherence,
    require_uniform_grid,
    sample_frequencies,
)
from .inversion import (
    SeriesSymmetryError,
    bochner_search,
    forward_ft,
    inverse_ft,
    negativity_landscape,
    on_conjugate_grid,
)
from .qdyn import DensityMatrix, HermitianOperator, maximally_mixed, pure_state, trace_distance


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "model": {"kind": "ohmic_exp_cutoff", "omega_c": 1.0, "temperature": 0.0, "path": None},
    "mode": "conventional",
    "omega0": 0.0,
    "phase": 0.0,
    "grid": {"t_max": None, "n": 65536},
    "window": {"omega_lo": -10.0, "omega_hi": 10.0},
    "phases": {"count": 64},
    "witness": {"restarts": 10000, "max_set_size": 8, "stop_below": None},
    "series": {"path": None},
    "ensemble": {"kind": None, "members": None, "path": None, "a": 0.5, "j": 1.0, "bins": 32},
    "rho0": "plus",
    "times": {"t_max": 10.0, "count": 21, "list": None},
    "mc": {"samples": 100000},
    "paths": None,
    "seed": 12345,
    "output": {"dir": ".", "format": "csv"},
}

# JSON types of the fields whose default does not show them: the fields whose
# default is null (null stays allowed there), and rho0, a preset or a matrix
FIELD_TYPES = {
    "model.path": (str,), "grid.t_max": (float,), "witness.stop_below": (float,),
    "series.path": (str,), "ensemble.kind": (str,), "ensemble.members": (list,),
    "ensemble.path": (str,), "times.list": (list,), "paths": (str, list), "rho0": (str, list),
}
TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list"}


def _fmt(x) -> str:
    return f"{float(x):.16e}"


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in extra.items():
        if isinstance(out.get(k), dict):
            if not isinstance(v, dict):
                raise ConfigError(f"config field {k!r} must be an object")
            out[k] = _merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def load_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        cfg = _merge(cfg, loaded)
    # kebab-case flags --a-b-c override field paths a.b_c
    for key, value in vars(args).items():
        if value is None or key in ("config", "command", "func"):
            continue
        parts = key.split("__")
        node = cfg
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    _check_types(cfg, DEFAULTS)
    return cfg


def _check_types(cfg: dict, defaults: dict, prefix: str = "") -> None:
    """Raise ConfigError naming the first field whose JSON type its default does not allow.

    A number field also takes an integer; no field takes a boolean.
    """
    for key, default in defaults.items():
        name, value = prefix + key, cfg[key]
        if isinstance(default, dict):
            _check_types(value, default, name + ".")
            continue
        if value is None and default is None:
            continue
        kinds = FIELD_TYPES.get(name, (type(default),))
        allowed = tuple((int, float) if k is float else k for k in kinds)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(f"config field {name!r} must be "
                              + " or ".join(TYPE_NAMES[k] for k in kinds))


def build_model(cfg: dict) -> SpectralDensityModel:
    m = cfg["model"]
    try:
        if m["kind"] == "ohmic_exp_cutoff":
            return SpectralDensityModel.ohmic(m["omega_c"], temperature=m["temperature"])
        if m["kind"] == "tabulated":
            if not m.get("path"):
                raise ConfigError("tabulated model needs model.path")
            table = read_table(m["path"], 2)
            return SpectralDensityModel.tabulated(table[:, 0], table[:, 1],
                                                  temperature=m["temperature"])
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad spectral density model: {exc}")
    raise ConfigError(f"unknown model kind {m['kind']!r}")


def build_grid(cfg: dict, omega_scale: float = 1.0) -> np.ndarray:
    g = cfg["grid"]
    t_max = g["t_max"] if g["t_max"] is not None else 200.0 / omega_scale
    try:
        return time_grid(float(t_max), int(g["n"]))
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}")


def build_series(cfg: dict) -> DephasingSeries:
    model = build_model(cfg)
    grid = build_grid(cfg, model.omega_scale())
    try:
        omega0, phase = float(cfg["omega0"]), float(cfg["phase"])
    except (TypeError, ValueError):
        raise ConfigError("omega0 and phase must be numbers")
    if not (math.isfinite(omega0) and math.isfinite(phase)):
        raise ConfigError("omega0 and phase must be finite")
    try:
        if cfg["mode"] == "conventional":
            return dephasing_conventional(model, omega0, grid)
        if cfg["mode"] == "extended":
            return dephasing_extended(model, phase, grid)
    except ValueError as exc:
        raise ConfigError(str(exc))
    raise ConfigError(f"unknown mode {cfg['mode']!r}")


def _out_dir(cfg: dict) -> str:
    d = cfg["output"]["dir"]
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {d}: {exc}")
    if not os.access(d, os.W_OK):
        raise ConfigError(f"output directory {d} is not writable")
    if cfg["output"]["format"] not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")
    return d


def _write_atomic(path: str, content: str) -> None:
    d, name = os.path.split(path)
    tmp = os.path.join(d, f".tmp-{os.getpid()}-{os.urandom(4).hex()}-{name}")
    # mode 0o666 lets the umask decide the final permissions
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(cfg: dict, stem: str, header: list[str], columns: list[np.ndarray]) -> str:
    """Emit named columns as CSV or JSON per output.format."""
    d = _out_dir(cfg)
    rows = len(columns[0])
    if cfg["output"]["format"] == "csv":
        lines = [",".join(header)]
        for i in range(rows):
            lines.append(",".join(_fmt(c[i]) for c in columns))
        path = os.path.join(d, stem + ".csv")
        _write_atomic(path, "\n".join(lines) + "\n")
    else:
        body = ",\n".join(
            "    [" + ", ".join(_fmt(c[i]) for c in columns) + "]" for i in range(rows)
        )
        doc = '{\n  "columns": %s,\n  "rows": [\n%s\n  ]\n}\n' % (json.dumps(header), body)
        path = os.path.join(d, stem + ".json")
        _write_atomic(path, doc)
    return path


def write_json(cfg: dict, name: str, obj) -> str:
    path = os.path.join(_out_dir(cfg), name)
    _write_atomic(path, _json_text(obj, 0) + "\n")
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


def cmd_dephase(cfg: dict) -> int:
    series = build_series(cfg)
    write_table(
        cfg, "phi",
        ["t", "re_phi", "im_phi", "abs_phi"],
        [series.times, series.values.real, series.values.imag, np.abs(series.values)],
    )
    return 0


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
        data = np.loadtxt(path, delimiter="," if "," in first else None,
                          skiprows=skip, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read table {path}: {exc}")
    if data.shape[1] < columns:
        raise ConfigError(f"{path}: expected at least {columns} columns")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{path}: non-finite entry")
    return data


def cmd_invert(cfg: dict) -> int:
    if cfg["series"]["path"]:
        data = read_table(cfg["series"]["path"], 3)
        try:
            series = DephasingSeries(data[:, 0], data[:, 1] + 1j * data[:, 2])
        except ValueError as exc:
            print(f"hens invert: {exc}", file=sys.stderr)
            return 3
    else:
        series = build_series(cfg)
    try:
        dist = inverse_ft(series)
    except SeriesSymmetryError as exc:
        print(f"hens invert: {exc}", file=sys.stderr)
        return 3
    write_table(cfg, "wp", ["omega", "wp"], [dist.omega, dist.values])
    write_json(cfg, "diagnostics.json", {
        "norm": dist.norm,
        "min_value": dist.min_value,
        "negativity": dist.negativity,
        "realness_residual": dist.realness_residual,
    })
    return 0


def cmd_landscape(cfg: dict) -> int:
    model = build_model(cfg)
    if cfg["mode"] != "extended":
        raise ConfigError("landscape requires mode = extended")
    if model.kind != "ohmic_exp_cutoff" or model.temperature != 0.0:
        raise ConfigError("landscape requires the Ohmic model at T = 0")
    count = int(cfg["phases"]["count"])
    if count < 1:
        raise ConfigError("phases.count must be positive")
    phases = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    grid = build_grid(cfg, model.omega_scale())
    window = (float(cfg["window"]["omega_lo"]), float(cfg["window"]["omega_hi"]))
    if window[1] <= window[0]:
        raise ConfigError("empty frequency window")
    omega, phases, cells = negativity_landscape(model.omega_c, phases, window, grid)
    header = ["omega"] + [f"phi={_fmt(p)}" for p in phases]
    write_table(cfg, "landscape", header, [omega] + [cells[:, j] for j in range(phases.size)])
    return 0


def cmd_witness(cfg: dict) -> int:
    series = build_series(cfg)
    w = cfg["witness"]
    stop = w["stop_below"]
    try:
        report, used = bochner_search(
            series,
            restarts=int(w["restarts"]),
            seed=int(cfg["seed"]),
            max_size=int(w["max_set_size"]),
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
    return 0


def _parse_matrix(entries) -> np.ndarray:
    def scal(v):
        if isinstance(v, (list, tuple)):
            if len(v) != 2:
                raise ConfigError("complex entries are [re, im] pairs")
            return complex(float(v[0]), float(v[1]))
        return complex(float(v), 0.0)

    try:
        m = np.array([[scal(v) for v in row] for row in entries], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad matrix: {exc}")
    if not np.all(np.isfinite(m)):
        raise ConfigError("bad matrix: non-finite entry")
    return m


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
        return DensityMatrix(_parse_matrix(value))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad rho0: {exc}")


def _requested_paths(cfg: dict, kind: str) -> list[str]:
    paths = cfg["paths"]
    if paths is None:
        paths = ["he", "dilation", "mc", "master"] if kind == "spectral" else ["he", "dilation"]
    if isinstance(paths, str):
        paths = [p for p in paths.split(",") if p]
    bad = [p for p in paths if p not in ("he", "dilation", "mc", "master")]
    if bad:
        raise ConfigError(f"unknown simulation paths: {bad}")
    if kind != "spectral":
        unsupported = set(paths) & {"mc", "master"}
        if unsupported:
            raise ConfigError(f"paths {sorted(unsupported)} require a spectral ensemble")
    return list(paths)


def _output_times(cfg: dict) -> np.ndarray:
    t = cfg["times"]
    if t["list"] is not None:
        try:
            times = np.asarray([float(x) for x in t["list"]], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("times.list must be a list of numbers")
    else:
        if not 0.0 < float(t["t_max"]) < np.inf or int(t["count"]) < 1:
            raise ConfigError("times.t_max must be finite and positive and times.count >= 1")
        times = np.linspace(0.0, float(t["t_max"]), int(t["count"]))
    if times.size == 0 or not np.all((times >= 0) & np.isfinite(times)):
        raise ConfigError("output times must be finite and nonnegative")
    return times


def cmd_simulate(cfg: dict) -> int:
    ens_cfg = cfg["ensemble"]
    kind = ens_cfg["kind"]
    if kind not in ("discrete", "spectral", "cnot"):
        raise ConfigError("ensemble.kind must be discrete, spectral or cnot")
    rho0 = _parse_rho0(cfg["rho0"])
    times = _output_times(cfg)
    paths = _requested_paths(cfg, kind)
    seed = int(cfg["seed"])
    bins = int(ens_cfg["bins"])
    samples = int(cfg["mc"]["samples"])
    if bins < 1 or samples < 1:
        raise ConfigError("ensemble.bins and mc.samples must be positive")

    flags: dict[str, object] = {"weights_nonnegative": True}
    states: dict[str, list[np.ndarray]] = {}

    if kind == "spectral":
        if not ens_cfg["path"]:
            raise ConfigError("spectral ensemble needs ensemble.path")
        table = read_table(ens_cfg["path"], 2)
        omega, weights = table[:, 0], table[:, 1]
        try:
            require_uniform_grid(omega)
        except ValueError as exc:
            raise ConfigError(f"{ens_cfg['path']}: {exc}")
        mass = float(np.trapezoid(weights, omega))
        if abs(mass - 1.0) > 1e-3:
            raise ConfigError("spectral weights are not normalized")
        weights = weights / mass
        negative = bool(np.min(weights) < -NEGATIVE_TOL)
        flags["weights_nonnegative"] = not negative

        if negative and ({"mc", "dilation"} & set(paths)):
            print(
                "hens simulate: not a probability distribution - cannot sample "
                "(negative weights; a nonclassicality signal)",
                file=sys.stderr,
            )
            return 4
        if {"mc", "dilation"} & set(paths):
            spectral = SpectralEnsemble(omega, weights)

        if "master" in paths:
            # without an explicit grid, use the conjugate of the input's
            # frequency grid so the transform runs on the exact FFT pair
            n_om = omega.size
            if cfg["grid"]["t_max"] is None and n_om >= 4 and not (n_om & (n_om - 1)):
                grid = time_grid(np.pi / (omega[1] - omega[0]), n_om)
            else:
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
                print(f"hens simulate: {exc}", file=sys.stderr)
                return 3
            except ValueError as exc:
                raise ConfigError(str(exc))
            if last >= t_all.size:
                raise ConfigError("output times exceed the master-equation grid")
            sub = slice(0, last + 1)
            _, rho_prop = propagate_master(rho0, t_all[sub], eps[sub], gam[sub])
            states["master"] = [rho_prop[k].matrix for k in k_idx]
            times = k_idx * stride
        if "he" in paths:
            states["he"] = [
                dephase_qubit(rho0, _coherence_factor(omega, weights, t)).matrix for t in times
            ]
        if "dilation" in paths:
            ens = spectral.discretize(bins)
    else:
        if kind == "cnot":
            a, j = float(ens_cfg["a"]), float(ens_cfg["j"])
            if not 0.0 <= a <= 1.0:
                raise ConfigError("cnot mixing weight must lie in [0, 1]")
            if not math.isfinite(j):
                raise ConfigError("cnot coupling must be finite")
            ens = cnot_ensemble(a, j)
        else:
            members = ens_cfg.get("members")
            if not members:
                raise ConfigError("discrete ensemble needs members [[p, matrix], ...]")
            try:
                probs = np.array([float(m[0]) for m in members])
                if not np.all(np.isfinite(probs)):
                    raise ConfigError("discrete ensemble probabilities must be finite")
                hams = tuple(HermitianOperator(_parse_matrix(m[1])) for m in members)
                ens = HamiltonianEnsemble(probs, hams)
            except (TypeError, ValueError, IndexError) as exc:
                if isinstance(exc, ConfigError):
                    raise
                raise ConfigError(f"bad ensemble: {exc}")
        if rho0.dim != ens.dim:
            raise ConfigError("rho0 dimension differs from the ensemble")
        if "he" in paths:
            states["he"] = [he_average(ens, rho0, t).matrix for t in times]

    if "dilation" in paths:
        dil = dilate(ens)
        classical = True
        out = []
        for t in times:
            red, ok = joint_evolve_reduce(dil, rho0, t)
            classical = classical and ok
            out.append(red.matrix)
        states["dilation"] = out
        flags["classical_ok"] = classical
    if "mc" in paths:  # spectral ensembles only, see _requested_paths
        draws = sample_frequencies(spectral, samples, seed)
        est = [mc_coherence(draws, t) for t in times]
        states["mc"] = [dephase_qubit(rho0, zbar).matrix for zbar, _ in est]
        flags["mc_max_stderr"] = max(stderr for _, stderr in est)

    emitted = [p for p in ("he", "dilation", "mc", "master") if p in states]
    dim = rho0.dim
    header = ["t"]
    columns = [np.asarray(times)]
    for label in emitted:
        stack = np.array(states[label])
        for i in range(dim):
            for j in range(dim):
                header += [f"{label}_re_{i}{j}", f"{label}_im_{i}{j}"]
                columns += [stack[:, i, j].real, stack[:, i, j].imag]
    write_table(cfg, "state", header, columns)

    distances = {}
    for x in range(len(emitted)):
        for y in range(x + 1, len(emitted)):
            a, b = emitted[x], emitted[y]
            d = max(
                trace_distance(DensityMatrix(ma), DensityMatrix(mb))
                for ma, mb in zip(states[a], states[b])
            )
            distances[f"{a}_vs_{b}"] = d
    write_json(cfg, "consistency.json", {
        "pairwise_max_trace_distance": distances, **flags, "seed": seed,
    })
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON config file")
    p.add_argument("--output-dir", dest="output__dir", metavar="DIR", help="output directory")
    p.add_argument("--output-format", dest="output__format", choices=["csv", "json"])
    p.add_argument("--seed", type=int, metavar="INT")


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model-kind", dest="model__kind",
                   choices=["ohmic_exp_cutoff", "tabulated"])
    p.add_argument("--model-omega-c", dest="model__omega_c", type=float, metavar="W",
                   help="Ohmic cutoff frequency")
    p.add_argument("--model-temperature", dest="model__temperature", type=float, metavar="T")
    p.add_argument("--model-path", dest="model__path", metavar="FILE",
                   help="two-column text with omega, J(omega)")
    p.add_argument("--mode", choices=["conventional", "extended"])
    p.add_argument("--grid-t-max", dest="grid__t_max", type=float, metavar="T")
    p.add_argument("--grid-n", dest="grid__n", type=int, metavar="POW2")


def _add_series(p: argparse.ArgumentParser) -> None:
    """Model flags plus the system parameters of one dephasing series."""
    _add_model(p)
    p.add_argument("--omega0", type=float, metavar="W", help="system level splitting")
    p.add_argument("--phase", type=float, metavar="RAD",
                   help="relative coupling phase of the extended model")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hens",
        description="Simulate qubit dephasing with Hamiltonian ensembles and "
                    "witness nonclassicality of the dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dephase", help="emit the dephasing factor phi(t)")
    _add_common(p)
    _add_series(p)
    p.set_defaults(func=cmd_dephase)

    p = sub.add_parser("invert", help="recover the simulating (quasi-)distribution")
    _add_common(p)
    _add_series(p)
    p.add_argument("--series-path", dest="series__path", metavar="FILE",
                   help="invert a phi.csv series instead of a model")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("landscape", help="negative contributions over (omega, phase)")
    _add_common(p)
    _add_model(p)
    p.add_argument("--phases-count", dest="phases__count", type=int, metavar="N")
    p.add_argument("--window-omega-lo", dest="window__omega_lo", type=float, metavar="W")
    p.add_argument("--window-omega-hi", dest="window__omega_hi", type=float, metavar="W")
    p.set_defaults(func=cmd_landscape, mode="extended")

    p = sub.add_parser("witness", help="search for a positive-definiteness violation")
    _add_common(p)
    _add_series(p)
    p.add_argument("--witness-restarts", dest="witness__restarts", type=int, metavar="N")
    p.add_argument("--witness-max-set-size", dest="witness__max_set_size", type=int,
                   metavar="N")
    p.add_argument("--witness-stop-below", dest="witness__stop_below", type=float,
                   metavar="EIG", help="stop once an eigenvalue below this is found")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("simulate", help="evolve an ensemble by every applicable route")
    _add_common(p)
    p.add_argument("--grid-t-max", dest="grid__t_max", type=float, metavar="T")
    p.add_argument("--grid-n", dest="grid__n", type=int, metavar="POW2")
    p.add_argument("--ensemble-kind", dest="ensemble__kind",
                   choices=["discrete", "spectral", "cnot"])
    p.add_argument("--ensemble-path", dest="ensemble__path", metavar="FILE",
                   help="two-column text with omega, weight")
    p.add_argument("--ensemble-a", dest="ensemble__a", type=float, metavar="A",
                   help="cnot mixing weight")
    p.add_argument("--ensemble-j", dest="ensemble__j", type=float, metavar="J",
                   help="cnot coupling strength")
    p.add_argument("--ensemble-bins", dest="ensemble__bins", type=int, metavar="N",
                   help="bins for discretizing a spectral ensemble")
    p.add_argument("--rho0", help="plus | up | down | mixed")
    p.add_argument("--times-t-max", dest="times__t_max", type=float, metavar="T")
    p.add_argument("--times-count", dest="times__count", type=int, metavar="N")
    p.add_argument("--mc-samples", dest="mc__samples", type=int, metavar="N")
    p.add_argument("--paths", metavar="LIST",
                   help="comma-joined subset of he,dilation,mc,master")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"hens {args.command}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
