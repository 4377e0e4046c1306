"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, and oracles.

Every oracle is computed here from closed forms, mpmath, scipy or plain numpy,
not by the hens code path it checks, and raises ``OracleMiss`` on a wrong
answer.  The one borrowed piece is the binned ensemble that the dilation route
is fed, taken from ``SpectralEnsemble.discretize`` because it is that route's
input.  References are built with the workload, before anything is timed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# CLI defaults of the Ohmic pipeline: grid.n and the t_max of omega_c = 1
N = 65536
T_MAX = 200.0
PHASE_INVERT = math.pi / 4
PHASE_WITNESS = math.pi / 2
RESTARTS = 10000
PHASES = 64

TABLE_KNOTS = 401
TABLE_OMEGA_MAX = 40.0
TABLE_GRID_N = 256
TEMPERATURE = 0.5

ENSEMBLE_BINS = 64
MC_SAMPLES = 1_000_000
DISCRETE_MEMBERS = 8
DISCRETE_TIMES = 21


class OracleMiss(Exception):
    """An output differs from its oracle."""


def expect(ok, message: str) -> None:
    if not ok:
        raise OracleMiss(message)


@dataclass
class Call:
    name: str  # output subdirectory, unique within the pass
    stage: str  # the subcommand
    argv: list[str]
    check: Callable[[Path], None]
    expect_rc: int = 0


@dataclass
class Workload:
    calls: list[Call]
    generate: Callable[[], None] = lambda: None  # writes the input files


# --- closed forms (omega_c = 1, T = 0) -------------------------------------

def time_grid(n: int, t_max: float) -> np.ndarray:
    return (np.arange(n) - n // 2) * (2.0 * t_max / n)


def omega_grid(times: np.ndarray) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(times.size, d=times[1] - times[0]))


def ohmic_phi(t):
    return (1.0 + t * t) ** -2.0


def ohmic_p(omega):
    a = np.abs(omega)
    return (1.0 + a) * np.exp(-a) / 4.0


def extended_phi(t, phase: float):
    theta = 4.0 * math.cos(phase) * (t - np.arctan(t)) \
        + np.sign(t) * math.sin(phase) * 2.0 * np.log1p(t * t)
    return np.exp(-1j * theta) * ohmic_phi(t)


def spectrum(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """wp(w) = (dt / 2pi) sum_n phi(t_n) e^{-i w t_n} on the conjugate grid."""
    dt = times[1] - times[0]
    return (dt / (2.0 * np.pi) * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(values)))).real


# --- reading outputs -------------------------------------------------------

def read_table(path: Path):
    expect(path.is_file(), f"{path.name} was not written")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_json(path: Path) -> dict:
    expect(path.is_file(), f"{path.name} was not written")
    with open(path) as fh:
        return json.load(fh)


def states(header: list[str], data: np.ndarray, label: str, dim: int) -> np.ndarray:
    out = np.empty((data.shape[0], dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            out[:, i, j] = data[:, header.index(f"{label}_re_{i}{j}")] \
                + 1j * data[:, header.index(f"{label}_im_{i}{j}")]
    return out


def max_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(max(0.5 * np.sum(np.abs(np.linalg.eigvalsh(x - y))) for x, y in zip(a, b)))


# --- ohmic-pipeline --------------------------------------------------------

def ohmic_pipeline(seed: int, inputs: Path) -> Workload:
    times = time_grid(N, T_MAX)
    omega = omega_grid(times)

    def check_dephase(out: Path) -> None:
        header, d = read_table(out / "phi.csv")
        expect(header == ["t", "re_phi", "im_phi", "abs_phi"], f"phi.csv header {header}")
        expect(d.shape[0] == N, f"phi.csv has {d.shape[0]} rows")
        expect(np.max(np.abs(d[:, 0] - times)) <= 1e-9, "phi.csv time grid")
        err = np.max(np.abs(d[:, 1] + 1j * d[:, 2] - ohmic_phi(times)))
        expect(err <= 1e-8, f"phi deviates from (1+t^2)^-2 by {err:.3e} > 1e-8")

    def check_invert(out: Path) -> None:
        _, d = read_table(out / "wp.csv")
        norm = np.trapezoid(d[:, 1], d[:, 0])
        negativity = -np.trapezoid(np.minimum(d[:, 1], 0.0), d[:, 0])
        expect(abs(norm - 1.0) <= 1e-3, f"extended wp norm {norm!r}")
        expect(negativity > 0.0, "extended wp at phase pi/4 is not negative anywhere")

    def check_witness(out: Path) -> None:
        rep = read_json(out / "bochner.json")
        expect(rep["restarts_used"] == RESTARTS, f"restarts_used {rep['restarts_used']}")
        expect(rep["seed"] == seed, "bochner.json seed")
        floor = rep["min_eigenvalue"]
        expect(floor < 0.0, f"witness floor {floor!r} is not negative")
        t = np.asarray(rep["times"], dtype=float)
        gram = extended_phi(np.subtract.outer(t, t), PHASE_WITNESS)
        exact = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0]
        # the series is accurate to 1e-8 per entry, entries are at most 8 x 8
        expect(abs(exact - floor) <= 1e-6, f"witness floor {floor!r} vs closed form {exact!r}")

    window = (omega >= -10.0) & (omega <= 10.0)
    reference = np.minimum(spectrum(times, extended_phi(times, PHASE_INVERT))[window], 0.0)

    def check_landscape(out: Path) -> None:
        header, d = read_table(out / "landscape.csv")
        expect(len(header) == PHASES + 1, f"landscape has {len(header) - 1} phase columns")
        phases = np.array([float(h.split("=", 1)[1]) for h in header[1:]])
        col = 1 + int(np.argmin(np.abs(phases - PHASE_INVERT)))
        expect(np.min(d[:, col]) < 0.0, "no negative landscape cells at phase pi/4")
        err = np.max(np.abs(d[:, col] - reference))
        expect(err <= 1e-9, f"landscape at pi/4 deviates from the closed form by {err:.3e}")

    return Workload(calls=[
        Call("dephase", "dephase", ["dephase"], check_dephase),
        Call("invert-extended", "invert",
             ["invert", "--mode", "extended", "--phase", repr(PHASE_INVERT)], check_invert),
        Call("witness-extended", "witness",
             ["witness", "--mode", "extended", "--phase", repr(PHASE_WITNESS),
              "--seed", str(seed)], check_witness),
        Call("landscape", "landscape", ["landscape"], check_landscape),
    ])


# --- tabulated-thermal -----------------------------------------------------

def _mp_exponent(t: float, temperature: float) -> float:
    """Phi(t) = 4 int w e^{-w}/w^2 coth(w/2T) (1 - cos w t) dw by mpmath."""
    import mpmath

    mpmath.mp.dps = 20

    def f(w):
        if w == 0:
            return mpmath.mpf(0)
        return 8 * mpmath.exp(-w) / w * mpmath.coth(w / (2 * temperature)) \
            * mpmath.sin(w * t / 2) ** 2

    return float(mpmath.quad(f, list(np.linspace(0.0, 60.0, 121)) + [mpmath.inf]))


def tabulated_thermal(seed: int, inputs: Path) -> Workload:
    table = inputs / "j_ohmic.txt"
    knots = np.linspace(0.0, TABLE_OMEGA_MAX, TABLE_KNOTS)
    jv = knots * np.exp(-knots)
    # the CLI default t_max is 200 / (width of the table)
    times = time_grid(TABLE_GRID_N, 200.0 / TABLE_OMEGA_MAX)

    # The table's linear interpolation error e(w) bounds the exponent error:
    # |Phi_table(t) - Phi(t)| <= int 4 |e(w)| / w^2 coth(w/2T) (1 - cos w t) dw.
    # The integrand tends to a finite limit at w = 0, so start just above it.
    w = np.linspace(0.0, TABLE_OMEGA_MAX, 32 * (TABLE_KNOTS - 1) + 1)
    w[0] = 1e-9
    e = np.abs(np.interp(w, knots, jv) - w * np.exp(-w))

    def bound(t: np.ndarray, temperature: float) -> np.ndarray:
        weight = 4.0 * e / w**2
        if temperature > 0.0:
            weight = weight / np.tanh(w / (2.0 * temperature))
        return np.array([np.trapezoid(weight * 2.0 * np.sin(0.5 * x * w) ** 2, w) for x in t])

    def tolerance(phi_ref, b):
        # 1e-8 covers the quadrature and spline error on top of the table's
        return phi_ref * np.expm1(b) + 1e-8

    def check_zero(out: Path) -> None:
        _, d = read_table(out / "phi.csv")
        expect(d.shape[0] == TABLE_GRID_N, f"phi.csv has {d.shape[0]} rows")
        expect(np.max(np.abs(d[:, 0] - times)) <= 1e-12, "phi.csv time grid")
        expect(np.max(np.abs(d[:, 2])) <= 1e-12, "imaginary part at omega0 = 0")
        ref = ohmic_phi(times)
        err = np.abs(d[:, 1] - ref)
        tol = tolerance(ref, bound(times, 0.0))
        k = int(np.argmax(err / tol))
        expect(err[k] <= tol[k], f"T=0: |phi({times[k]:.4g})| off by {err[k]:.3e} > {tol[k]:.3e}")

    # a few grid times for the thermal reference, including the grid end
    idx = np.searchsorted(times, [0.5, 1.0, 2.0, times[-1]])
    ref_t = times[idx]
    ref_thermal = np.exp(-np.array([_mp_exponent(float(t), TEMPERATURE) for t in ref_t]))
    tol_thermal = tolerance(ref_thermal, bound(ref_t, TEMPERATURE))

    def check_thermal(out: Path) -> None:
        _, d = read_table(out / "phi.csv")
        expect(d.shape[0] == TABLE_GRID_N, f"phi.csv has {d.shape[0]} rows")
        err = np.abs(d[idx, 1] + 1j * d[idx, 2] - ref_thermal)
        k = int(np.argmax(err / tol_thermal))
        expect(err[k] <= tol_thermal[k],
               f"T={TEMPERATURE}: phi({ref_t[k]:.4g}) off by {err[k]:.3e} > {tol_thermal[k]:.3e}")

    def generate() -> None:
        np.savetxt(table, np.column_stack([knots, jv]))

    args = ["dephase", "--model-kind", "tabulated", "--model-path", str(table),
            "--grid-n", str(TABLE_GRID_N), "--seed", str(seed)]
    return Workload(generate=generate, calls=[
        Call("tabulated-t0", "dephase", args, check_zero),
        Call("tabulated-thermal", "dephase",
             args + ["--model-temperature", repr(TEMPERATURE)], check_thermal),
    ])


# --- ensemble-routes -------------------------------------------------------

def _discrete_ensemble(seed: int):
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.1, 1.0, DISCRETE_MEMBERS)
    probs = probs / probs.sum()
    hams = []
    for _ in range(DISCRETE_MEMBERS):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hams.append(0.5 * (a + a.conj().T))
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    ket = ket / np.linalg.norm(ket)
    return probs, hams, np.outer(ket, ket.conj())


def _pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def ensemble_routes(seed: int, inputs: Path) -> Workload:
    from scipy.linalg import expm

    from hens.ensemble import SpectralEnsemble

    times = time_grid(N, T_MAX)
    omega = omega_grid(times)
    p = ohmic_p(omega)
    quasi = spectrum(times, extended_phi(times, PHASE_INVERT))
    expect(quasi.min() < -1e-6, "the extended quasi-distribution must be signed")
    series_path = inputs / "phi_ohmic.csv"
    dist_path = inputs / "p_ohmic.csv"
    quasi_path = inputs / "wp_extended.csv"
    discrete_path = inputs / "discrete.json"

    probs, hams, rho0 = _discrete_ensemble(seed)
    t_discrete = np.linspace(0.0, 10.0, DISCRETE_TIMES)
    exact = []
    for t in t_discrete:
        us = [expm(-1j * h * t) for h in hams]
        exact.append(sum(q * u @ rho0 @ u.conj().T for q, u in zip(probs, us)))
    exact = np.array(exact)

    # the dilation route reproduces the binned ensemble, so compare it with
    # that ensemble's own average; its distance to the continuum average is
    # bin-discretization error (it revives near t = 2 pi / bin width)
    binned = SpectralEnsemble(omega, p / np.trapezoid(p, omega)).discretize(ENSEMBLE_BINS)
    mids = np.array([h.matrix[0, 0].real * 2.0 for h in binned.hamiltonians])

    def qubit_states(coherence: np.ndarray) -> np.ndarray:
        out = np.full((coherence.size, 2, 2), 0.5, dtype=complex)
        out[:, 1, 0] = 0.5 * coherence
        out[:, 0, 1] = 0.5 * np.conj(coherence)
        return out

    def check_invert(out: Path) -> None:
        _, d = read_table(out / "wp.csv")
        expect(np.max(np.abs(d[:, 0] - omega)) <= 1e-9, "wp.csv frequency grid")
        err = np.max(np.abs(d[:, 1] - p))
        expect(err <= 1e-3, f"wp deviates from (1+|w|)e^-|w|/4 by {err:.3e} > 1e-3")

    def check_spectral(out: Path) -> None:
        header, d = read_table(out / "state.csv")
        cons = read_json(out / "consistency.json")
        expect(cons["classical_ok"] is True, "dilation joint state not classical")
        expect(cons["weights_nonnegative"] is True, "weights flagged negative")
        t = d[:, 0]
        he = states(header, d, "he", 2)
        dist = {r: max_trace_distance(he, states(header, d, r, 2)) for r in ("mc", "master")}
        expect(dist["master"] <= 1e-5, f"he vs master {dist['master']:.3e} > 1e-5")
        mc_tol = 5.0 / math.sqrt(MC_SAMPLES)
        expect(dist["mc"] <= mc_tol, f"he vs mc {dist['mc']:.3e} > {mc_tol:.3e}")
        err = max_trace_distance(he, qubit_states(ohmic_phi(t)))
        expect(err <= 1e-6, f"he vs closed form {err:.3e} > 1e-6")
        binned_avg = qubit_states(np.exp(1j * np.outer(t, mids)) @ binned.probs)
        err = max_trace_distance(states(header, d, "dilation", 2), binned_avg)
        expect(err <= 1e-12, f"dilation vs binned ensemble {err:.3e} > 1e-12")

    def check_discrete(out: Path) -> None:
        header, d = read_table(out / "state.csv")
        cons = read_json(out / "consistency.json")
        expect(cons["classical_ok"] is True, "dilation joint state not classical")
        expect(np.max(np.abs(d[:, 0] - t_discrete)) <= 1e-12, "state.csv times")
        for route in ("he", "dilation"):
            err = max_trace_distance(states(header, d, route, 4), exact)
            expect(err <= 1e-12, f"{route} vs expm reference {err:.3e} > 1e-12")

    def check_quasi(out: Path) -> None:
        expect(not (out / "state.csv").exists(), "a signed distribution was sampled")

    def generate() -> None:
        v = ohmic_phi(times)
        np.savetxt(series_path, np.column_stack([times, v, np.zeros_like(v), v]),
                   fmt="%.17g", delimiter=",", header="t,re_phi,im_phi,abs_phi", comments="")
        np.savetxt(dist_path, np.column_stack([omega, p]), fmt="%.17g", delimiter=",",
                   header="omega,p", comments="")
        np.savetxt(quasi_path, np.column_stack([omega, quasi]), fmt="%.17g", delimiter=",",
                   header="omega,wp", comments="")
        config = {
            "ensemble": {"kind": "discrete",
                         "members": [[float(q), _pairs(h)] for q, h in zip(probs, hams)]},
            "rho0": _pairs(rho0),
            "times": {"t_max": 10.0, "count": DISCRETE_TIMES},
        }
        with open(discrete_path, "w") as fh:
            json.dump(config, fh)

    seed_arg = ["--seed", str(seed)]
    return Workload(generate=generate, calls=[
        Call("invert-series", "invert", ["invert", "--series-path", str(series_path)],
             check_invert),
        Call("simulate-spectral", "simulate",
             ["simulate", "--ensemble-kind", "spectral", "--ensemble-path", str(dist_path),
              "--ensemble-bins", str(ENSEMBLE_BINS), "--mc-samples", str(MC_SAMPLES),
              *seed_arg], check_spectral),
        Call("simulate-discrete", "simulate",
             ["simulate", "--config", str(discrete_path), *seed_arg], check_discrete),
        Call("simulate-quasi", "simulate",
             ["simulate", "--ensemble-kind", "spectral", "--ensemble-path", str(quasi_path),
              *seed_arg], check_quasi, expect_rc=4),
    ])


WORKLOADS = {
    "ohmic-pipeline": ohmic_pipeline,
    "tabulated-thermal": tabulated_thermal,
    "ensemble-routes": ensemble_routes,
}
