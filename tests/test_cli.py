import contextlib
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hens.cli import main, read_table
from hens.dephasing import SpectralDensityModel
from hens.qdyn import PAULI_X, pure_state


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def state_block(header, data, label, dim=2):
    out = np.empty((data.shape[0], dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            re = data[:, header.index(f"{label}_re_{i}{j}")]
            im = data[:, header.index(f"{label}_im_{i}{j}")]
            out[:, i, j] = re + 1j * im
    return out


class TestDephase:
    def test_writes_reference_values(self, tmp_path):
        out = tmp_path / "run"
        rc = run("dephase", "--model-omega-c", "1.0",
                 "--grid-t-max", "64", "--grid-n", "4096",
                 "--output-dir", str(out))
        assert rc == 0
        header, data = read_csv(out / "phi.csv")
        assert header == ["t", "re_phi", "im_phi", "abs_phi"]
        k0 = np.argmin(np.abs(data[:, 0]))
        assert data[k0, 0] == 0.0
        assert (data[k0, 1], data[k0, 2], data[k0, 3]) == (1.0, 0.0, 1.0)
        k1 = np.argmin(np.abs(data[:, 0] - 1.0))
        assert abs(data[k1, 3] - 0.25) < 1e-8

    def test_extended_modulus_matches_conventional(self, tmp_path):
        a, b = tmp_path / "conv", tmp_path / "ext"
        args = ["--grid-t-max", "32", "--grid-n", "1024"]
        assert run("dephase", "--output-dir", str(a), *args) == 0
        assert run("dephase", "--mode", "extended", "--phase", str(np.pi / 2),
                   "--output-dir", str(b), *args) == 0
        _, conv = read_csv(a / "phi.csv")
        _, ext = read_csv(b / "phi.csv")
        assert np.max(np.abs(conv[:, 3] - ext[:, 3])) < 1e-9

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "ohmic_exp_cutoff", "omega_c": 3.0},
            "grid": {"t_max": 32.0, "n": 512},
            "output": {"dir": str(tmp_path / "a")},
        }))
        assert run("dephase", "--config", str(cfg)) == 0
        # the flag overrides omega_c from the file
        assert run("dephase", "--config", str(cfg), "--model-omega-c", "1.0",
                   "--output-dir", str(tmp_path / "b")) == 0
        _, wc3 = read_csv(tmp_path / "a" / "phi.csv")
        _, wc1 = read_csv(tmp_path / "b" / "phi.csv")
        k = np.argmin(np.abs(wc3[:, 0] - 1.0))
        assert abs(wc3[k, 3] - 0.01) < 1e-8
        assert abs(wc1[k, 3] - 0.25) < 1e-8

    def test_tabulated_model(self, tmp_path):
        om = np.linspace(0.0, 40.0, 8001)
        table = tmp_path / "j.txt"
        np.savetxt(table, np.column_stack([om, om * np.exp(-om)]))
        out = tmp_path / "run"
        rc = run("dephase", "--model-kind", "tabulated", "--model-path", str(table),
                 "--grid-t-max", "16", "--grid-n", "256", "--output-dir", str(out))
        assert rc == 0
        _, data = read_csv(out / "phi.csv")
        k = np.argmin(np.abs(data[:, 0] - 1.0))
        assert abs(data[k, 3] - 0.25) < 1e-4

    def test_bad_config_exits_two(self, tmp_path, capsys):
        rc = run("dephase", "--grid-n", "1000", "--output-dir", str(tmp_path))
        assert rc == 2
        assert capsys.readouterr().err.strip()

    def test_json_output_format(self, tmp_path):
        out = tmp_path / "run"
        rc = run("dephase", "--grid-t-max", "16", "--grid-n", "256",
                 "--output-format", "json", "--output-dir", str(out))
        assert rc == 0
        doc = json.load(open(out / "phi.json"))
        assert doc["columns"] == ["t", "re_phi", "im_phi", "abs_phi"]
        assert len(doc["rows"]) == 256


class TestInvert:
    def test_conventional_diagnostics(self, tmp_path):
        out = tmp_path / "run"
        assert run("invert", "--output-dir", str(out)) == 0
        diag = json.load(open(out / "diagnostics.json"))
        assert abs(diag["norm"] - 1.0) < 1e-6
        assert diag["negativity"] <= 1e-6
        assert diag["min_value"] >= -1e-4

    def test_extended_diagnostics(self, tmp_path):
        out = tmp_path / "run"
        assert run("invert", "--mode", "extended", "--phase", str(np.pi / 4),
                   "--output-dir", str(out)) == 0
        diag = json.load(open(out / "diagnostics.json"))
        assert diag["min_value"] < -1e-3
        assert abs(diag["norm"] - 1.0) < 1e-6

    def test_series_file_roundtrip(self, tmp_path):
        a = tmp_path / "a"
        assert run("dephase", "--grid-t-max", "128", "--grid-n", "16384",
                   "--output-dir", str(a)) == 0
        b = tmp_path / "b"
        assert run("invert", "--series-path", str(a / "phi.csv"),
                   "--output-dir", str(b)) == 0
        diag = json.load(open(b / "diagnostics.json"))
        assert abs(diag["norm"] - 1.0) < 1e-6

    def test_corrupt_series_exits_three(self, tmp_path, capsys):
        a = tmp_path / "a"
        assert run("dephase", "--grid-t-max", "16", "--grid-n", "256",
                   "--output-dir", str(a)) == 0
        lines = (a / "phi.csv").read_text().splitlines()
        t, re, im, m = lines[40].split(",")
        lines[40] = ",".join([t, str(float(re) + 0.5), im, m])
        (a / "phi.csv").write_text("\n".join(lines) + "\n")
        rc = run("invert", "--series-path", str(a / "phi.csv"),
                 "--output-dir", str(tmp_path / "b"))
        assert rc == 3
        assert "symmetric" in capsys.readouterr().err


class TestLandscape:
    def test_deterministic_and_negative(self, tmp_path):
        args = ["landscape", "--phases-count", "8",
                "--grid-t-max", "100", "--grid-n", "16384"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--output-dir", str(a)) == 0
        assert run(*args, "--output-dir", str(b)) == 0
        assert (a / "landscape.csv").read_bytes() == (b / "landscape.csv").read_bytes()
        header, data = read_csv(a / "landscape.csv")
        assert header[0] == "omega"
        cells = data[:, 1:]
        assert np.max(cells) <= 0.0
        # phases are k pi/4; columns at pi/4 (k=1) and 5 pi/4 (k=5) dip negative
        assert cells[:, 1].min() < -1e-3
        assert cells[:, 5].min() < -1e-3

    def test_conventional_mode_rejected(self, tmp_path):
        rc = run("landscape", "--mode", "conventional", "--output-dir", str(tmp_path))
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--phase", "--omega0"])
    def test_series_flags_rejected(self, tmp_path, capsys, flag):
        # the landscape sweeps every phase and has no level splitting
        with pytest.raises(SystemExit) as exc:
            run("landscape", flag, "1.3", "--output-dir", str(tmp_path))
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestWitness:
    def test_conventional_stays_positive(self, tmp_path):
        out = tmp_path / "run"
        rc = run("witness", "--witness-restarts", "300",
                 "--grid-t-max", "100", "--grid-n", "16384",
                 "--output-dir", str(out))
        assert rc == 0
        rep = json.load(open(out / "bochner.json"))
        assert rep["min_eigenvalue"] >= -1e-10
        assert rep["restarts_used"] == 300

    def test_extended_finds_violation_reproducibly(self, tmp_path):
        args = ["witness", "--mode", "extended", "--phase", str(np.pi / 2),
                "--witness-stop-below=-1e-3",
                "--grid-t-max", "100", "--grid-n", "16384", "--seed", "77"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--output-dir", str(a)) == 0
        assert run(*args, "--output-dir", str(b)) == 0
        assert (a / "bochner.json").read_bytes() == (b / "bochner.json").read_bytes()
        rep = json.load(open(a / "bochner.json"))
        assert rep["min_eigenvalue"] < -1e-3


class TestSimulate:
    def test_cnot_preset_matches_formula(self, tmp_path):
        j = 1.0
        times = [0.0, 0.5 * np.pi / j, np.pi / j]
        for a in (0.0, 0.3, 1.0):
            out = tmp_path / f"a{a}"
            cfg = tmp_path / f"cfg{a}.json"
            cfg.write_text(json.dumps({
                "ensemble": {"kind": "cnot", "a": a, "j": j},
                "rho0": "up",
                "times": {"list": times},
                "output": {"dir": str(out)},
            }))
            assert run("simulate", "--config", str(cfg)) == 0
            header, data = read_csv(out / "state.csv")
            he = state_block(header, data, "he")
            rho0 = pure_state([1.0, 0.0]).matrix
            for k, t in enumerate(times):
                half = 0.5 * j * t
                u = np.cos(half) * np.eye(2) - 1j * np.sin(half) * PAULI_X
                expected = a * (u @ rho0 @ u.conj().T) + (1 - a) * rho0
                assert np.max(np.abs(he[k] - expected)) < 1e-12
            cons = json.load(open(out / "consistency.json"))
            assert cons["pairwise_max_trace_distance"]["he_vs_dilation"] <= 1e-12
            assert cons["classical_ok"] is True

    def test_maximally_mixed_is_constant(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ensemble": {"kind": "discrete", "members": [
                [0.5, [[0.5, 0.0], [0.0, -0.5]]],
                [0.5, [[0.0, [0.0, -0.5]], [[0.0, 0.5], 0.0]]],
            ]},
            "rho0": "mixed",
            "times": {"t_max": 5.0, "count": 6},
            "output": {"dir": str(out)},
        }))
        assert run("simulate", "--config", str(cfg)) == 0
        header, data = read_csv(out / "state.csv")
        he = state_block(header, data, "he")
        assert np.max(np.abs(he - 0.5 * np.eye(2))) < 1e-12

    def test_spectral_all_paths_consistent(self, tmp_path):
        inv = tmp_path / "inv"
        assert run("invert", "--output-dir", str(inv)) == 0
        out = tmp_path / "run"
        rc = run("simulate", "--ensemble-kind", "spectral",
                 "--ensemble-path", str(inv / "wp.csv"),
                 "--times-t-max", "3", "--times-count", "4",
                 "--mc-samples", "20000", "--output-dir", str(out))
        assert rc == 0
        cons = json.load(open(out / "consistency.json"))
        d = cons["pairwise_max_trace_distance"]
        assert d["he_vs_master"] < 1e-4
        assert d["he_vs_mc"] < 5 * cons["mc_max_stderr"]
        assert cons["weights_nonnegative"] is True

    def test_spectral_master_adopts_input_grid_geometry(self, tmp_path):
        # wp.csv from a non-default time grid must still drive the master path
        inv = tmp_path / "inv"
        assert run("invert", "--grid-t-max", "128", "--grid-n", "65536",
                   "--output-dir", str(inv)) == 0
        out = tmp_path / "run"
        rc = run("simulate", "--ensemble-kind", "spectral",
                 "--ensemble-path", str(inv / "wp.csv"),
                 "--paths", "he,master", "--times-t-max", "3", "--times-count", "4",
                 "--output-dir", str(out))
        assert rc == 0
        cons = json.load(open(out / "consistency.json"))
        assert cons["pairwise_max_trace_distance"]["he_vs_master"] < 1e-4

    def test_spectral_master_propagates_only_output_window(self, tmp_path):
        # phi of this 257-row table vanishes near |t| = 67.9, far beyond the output
        # times; 257 is not a power of two, so forward_ft sums directly
        write_inputs(tmp_path)
        for count in ("4", "1"):
            out = tmp_path / f"run{count}"
            rc = run("simulate", "--ensemble-kind", "spectral",
                     "--ensemble-path", str(tmp_path / "dist.csv"),
                     "--paths", "he,master", "--times-t-max", "3", "--times-count", count,
                     "--output-dir", str(out))
            assert rc == 0
            cons = json.load(open(out / "consistency.json"))
            assert cons["pairwise_max_trace_distance"]["he_vs_master"] < 1e-8

    def test_quasi_distribution_exits_four(self, tmp_path, capsys):
        inv = tmp_path / "inv"
        assert run("invert", "--mode", "extended", "--phase", str(np.pi / 4),
                   "--output-dir", str(inv)) == 0
        rc = run("simulate", "--ensemble-kind", "spectral",
                 "--ensemble-path", str(inv / "wp.csv"),
                 "--output-dir", str(tmp_path / "run"))
        assert rc == 4
        assert "cannot sample" in capsys.readouterr().err

    def test_quasi_deterministic_paths_still_run(self, tmp_path):
        inv = tmp_path / "inv"
        assert run("invert", "--mode", "extended", "--phase", str(np.pi / 4),
                   "--output-dir", str(inv)) == 0
        out = tmp_path / "run"
        rc = run("simulate", "--ensemble-kind", "spectral",
                 "--ensemble-path", str(inv / "wp.csv"),
                 "--paths", "he,master", "--times-t-max", "3", "--times-count", "4",
                 "--output-dir", str(out))
        assert rc == 0
        cons = json.load(open(out / "consistency.json"))
        assert cons["weights_nonnegative"] is False
        assert cons["pairwise_max_trace_distance"]["he_vs_master"] < 1e-4

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--ensemble-kind", "cnot",
                       "--ensemble-a", "0.4", "--times-t-max", "4",
                       "--times-count", "9", "--output-dir", str(out)) == 0
        assert (a / "state.csv").read_bytes() == (b / "state.csv").read_bytes()
        assert (a / "consistency.json").read_bytes() == (b / "consistency.json").read_bytes()

    def test_unknown_kind_exits_two(self, tmp_path):
        assert run("simulate", "--output-dir", str(tmp_path)) == 2

    def test_unknown_path_exits_two(self, tmp_path):
        rc = run("simulate", "--ensemble-kind", "cnot", "--paths", "he,warp",
                 "--output-dir", str(tmp_path))
        assert rc == 2


class TestReadTable:
    def test_model_table(self, tmp_path):
        om = np.linspace(0.0, 30.0, 4001)
        cols = np.column_stack([om, om * np.exp(-om)])
        plain, headed = tmp_path / "plain.txt", tmp_path / "headed.csv"
        np.savetxt(plain, cols)
        np.savetxt(headed, cols, fmt="%.17g", delimiter=",", header="omega,J", comments="")
        table = read_table(str(plain), 2)
        assert np.array_equal(read_table(str(headed), 2), table)
        model = SpectralDensityModel.tabulated(table[:, 0], table[:, 1])
        # linear interpolation of a convex table biases by O(spacing^2)
        assert abs(model.density(1.0) - np.exp(-1.0)) < 1e-5
        assert model.density(31.0) == 0.0


def write_inputs(d):
    om = np.linspace(-8.0, 8.0, 257)
    p = np.exp(-0.5 * om**2)
    np.savetxt(d / "dist.csv", np.column_stack([om, p / np.trapezoid(p, om)]), delimiter=",")
    # spacing 1/16 below omega = 0 and 1/8 above it
    om = np.concatenate([np.linspace(-8.0, 0.0, 129), np.linspace(0.0, 8.0, 65)[1:]])
    p = np.exp(-0.5 * om**2)
    np.savetxt(d / "uneven_dist.csv", np.column_stack([om, p / np.trapezoid(p, om)]),
               delimiter=",")
    (d / "nan_dist.csv").write_text("omega,p\n0,nan\n1,1\n")
    (d / "nan_j.txt").write_text("0 0\n1 nan\n2 0\n")
    (d / "nan_series.csv").write_text("t,re_phi,im_phi\n0,nan,0\n")
    (d / "grid5.json").write_text('{"grid": 5}')
    (d / "nan_member.json").write_text(
        '{"ensemble": {"kind": "discrete", "members": [[1.0, [[0, 0], [0, NaN]]]]}}')


SMALL_GRID = ["--grid-t-max", "16", "--grid-n", "256"]
# what stderr must name where the failing layer's own message would not
BAD_VALUE_MESSAGES = {
    "huge-temperature": "decoherence exponent",
    "huge-omega-c-tiny-temperature": "decoherence exponent",
    "tiny-t-max": "decoherence exponent",
    "uneven-grid-dilation": "uniform and increasing",
    "uneven-grid-he-mc": "uniform and increasing",
}
SPECTRAL = ["simulate", "--ensemble-kind", "spectral", "--ensemble-path", "{d}/dist.csv"]
UNEVEN = ["simulate", "--ensemble-kind", "spectral", "--ensemble-path", "{d}/uneven_dist.csv"]


def bad_field(command, field, value, *flags):
    """Param running command on a config file that sets the dotted field to value;
    stderr must name the field."""
    doc = value
    for key in reversed(field.split(".")):
        doc = {key: doc}
    case = f"{field}={json.dumps(value)}"
    BAD_VALUE_MESSAGES[case] = repr(field)
    return pytest.param([command, "--config", doc, *flags], id=case)


@pytest.mark.parametrize("argv", [
    pytest.param(["dephase", "--model-temperature", "nan"], id="nan-temperature"),
    pytest.param(["dephase", "--config", "{d}/grid5.json"], id="grid-not-object"),
    pytest.param(["dephase", "--omega0", "nan", *SMALL_GRID], id="nan-omega0"),
    pytest.param(["dephase", "--omega0", "inf", *SMALL_GRID], id="inf-omega0"),
    pytest.param(["dephase", "--mode", "extended", "--phase", "nan", *SMALL_GRID],
                 id="nan-phase"),
    pytest.param(["invert", "--mode", "extended", "--phase", "nan", *SMALL_GRID],
                 id="invert-nan-phase"),
    pytest.param(["dephase", "--grid-t-max", "inf", "--grid-n", "256"], id="inf-t-max"),
    pytest.param(["dephase", "--grid-t-max", "1e12", "--grid-n", "256"], id="huge-t-max"),
    # (omega_c t)^2 overflows at the default t_max = 200 / omega_c
    pytest.param(["dephase", "--model-omega-c", "1e300", "--grid-n", "256"], id="huge-omega-c"),
    pytest.param(["dephase", "--model-omega-c", "1e-300", "--grid-n", "256"],
                 id="tiny-omega-c"),
    pytest.param(["dephase", "--model-temperature", "1e-300", "--grid-n", "256"],
                 id="tiny-temperature"),
    # knot exponents ~1e302: their spline slopes overflow
    pytest.param(["dephase", "--model-temperature", "1e300", *SMALL_GRID],
                 id="huge-temperature"),
    # the ratio of the graded panels' edges overflows
    pytest.param(["dephase", "--model-omega-c", "1e300", "--model-temperature", "1e-300",
                  "--grid-t-max", "1", "--grid-n", "256"], id="huge-omega-c-tiny-temperature"),
    # knots ~1e-202 apart: the spline's cubic coefficients (~ values / spacing^3) overflow
    pytest.param(["dephase", "--mode", "extended", "--grid-t-max", "1e-200", "--grid-n", "256"],
                 id="tiny-t-max"),
    pytest.param(["dephase", "--model-kind", "tabulated", "--model-path", "{d}/nan_j.txt"],
                 id="nan-model-table"),
    pytest.param(["invert", "--series-path", "{d}/nan_series.csv"], id="nan-series"),
    pytest.param(["witness", "--witness-restarts", "0", *SMALL_GRID], id="zero-restarts"),
    pytest.param(["witness", "--witness-max-set-size", "1", *SMALL_GRID], id="set-size-one"),
    pytest.param(["simulate", "--ensemble-kind", "cnot", "--times-t-max", "nan"],
                 id="nan-times"),
    pytest.param(["simulate", "--ensemble-kind", "cnot", "--ensemble-j", "nan"], id="nan-j"),
    pytest.param(["simulate", "--config", "{d}/nan_member.json"], id="nan-member"),
    pytest.param(["simulate", "--ensemble-kind", "spectral",
                  "--ensemble-path", "{d}/nan_dist.csv"], id="nan-ensemble"),
    pytest.param([*SPECTRAL, "--paths", "he,master", "--times-t-max", "1e300"], id="huge-times"),
    pytest.param([*SPECTRAL, "--paths", "mc", "--mc-samples", "0"], id="zero-samples"),
    pytest.param([*SPECTRAL, "--paths", "dilation", "--ensemble-bins", "0"], id="zero-bins"),
    pytest.param([*UNEVEN, "--paths", "dilation"], id="uneven-grid-dilation"),
    pytest.param([*UNEVEN, "--paths", "he,mc"], id="uneven-grid-he-mc"),
    bad_field("landscape", "phases.count", "abc"),
    bad_field("landscape", "phases.count", 2.5, *SMALL_GRID),
    bad_field("landscape", "window.omega_lo", "a", *SMALL_GRID),
    bad_field("simulate", "times.count", "x", "--ensemble-kind", "cnot"),
    bad_field("simulate", "times.list", 3, "--ensemble-kind", "cnot"),
    bad_field("simulate", "paths", 5, "--ensemble-kind", "cnot"),
    bad_field("simulate", "ensemble.a", "x", "--ensemble-kind", "cnot"),
    bad_field("simulate", "ensemble.members", 3, "--ensemble-kind", "discrete"),
    bad_field("simulate", "seed", None, "--ensemble-kind", "cnot"),
    bad_field("simulate", "mc.samples", "x", *SPECTRAL[1:], "--paths", "mc"),
    bad_field("simulate", "mc.samples", 2.5, *SPECTRAL[1:], "--paths", "mc"),
    bad_field("simulate", "ensemble.bins", None, *SPECTRAL[1:], "--paths", "dilation"),
    bad_field("witness", "witness.restarts", None, *SMALL_GRID),
    bad_field("witness", "witness.restarts", True, *SMALL_GRID),
    bad_field("dephase", "model.omega_c", None, *SMALL_GRID),
    bad_field("dephase", "grid.n", None),
    bad_field("dephase", "model.path", 3, "--model-kind", "tabulated", *SMALL_GRID),
    bad_field("invert", "series.path", 3),
])
def test_bad_values_exit_two(tmp_path, capsys, request, argv):
    write_inputs(tmp_path)
    args = []
    for i, a in enumerate(argv):
        if isinstance(a, str):
            args.append(a.format(d=tmp_path))
        else:  # a config document
            args.append(str(tmp_path / f"config{i}.json"))
            Path(args[-1]).write_text(json.dumps(a))
    rc = run(*args, "--output-dir", str(tmp_path / "out"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err
    assert BAD_VALUE_MESSAGES.get(request.node.callspec.id, "") in err


def test_huge_temperature_ends(tmp_path):
    # Phi ~ 1e30: intervals whose exponent is past e^{-Phi} < 1e-16 are accepted
    # as they are instead of being split down to the refinement floor
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hens.cli", "dephase", "--model-temperature",
                           "1e30", *SMALL_GRID, "--output-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    _, data = read_csv(tmp_path / "phi.csv")
    assert np.all(data[data[:, 0] != 0.0, 3] == 0.0)


def test_dephase_exit_codes_hold_for_special_floats(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0])
    # Only the w = 0 panel's node count grows with omega_c * t_max; the finite
    # grid draws stay in [-20, 20] to keep each run well under a second (the
    # huge-t-max bad-value case covers the panel limit); the model draws add
    # the extremes.
    small = special | st.floats(-20.0, 20.0)
    model = small | st.sampled_from([1e300, -1e300, 1e-300])

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(command=st.sampled_from(["dephase", "invert", "witness"]),
                      omega0=special | st.floats(), phase=special | st.floats(),
                      omega_c=model, temperature=model, t_max=small,
                      mode=st.sampled_from(["conventional", "extended"]))
    def check(command, omega0, phase, omega_c, temperature, t_max, mode):
        out = tmp_path_factory.mktemp("run")
        argv = [command, "--mode", mode, "--grid-n", "256", "--output-dir", str(out),
                f"--omega0={omega0!r}", f"--phase={phase!r}", f"--model-omega-c={omega_c!r}",
                f"--model-temperature={temperature!r}", f"--grid-t-max={t_max!r}"]
        if command == "witness":
            argv.append("--witness-restarts=5")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()

    check()


def test_outputs_follow_umask(tmp_path):
    old = os.umask(0o022)
    try:
        assert run("simulate", "--ensemble-kind", "cnot", "--times-count", "3",
                   "--output-dir", str(tmp_path)) == 0
    finally:
        os.umask(old)
    assert sorted(os.listdir(tmp_path)) == ["consistency.json", "state.csv"]
    for name in os.listdir(tmp_path):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644
