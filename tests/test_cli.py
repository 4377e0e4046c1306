import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hens.cli import COMMANDS, COMMON, FIELDS, load_config, main, make_parser, read_table
from hens.dephasing import SpectralDensityModel
from hens.ensemble import SpectralEnsemble, sample_frequencies
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

    @pytest.mark.parametrize("doc, key", [
        ({"grid": {"nn": 64}, "modle": {"kind": "x"}, "typo": 1}, "grid.nn"),
        ({"modle": {"kind": "x"}}, "modle"),
        ({"grid": {"n": 256}, "typo": 1}, "typo"),
        ({"ensemble": {"kind": "cnot", "member": []}}, "ensemble.member"),
        ({"grid.n": 256}, "grid.n"),  # a dotted key is no path into the config
    ])
    def test_unknown_config_key_exits_two(self, tmp_path, capsys, doc, key):
        # a misspelled key would otherwise run the defaults silently
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run("dephase", "--config", str(cfg), "--output-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"unknown config field {key!r}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_repeated_config_key_exits_two(self, tmp_path, capsys):
        # json.load would keep only the last of the two objects
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"grid": {"n": 256}, "grid": {"t_max": 16.0}}')
        assert run("dephase", "--config", str(cfg), "--output-dir", str(tmp_path / "out")) == 2
        assert "config key 'grid' appears twice in one object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_key_in_a_large_object_exits_two(self, tmp_path, capsys):
        # 10^5 keys, the last one repeated: a check that is linear in the keys of an
        # object takes milliseconds here, one that compares every pair takes minutes
        cfg = tmp_path / "cfg.json"
        keys = ", ".join(f'"k{i}": 0' for i in range(100_000))
        cfg.write_text(f'{{"rho0": [[{{{keys}, "k99999": 1}}]]}}')
        start = time.perf_counter()
        assert run("dephase", "--config", str(cfg), "--output-dir", str(tmp_path / "out")) == 2
        assert time.perf_counter() - start < 10.0
        assert "config key 'k99999' appears twice in one object" in capsys.readouterr().err

    def test_fields_of_other_subcommands_are_accepted(self, tmp_path):
        # one config file serves every subcommand; list-valued fields are not descended into
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid": {"t_max": 16.0, "n": 256},
            "ensemble": {"kind": "discrete", "members": [[1.0, [[{"re": 0}, 0], [0, 0]]]]},
            "rho0": [[{"a": 1}]], "times": {"list": [{"t": 0}]}, "paths": [{"he": 1}],
            "witness": {"restarts": 5}, "phases": {"count": 8},
        }))
        assert run("dephase", "--config", str(cfg), "--output-dir", str(tmp_path / "out")) == 0
        _, data = read_csv(tmp_path / "out" / "phi.csv")
        assert data.shape == (256, 4)

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

    def test_tabulated_bath(self, tmp_path):
        # any T = 0 bath: a 401-knot Ohmic table, on the default t_max = 200 / 40
        knots = np.linspace(0.0, 40.0, 401)
        table = tmp_path / "j.txt"
        np.savetxt(table, np.column_stack([knots, knots * np.exp(-knots)]))
        args = ["landscape", "--model-kind", "tabulated", "--model-path", str(table),
                "--phases-count", "8", "--grid-n", "256"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*args, "--output-dir", str(a)) == 0
        assert run(*args, "--output-dir", str(b)) == 0
        assert (a / "landscape.csv").read_bytes() == (b / "landscape.csv").read_bytes()
        _, data = read_csv(a / "landscape.csv")
        assert data.shape == (31, 9)
        assert data[:, 2].min() < -1e-3  # phase pi/4

    def test_cells_are_bounded(self, tmp_path, capsys):
        # all 2^16 grid frequencies lie in the window: 2^16 x 4096 phases is twice
        # the 2^27 cells allowed, though each field alone is within its bound
        rc = run("landscape", "--grid-n", "65536", "--grid-t-max", "1e4",
                 "--window-omega-lo=-1e3", "--window-omega-hi", "1e3",
                 "--phases-count", "4096", "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "config fields 'grid.n' and 'phases.count' are out of range" in err
        assert "65536 window frequencies x 4096 phases" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

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

    def test_spectral_master_keeps_default_grid_off_fft_layout(self, tmp_path):
        # 64 rows on [-8, 8] are not the conjugate of a 64-point time grid: that
        # grid's steps (dt ~ 0.39) made RK4 leave the unit disc near t = 5.4
        om = np.linspace(-8.0, 8.0, 64)
        p = np.exp(-0.5 * (om - 2.0) ** 2)
        np.savetxt(tmp_path / "gauss.csv", np.column_stack([om, p / np.trapezoid(p, om)]),
                   delimiter=",")
        out = tmp_path / "run"
        rc = run("simulate", "--ensemble-kind", "spectral",
                 "--ensemble-path", str(tmp_path / "gauss.csv"),
                 "--paths", "he,master", "--times-t-max", "8", "--times-count", "9",
                 "--output-dir", str(out))
        assert rc == 0
        cons = json.load(open(out / "consistency.json"))
        assert cons["pairwise_max_trace_distance"]["he_vs_master"] < 1e-8

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

    def test_spectral_mc_estimates_every_time_in_one_pass(self, tmp_path):
        write_inputs(tmp_path)
        dist, samples = tmp_path / "dist.csv", 70000  # more draws than one block

        def simulate(name, times, *flags):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"times": {"list": times}}))
            out = tmp_path / name
            assert run("simulate", "--ensemble-kind", "spectral", "--ensemble-path", str(dist),
                       "--mc-samples", str(samples), "--config", str(config), *flags,
                       "--output-dir", str(out)) == 0
            lines = (out / "state.csv").read_text().splitlines()
            cons = json.load(open(out / "consistency.json"))
            return lines[0].split(","), [line.split(",") for line in lines[1:]], cons

        given = [2.0, 0.0, 0.5, 3.0, 1.0, 0.5]
        header, rows, cons = simulate("all", given)
        other, other_rows, _ = simulate("routes", given, "--paths", "he,dilation,master")
        for name in other:  # the other routes do not see the Monte Carlo pass
            k, j = header.index(name), other.index(name)
            assert [r[k] for r in rows] == [r[j] for r in other_rows]

        table = np.loadtxt(dist, delimiter=",")
        weights = table[:, 1] / np.trapezoid(table[:, 1], table[:, 0])
        draws = sample_frequencies(SpectralEnsemble(table[:, 0], weights), samples, 12345)
        stderrs = []
        for row in rows:  # the master route snaps t to its grid; mc runs at those times
            ph = np.exp(1j * draws * float(row[0]))
            zbar = 0.5 * ph.mean()  # rho0 = |+><+| has coherence 1/2
            assert abs(float(row[header.index("mc_re_10")]) - zbar.real) <= 1e-14
            assert abs(float(row[header.index("mc_im_10")]) - zbar.imag) <= 1e-14
            var = np.var(ph.real, ddof=1) + np.var(ph.imag, ddof=1)
            stderrs.append(np.sqrt(var / samples))
        assert abs(cons["mc_max_stderr"] - max(stderrs)) <= 1e-12 * max(stderrs)

        # shuffled times give the sorted run's rows, byte for byte, in the given order
        _, sorted_rows, _ = simulate("sorted", sorted(given))
        rank = np.argsort(np.argsort(given, kind="stable"), kind="stable")
        assert rows == [sorted_rows[r] for r in rank]

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

    @pytest.mark.parametrize("path", ["he", "master"])
    def test_factor_past_unit_modulus_exits_two(self, tmp_path, capsys, path):
        # weights N(0, 1) + 0.5 sin 3w: unit mass, dips to -0.5, and |phi(3)| ~ 4
        om = np.linspace(-8.0, 8.0, 257)
        p = np.exp(-0.5 * om**2) / np.sqrt(2.0 * np.pi) + 0.5 * np.sin(3.0 * om)
        np.savetxt(tmp_path / "signed.csv", np.column_stack([om, p]), delimiter=",")
        rc = run("simulate", "--ensemble-kind", "spectral",
                 "--ensemble-path", str(tmp_path / "signed.csv"), "--paths", path,
                 "--times-t-max", "6", "--times-count", "7", "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "dephasing factor exceeds unit modulus" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unresolved_master_factor_exits_three(self, tmp_path, capsys):
        # a nonnegative bimodal table: phi(t) = e^{-0.045 t^2} cos 3t crosses zero between
        # grid points near t = pi/6, so the coefficients there are not resolved and the
        # RK4 factor leaves the unit disc (|f| = 1.012 at t = 0.586)
        om = np.linspace(-8.0, 8.0, 257)
        p = np.exp(-((om - 3.0) ** 2) / 0.18) + np.exp(-((om + 3.0) ** 2) / 0.18)
        np.savetxt(tmp_path / "bimodal.csv", np.column_stack([om, p / np.trapezoid(p, om)]),
                   delimiter=",")
        rc = run("simulate", "--ensemble-kind", "spectral",
                 "--ensemble-path", str(tmp_path / "bimodal.csv"), "--paths", "master",
                 "--times-t-max", "6", "--times-count", "13", "--output-dir", str(tmp_path / "out"))
        assert rc == 3
        err = capsys.readouterr().err
        assert "coherence factor exceeds unit modulus at t = 0.5859375" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edge", [1e300, 1e305])
    def test_overflowing_master_factor_exits_three(self, tmp_path, capsys, edge):
        # |w| up to the edge: the RK4 step factors overflow to inf, and their product
        # to NaN, which must fail the unit-modulus test without a numpy warning
        om = np.linspace(-edge, edge, 5)
        np.savetxt(tmp_path / "huge.csv", np.column_stack([om, np.full(5, 0.5 / edge)]),
                   delimiter=",")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("simulate", "--ensemble-kind", "spectral",
                     "--ensemble-path", str(tmp_path / "huge.csv"), "--paths", "master",
                     "--output-dir", str(tmp_path / "out"))
        assert rc == 3
        assert not caught
        err = capsys.readouterr().err
        assert "coherence factor exceeds unit modulus at t = " in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_mc_route_memory_does_not_grow_with_samples(self, tmp_path):
        write_inputs(tmp_path)

        def peak(samples):
            tracemalloc.start()
            try:
                assert run("simulate", "--ensemble-kind", "spectral",
                           "--ensemble-path", str(tmp_path / "dist.csv"), "--paths", "mc",
                           "--mc-samples", str(samples),
                           "--output-dir", str(tmp_path / str(samples))) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # a first call's one-time set-up is no part of the route
        # all 2^20 draws alone would take 8 MiB
        assert abs(peak(1 << 20) - peak(1 << 17)) < 1 << 19

    @pytest.mark.parametrize("path", ["he", "dilation", "mc", "master"])
    def test_spectral_needs_a_qubit_rho0(self, tmp_path, capsys, path):
        write_inputs(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho0": (np.eye(4) / 4).tolist()}))
        rc = run("simulate", "--config", str(cfg), "--ensemble-kind", "spectral",
                 "--ensemble-path", str(tmp_path / "dist.csv"), "--paths", path,
                 "--output-dir", str(tmp_path / "out"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "rho0 dimension differs from the ensemble" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dim,count", [(64, 1 << 20), (4, (1 << 18) + 1)])
    def test_times_by_state_size_is_bounded(self, tmp_path, capsys, dim, count):
        # times.count x dim^2 state entries per route may not pass the qubit budget
        # of 2^20 times x 4 entries, though each field alone is within its bound
        h = np.diag(np.linspace(-1.0, 1.0, dim)).tolist()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "ensemble": {"kind": "discrete", "members": [[1.0, h]]},
            "rho0": (np.eye(dim) / dim).tolist(),
            "times": {"t_max": 1.0, "count": count},
        }))
        assert run("simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "config fields 'times.count' and 'ensemble.members' are out of range" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

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

    def test_repeated_path_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"kind": "cnot"}, "paths": ["he", "he"]}))
        assert run("simulate", "--config", str(cfg), "--output-dir", str(tmp_path / "a")) == 2
        assert "simulation paths named more than once: ['he']" in capsys.readouterr().err
        assert run("simulate", "--ensemble-kind", "cnot", "--paths", "he,dilation,dilation",
                   "--output-dir", str(tmp_path / "b")) == 2
        assert "['dilation']" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


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
    (d / "dict_member.json").write_text(
        '{"ensemble": {"kind": "discrete", "members": [{"p": 1.0}]}}')


SMALL_GRID = ["--grid-t-max", "16", "--grid-n", "256"]
ZERO2 = [[0, 0], [0, 0]]
# what stderr must name where the failing layer's own message would not
BAD_VALUE_MESSAGES = {
    "huge-temperature": "decoherence exponent",
    "huge-omega-c-tiny-temperature": "decoherence exponent",
    "landscape-thermal": "T=0",
    "empty-window": "holds no frequency of the grid",
    "empty-times-list": "'times.list' is empty",
    "no-paths": "'paths'",
    "uneven-grid-dilation": "uniform and increasing",
    "uneven-grid-he-mc": "uniform and increasing",
    "huge-phases-count": "config field 'phases.count' is out of range",
    "huge-times-count": "config field 'times.count' is out of range",
    "huge-times-list": "config field 'times.list' is out of range",
    "huge-seed": "config field 'seed' is out of range",
    # the eigenvalue's last digits depend on LAPACK; the time does not
    "huge-phase-dilation": " * 10.0 is not representable in floating point",
    "huge-phase-he": " * 10000000000.0 is not representable in floating point",
    "huge-phase-spectral-he": "is not representable",
    "huge-phase-spectral-mc": "is not representable",
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
    # a phase w t past the float range, which e^{-iwt} would turn into NaN
    pytest.param(["simulate", "--ensemble-kind", "cnot", "--ensemble-j", "1e308",
                  "--times-count", "3", "--paths", "dilation"], id="huge-phase-dilation"),
    pytest.param(["simulate", "--ensemble-kind", "cnot", "--ensemble-j", "1e300",
                  "--times-t-max", "1e10", "--times-count", "3"], id="huge-phase-he"),
    pytest.param([*SPECTRAL, "--paths", "he", "--times-t-max", "1e308"],
                 id="huge-phase-spectral-he"),
    pytest.param([*SPECTRAL, "--paths", "mc", "--times-t-max", "1e308"],
                 id="huge-phase-spectral-mc"),
    pytest.param([*SPECTRAL, "--paths", "mc", "--mc-samples", "0"], id="zero-samples"),
    pytest.param([*SPECTRAL, "--paths", "dilation", "--ensemble-bins", "0"], id="zero-bins"),
    pytest.param([*UNEVEN, "--paths", "dilation"], id="uneven-grid-dilation"),
    pytest.param([*UNEVEN, "--paths", "he,mc"], id="uneven-grid-he-mc"),
    pytest.param(["landscape", "--model-temperature", "0.5", *SMALL_GRID],
                 id="landscape-thermal"),
    # the 256-point default grid's frequencies end near |omega| = 2
    pytest.param(["landscape", "--window-omega-lo", "1000", "--window-omega-hi", "2000",
                  "--grid-n", "256"], id="empty-window"),
    bad_field("landscape", "phases.count", "abc"),
    bad_field("landscape", "phases.count", 2.5, *SMALL_GRID),
    bad_field("landscape", "window.omega_lo", "a", *SMALL_GRID),
    bad_field("simulate", "times.count", "x", "--ensemble-kind", "cnot"),
    bad_field("simulate", "times.list", 3, "--ensemble-kind", "cnot"),
    bad_field("simulate", "paths", 5, "--ensemble-kind", "cnot"),
    bad_field("simulate", "paths", [], "--ensemble-kind", "cnot"),
    pytest.param(["simulate", "--ensemble-kind", "cnot", "--paths", ","], id="no-paths"),
    bad_field("simulate", "times.list", ["1"], "--ensemble-kind", "cnot"),
    pytest.param(["simulate", "--config", {"times": {"list": []}}, "--ensemble-kind", "cnot"],
                 id="empty-times-list"),
    # integers past int64 (and, in a list, past the float range) stop at the boundary
    pytest.param(["landscape", "--config", {"phases": {"count": 10**400}}],
                 id="huge-phases-count"),
    pytest.param(["simulate", "--config", {"times": {"count": 10**400}}, "--ensemble-kind",
                  "cnot"], id="huge-times-count"),
    pytest.param(["simulate", "--config", {"times": {"list": [1.0, 10**400]}},
                  "--ensemble-kind", "cnot"], id="huge-times-list"),
    pytest.param(["simulate", "--config", {"seed": 2**63}, "--ensemble-kind", "cnot"],
                 id="huge-seed"),
    bad_field("simulate", "ensemble.members", [["0.5", ZERO2], [0.5, ZERO2]],
              "--ensemble-kind", "discrete"),
    bad_field("simulate", "ensemble.members", [[True, ZERO2]], "--ensemble-kind", "discrete"),
    bad_field("simulate", "ensemble.members", [[1.0, [[1, 0], [0, "-1"]]]],
              "--ensemble-kind", "discrete"),
    bad_field("simulate", "rho0", [[0.5, "-0.5"], [-0.5, 0.5]], "--ensemble-kind", "cnot"),
    pytest.param(["simulate", "--config", "{d}/dict_member.json"], id="dict-member"),
    bad_field("simulate", "ensemble.a", "x", "--ensemble-kind", "cnot"),
    bad_field("simulate", "ensemble.members", 3, "--ensemble-kind", "discrete"),
    bad_field("simulate", "ensemble.members", [5], "--ensemble-kind", "discrete"),
    bad_field("simulate", "ensemble.members", [[1.0]], "--ensemble-kind", "discrete"),
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


def test_tiny_t_max_extended_series(tmp_path):
    # knots ~1e-202 apart: the spline is built on knots rescaled by a power of two
    rc = run("dephase", "--mode", "extended", "--grid-t-max", "1e-200", "--grid-n", "256",
             "--output-dir", str(tmp_path))
    assert rc == 0
    _, data = read_csv(tmp_path / "phi.csv")
    assert np.max(np.abs(data[:, 1] + 1j * data[:, 2] - 1.0)) < 1e-12


def field_types(path):
    default, types, _, _ = FIELDS[path]
    return types or (type(default),)


def field_value(cfg, path):
    return cfg[path]


FLAGS = [(name, path) for name, (_, _, fields) in COMMANDS.items() for path in COMMON + fields]
FLOAT_FIELDS = [path for path in FIELDS if float in field_types(path)]


def flag(path):
    return "--" + path.replace(".", "-").replace("_", "-")


@pytest.mark.parametrize("command,path", FLAGS, ids=[f"{c}-{p}" for c, p in FLAGS])
def test_flag_sets_exactly_its_field(command, path):
    parser = make_parser()
    base = load_config(parser.parse_args([command]))
    options = FIELDS[path][2]
    if "choices" in options:
        text = next(c for c in options["choices"] if c != field_value(base, path))
    else:
        text = {int: "7", float: "2.5", str: "x"}[field_types(path)[0]]
    cfg = load_config(parser.parse_args([command, flag(path), text]))
    changed = [p for p in FIELDS if field_value(cfg, p) != field_value(base, p)]
    assert changed == [path]
    assert str(field_value(cfg, path)) == text


@pytest.mark.parametrize("source", ["flag", "json"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 10**400],
                         ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize("path", FLOAT_FIELDS)
def test_non_finite_number_exits_two(tmp_path, capsys, path, value, source):
    command = next(c for c, p in FLAGS if p == path)
    if source == "flag":
        argv = [command, f"{flag(path)}={value!r}"]
    else:
        doc = value
        for key in reversed(path.split(".")):
            doc = {key: doc}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv = [command, "--config", str(config)]
    assert run(*argv, "--output-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"config field {path!r} must be finite" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


COUNT_FIELDS = [path for path in FIELDS if FIELDS[path][3] is not None]


@pytest.mark.parametrize("value", ["past", 10**15, 2**40])
@pytest.mark.parametrize("path", COUNT_FIELDS)
def test_count_past_its_bound_exits_two(tmp_path, capsys, path, value):
    # refused before anything is allocated; the bound itself passes the boundary
    command = next(c for c, p in FLAGS if p == path)
    bound = FIELDS[path][3]
    value = bound + 1 if value == "past" else value
    extra = ["--ensemble-kind", "cnot"] if command == "simulate" else []
    assert load_config(make_parser().parse_args([command, flag(path), str(bound)]))
    assert run(command, flag(path), str(value), *extra,
               "--output-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"config field {path!r} is out of range (at most {bound})" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def src_env():
    """The environment of a fresh interpreter that imports hens from this checkout."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def test_huge_temperature_ends(tmp_path):
    # Phi ~ 1e30: intervals whose exponent is past e^{-Phi} < 1e-16 are accepted
    # as they are instead of being split down to the refinement floor
    proc = subprocess.run([sys.executable, "-m", "hens.cli", "dephase", "--model-temperature",
                           "1e30", *SMALL_GRID, "--output-dir", str(tmp_path)],
                          env=src_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    _, data = read_csv(tmp_path / "phi.csv")
    assert np.all(data[data[:, 0] != 0.0, 3] == 0.0)


def test_subcommands_never_import_scipy(tmp_path):
    # every subcommand is a fresh process: importing scipy would cost more than the
    # quadrature; the extended series reaches the Legendre moments of the Filon rule
    runs = [["dephase", "--mode", "extended", "--grid-n", "256"], ["invert", "--grid-n", "256"]]
    code = "\n".join([
        "import sys",
        "from hens.cli import main",
        *(f"assert main({argv + ['--output-dir', str(tmp_path / argv[0])]!r}) == 0"
          for argv in runs),
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "dephase" / "phi.csv").is_file() and (tmp_path / "invert" / "wp.csv").is_file()


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

    @hypothesis.settings(max_examples=130, deadline=None, database=None)
    @hypothesis.example(command="landscape", omega0=0.0, phase=0.0, omega_c=1e300,
                        temperature=0.0, t_max=5.0, mode="extended")
    @hypothesis.example(command="landscape", omega0=0.0, phase=0.0, omega_c=1e-300,
                        temperature=0.0, t_max=20.0, mode="extended")
    # a subnormal t_max: the conjugate frequencies of its time step overflow
    @hypothesis.example(command="landscape", omega0=0.0, phase=0.0, omega_c=1.0,
                        temperature=0.0, t_max=2.2250738585e-313, mode="extended")
    @hypothesis.example(command="invert", omega0=0.0, phase=0.0, omega_c=1.0,
                        temperature=0.0, t_max=2.2250738585e-313, mode="conventional")
    @hypothesis.given(command=st.sampled_from(["dephase", "invert", "witness", "landscape"]),
                      omega0=special | st.floats(), phase=special | st.floats(),
                      omega_c=model, temperature=model, t_max=small,
                      mode=st.sampled_from(["conventional", "extended"]))
    def check(command, omega0, phase, omega_c, temperature, t_max, mode):
        out = tmp_path_factory.mktemp("run")
        argv = [command, "--mode", mode, "--grid-n", "256", "--output-dir", str(out),
                f"--model-omega-c={omega_c!r}", f"--model-temperature={temperature!r}",
                f"--grid-t-max={t_max!r}"]
        if command != "landscape":  # the landscape sweeps every phase, with no splitting
            argv += [f"--omega0={omega0!r}", f"--phase={phase!r}"]
        if command == "witness":
            argv.append("--witness-restarts=5")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()

    check()


def test_simulate_exit_codes_hold_for_spectral_tables(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # one or two Gaussians on a small uniform table; second < 0 gives a signed table
    # (its mass stays >= 0.1 of the first's), second = 0 a single Gaussian
    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.example(rows=257, centres=(3.0, -3.0), widths=(0.3, 0.3), second=1.0,
                        t_max=6.0, count=13)  # phi crosses zero between grid points
    @hypothesis.given(rows=st.sampled_from([64, 129]),
                      centres=st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                      widths=st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0)),
                      second=st.sampled_from([0.0]) | st.floats(-0.9, 1.0),
                      t_max=st.floats(0.5, 8.0), count=st.integers(1, 13))
    def check(rows, centres, widths, second, t_max, count):
        om = np.linspace(-8.0, 8.0, rows)
        (c1, c2), (s1, s2) = centres, widths
        p = (np.exp(-0.5 * ((om - c1) / s1) ** 2) / s1
             + second * np.exp(-0.5 * ((om - c2) / s2) ** 2) / s2)
        out = tmp_path_factory.mktemp("run")
        np.savetxt(out / "table.csv", np.column_stack([om, p / np.trapezoid(p, om)]),
                   delimiter=",")
        argv = ["simulate", "--ensemble-kind", "spectral", "--ensemble-path",
                str(out / "table.csv"), "--paths", "he,master", f"--times-t-max={t_max!r}",
                f"--times-count={count}", "--output-dir", str(out / "sim")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()

    check()


def test_model_table_exit_codes_hold(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # few distinct finite values, so that duplicate and unsorted omega come often
    entry = (st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]) | st.floats(-5.0, 5.0)
             | st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, 5e-324, -0.0]))
    # a row of one or three entries makes the table ragged
    row = st.lists(entry, min_size=2, max_size=2) | st.lists(entry, min_size=1, max_size=3)
    # and tables that the model takes, from w = 0 (a band far from w = 0 is an example)
    knots = st.lists(st.integers(1, 10), min_size=1, max_size=2, unique=True)
    sound = st.builds(lambda ks, js: [[k / 2.0, j] for k, j in zip([0, *sorted(ks)], js)],
                      knots, st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3))
    commands = [["dephase"], ["invert", "--mode", "extended"],
                ["landscape", "--phases-count", "4"]]

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    # unsorted, but distinct and spanning a positive width: only the model's check stops it
    @hypothesis.example(command=commands[0], temperature=0.0,
                        rows=[[0.0, 0.0], [2.0, 1.0], [1.0, 1.0]], header=False, sep=" ")
    # an empty table and a header-only one
    @hypothesis.example(command=commands[0], temperature=0.0, rows=[], header=False, sep=" ")
    @hypothesis.example(command=commands[1], temperature=0.0, rows=[], header=True, sep=",")
    # a narrow band far from w = 0, where the default t_max = 200 / width puts w t near 3500
    @hypothesis.example(command=commands[0], temperature=0.0, rows=[[4.07, 1.0], [4.32, 1.0]],
                        header=False, sep=" ")
    @hypothesis.example(command=commands[1], temperature=0.0, rows=[[4.07, 1.0], [4.32, 1.0]],
                        header=False, sep=" ")
    @hypothesis.example(command=commands[2], temperature=0.0, rows=[[4.07, 1.0], [4.32, 1.0]],
                        header=False, sep=" ")
    @hypothesis.given(command=st.sampled_from(commands), temperature=st.sampled_from([0.0, 0.5]),
                      rows=st.lists(row, max_size=3) | sound, header=st.booleans(),
                      sep=st.sampled_from([",", " "]))
    def check(command, temperature, rows, header, sep):
        out = tmp_path_factory.mktemp("run")
        lines = [sep.join(["omega", "J"])] if header else []
        lines += [sep.join(repr(float(x)) for x in r) for r in rows]
        (out / "j.txt").write_text("".join(line + "\n" for line in lines))
        argv = [*command, "--model-kind", "tabulated", "--model-path", str(out / "j.txt"),
                "--grid-n", "64", f"--model-temperature={temperature!r}",
                "--output-dir", str(out / "out")]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc in (0, 2, 3, 4)
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        if not rows:
            assert rc == 2 and "holds no rows" in err.getvalue()
        if rc == 0:  # a table J(omega): strictly increasing omega, nothing negative
            table = np.array([r[:2] for r in rows])
            assert np.all(np.diff(table[:, 0]) > 0) and np.all(table >= 0)

    check()


def test_discrete_ensembles_hold_the_exit_codes(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def mostly(common, rare, k):
        """common, but rare one draw in k"""
        return st.sampled_from(range(k)).flatmap(lambda i: rare if i == 0 else common)

    number = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-2.0, 2.0)
    odd = st.sampled_from([np.nan, np.inf, -0.5, 1e-300, "1", None]) | st.lists(number, max_size=3)
    # a number or an [re, im] pair, and rarely NaN, a string, null or a list of another length
    entry = mostly(number | st.lists(number, min_size=2, max_size=2), odd, 12)

    def square(n):
        return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)

    hermitian2 = st.builds(lambda a, b, re, im: [[a, [re, im]], [[re, -im], b]],
                           number, number, number, number)
    # mostly 2 x 2, else 0 to 3 rows, square or ragged
    matrix = mostly(hermitian2 | square(2), st.integers(0, 3).flatmap(square)
                    | st.lists(st.lists(entry, max_size=3), max_size=3), 4)

    @st.composite
    def members(draw):
        k = draw(st.integers(0, 3))
        return [[draw(mostly(st.just(1.0 / k), odd, 6)), draw(matrix)] for _ in range(k)]

    rho0 = mostly(st.sampled_from(["plus", "up", "down", "mixed"]),
                  st.sampled_from(["sideways", [[2.0, 0.0], [0.0, -1.0]]]) | matrix, 5)

    def hermitian(m):
        a = np.array([[complex(*v) if isinstance(v, list) else v for v in row] for row in m])
        return np.allclose(a, a.conj().T)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(members=members(), rho0=rho0)
    def check(members, rho0):
        out = tmp_path_factory.mktemp("run")
        doc = {"ensemble": {"kind": "discrete", "members": members}, "rho0": rho0}
        (out / "config.json").write_text(json.dumps(doc))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(["simulate", "--config", str(out / "config.json"), "--times-count", "3",
                       "--output-dir", str(out / "sim")])
        assert rc in (0, 2, 3, 4)
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        if rc == 0:  # every member a Hermitian matrix
            assert all(hermitian(m) for _, m in members)

    check()


def first_unknown_key(doc, prefix=""):
    """The first key path of a config document, in file order, that is neither a field
    nor an object of fields, or None."""
    for key, value in doc.items():
        path = prefix + key
        if "." in key or not any(p == path or p.startswith(path + ".") for p in FIELDS):
            return path
        if path not in FIELDS and isinstance(value, dict):
            inner = first_unknown_key(value, path + ".")
            if inner is not None:
                return inner
    return None


def test_config_trees_hold_the_exit_codes(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def mostly(common, rare, k):
        """common, but rare one draw in k"""
        return st.integers(0, k - 1).flatmap(lambda i: rare if i == 0 else common)

    special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e308, -1e308])
    # small counts keep every run short; 10**400 and 2**63 are past int64
    number = (st.integers(-2, 12) | st.sampled_from([10**400, 2**63]) | special
              | st.floats(-50.0, 50.0) | st.floats())
    scalar = st.none() | st.booleans() | number | st.sampled_from(
        ["", "he", "he,dilation", "mc", "plus", "up", "mixed", "cnot", "csv", "json", "x"])
    value = scalar | st.lists(scalar, max_size=3) | st.lists(
        st.lists(number, min_size=2, max_size=2), min_size=1, max_size=2)
    # values that simulate --ensemble-kind cnot takes, and the special floats of two fields
    good = {
        "ensemble.a": st.floats(0.0, 1.0),
        "ensemble.j": special | st.floats(),
        "times.t_max": special | st.floats(),
        "times.count": st.integers(1, 12),
        "times.list": st.none() | st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3),
        "paths": st.sampled_from([None, "he", "dilation,he", ["dilation"]]),
        "rho0": st.sampled_from(["plus", "up", "mixed", [[0.5, 0.5], [0.5, 0.5]]]),
        "seed": st.integers(0, 2**32),
    }
    sections = sorted({path.split(".")[0] for path in FIELDS if "." in path})
    leaves = {s: [p.split(".", 1)[1] for p in FIELDS if p.startswith(s + ".")]
              for s in sections}
    strange = st.sampled_from(["typo", "nn", "grid.n", "times.t_max", "a.b", ""])

    def field(path):
        if path not in FIELDS:
            return value
        return mostly(good.get(path, st.just(FIELDS[path][0])), value, 3)

    @st.composite
    def section(draw, name):
        if draw(st.integers(0, 9)) == 0:  # an object of fields given another value
            return draw(scalar)
        keys = draw(st.lists(mostly(st.sampled_from(leaves[name]), strange, 12), max_size=4))
        return {k: draw(field(f"{name}.{k}")) for k in keys}

    @st.composite
    def tree(draw):
        top = st.sampled_from([p for p in FIELDS if "." not in p] + sections)
        doc = {}
        for key in draw(st.lists(mostly(top, strange, 12), max_size=5)):
            doc[key] = draw(section(key)) if key in leaves else draw(field(key))
        return doc

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    # the dilation's phase w t overflows
    @hypothesis.example(doc={"ensemble": {"j": 1e308}})
    # the mean Hamiltonian rounds by ~1e-6, far above an absolute 1e-10
    @hypothesis.example(doc={"ensemble": {"a": 0.3, "j": 1e10}})
    # an unknown key is named before an earlier section that is no object
    @hypothesis.example(doc={"grid": 5, "times": {"list": [0.5]}, "typo": 1})
    @hypothesis.given(doc=tree())
    def check(doc):
        out = tmp_path_factory.mktemp("run")
        (out / "config.json").write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["simulate", "--config", str(out / "config.json"),
                       "--ensemble-kind", "cnot", "--output-dir", str(out / "sim")])
        assert rc in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        unknown = first_unknown_key(doc)
        not_objects = [k for k, v in doc.items() if k in leaves and not isinstance(v, dict)]
        if unknown is not None:
            assert rc == 2 and f"unknown config field {unknown!r}" in err.getvalue()
        elif not_objects:
            assert rc == 2
            assert f"config field {not_objects[0]!r} must be an object" in err.getvalue()

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
