import contextlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import rtmodes as rt
from rtmodes.cli import main
from rtmodes.config import KEYS, key_help, load_config
from rtmodes.errors import ConfigurationError


BASE = """
geometry.m = 1.0
geometry.ell = 1.0
geometry.g = 1.0
geometry.sigma = 0.1      # surface tension
fluid.lower.K = 2.0
fluid.upper.K = 1.0
mesh.elements_per_side = 16
sweep.n = 6
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASE + f"output.dir = {tmp_path / 'out'}\n")
    return p


def test_defaults_and_parsing(cfg_path):
    cfg = load_config(cfg_path)
    assert cfg["geometry.sigma"] == 0.1
    assert cfg["mesh.elements_per_side"] == 16
    assert cfg["fluid.lower.gamma"] == 1.0     # default survives
    prof = cfg.profile()
    assert prof.rho_plus == pytest.approx(2.0)
    mesh = cfg.mesh()
    assert mesh.n_elements == 32


def test_overrides_win(cfg_path):
    cfg = load_config(cfg_path, overrides=["geometry.sigma=0.2", "sweep.n=3"])
    assert cfg["geometry.sigma"] == 0.2
    assert cfg["sweep.n"] == 3


def test_unknown_key_rejected(cfg_path, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE + "geometry.elll = 2\n")
    with pytest.raises(ConfigurationError, match="geometry.elll"):
        load_config(bad)
    with pytest.raises(ConfigurationError, match="nope"):
        load_config(cfg_path, overrides=["nope=1"])
    # the viscosity law is c rho^p; its former kind selectors are gone
    with pytest.raises(ConfigurationError, match="viscosity.upper.delta_kind"):
        load_config(cfg_path, overrides=["viscosity.upper.delta_kind=power"])
    # the angular integral of synthesis is exact (no node count), and
    # geometry.L is the only period scale
    for item in ("synthesis.angular_nodes=64", "lattice.L=0"):
        with pytest.raises(ConfigurationError, match=item.split("=")[0]):
            load_config(cfg_path, overrides=[item])


def test_invalid_values_name_keys(cfg_path):
    with pytest.raises(ConfigurationError, match="geometry.sigma"):
        load_config(cfg_path, overrides=["geometry.sigma=-1"])
    with pytest.raises(ConfigurationError, match="parse"):
        load_config(cfg_path, overrides=["geometry.g=abc"])
    for raw in ("0", "-1"):
        with pytest.raises(ConfigurationError, match="lattice.xi_max"):
            load_config(cfg_path, overrides=[f"lattice.xi_max={raw}"])
    for raw in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigurationError, match="geometry.g"):
            load_config(cfg_path, overrides=[f"geometry.g={raw}"])


def test_viscosity_exponent_alone_selects_the_power_law(cfg_path):
    prof = load_config(cfg_path, overrides=["viscosity.lower.eps_power=2"]).profile()
    f = prof.fields(np.array([-0.5, 0.5]))
    assert f["eps"][0] == pytest.approx(0.1 * f["rho"][0] ** 2, rel=1e-15)
    assert f["eps"][1] == 0.1


def test_sweep_needs_a_sample(cfg_path, profile):
    with pytest.raises(ConfigurationError, match="sweep.n"):
        load_config(cfg_path, overrides=["sweep.n=0"])
    with pytest.raises(ConfigurationError):
        rt.sweep(profile, rt.Mesh.uniform(1, 1, 8, order=2), 1.0, 2.0, n=0)


def test_config_hash_tracks_values(cfg_path):
    a = load_config(cfg_path)
    b = load_config(cfg_path, overrides=["sweep.n=7"])
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == load_config(cfg_path).config_hash()


def test_key_help_covers_registry():
    text = key_help()
    for key in KEYS:
        assert key in text


def test_cli_help_documents_keys(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "geometry.sigma" in out
    assert "synthesis.f.a" in out


class TestCliRuns:
    def test_profile_and_mode(self, cfg_path, tmp_path, capsys):
        assert main(["profile", "--config", str(cfg_path)]) == 0
        csv = (tmp_path / "out" / "profile.csv").read_text().splitlines()
        assert csv[0] == "x3,rho0,Pprime_rho0,eps0,delta0"
        assert main(["mode", "--config", str(cfg_path), "--xi", "1.0"]) == 0
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta["lambda"] > 0
        assert "config_hash" in meta

    def test_dispersion_deterministic(self, cfg_path, tmp_path):
        assert main(["dispersion", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "out" / "curve.csv").read_bytes()
        assert main(["dispersion", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "curve.csv").read_bytes() == first

    def test_lattice_certificate_comment(self, cfg_path, tmp_path):
        L = math.sqrt(0.1)
        assert main(["lattice", "--config", str(cfg_path), "--L", str(L)]) == 0
        text = (tmp_path / "out" / "lattice.csv").read_text()
        assert "# certificate: stable" in text
        assert main(["lattice", "--config", str(cfg_path), "--L", "1.0"]) == 0
        text = (tmp_path / "out" / "lattice.csv").read_text()
        assert "certificate" not in text
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta["Lambda_L"] > 0

    def test_sigma_zero_lattice_is_never_certified(self, cfg_path, tmp_path, capsys):
        for xi_max in ("-1", "0", "0.5"):
            assert main(["lattice", "--config", str(cfg_path), "--L", "1",
                         "--set", "geometry.sigma=0", "--set", f"lattice.xi_max={xi_max}"]) == 2
            assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "lattice.csv").exists()

    def test_lattice_vs_dispersion_metadata(self, cfg_path, tmp_path):
        assert main(["dispersion", "--config", str(cfg_path)]) == 0
        Lam = json.loads((tmp_path / "out" / "run.json").read_text())["Lambda"]
        assert main(["lattice", "--config", str(cfg_path), "--L", "1.0"]) == 0
        LamL = json.loads((tmp_path / "out" / "run.json").read_text())["Lambda_L"]
        assert LamL <= Lam + 1e-3

    def test_evolve_columns(self, cfg_path, tmp_path):
        assert main(["evolve", "--config", str(cfg_path), "--xi", "1.0",
                     "--T", "1.0", "--dt", "0.01"]) == 0
        header = (tmp_path / "out" / "traj.csv").read_text().splitlines()[0]
        assert header == "t,kinetic,potential,dissipated_cum,norm1,norm2"

    def test_synthesize_files(self, cfg_path, tmp_path):
        code = main(["synthesize", "--config", str(cfg_path), "--t", "0,1",
                     "--grid", "3,3,4",
                     "--set", "synthesis.radial_nodes=4"])
        assert code == 0
        for t in ("0", "1"):
            path = tmp_path / "out" / "fields" / f"t{t}.csv"
            head = path.read_text().splitlines()
            assert head[0] == "x1,x2,x3,eta1,eta2,eta3,v1,v2,v3,q"
            assert len(head) == 1 + 3 * 3 * 4

    @pytest.mark.parametrize("extent, x1", [(["--set", "synthesis.grid.extent=1"], 1.0),
                                            ([], 3.0 * math.pi)])
    def test_periodic_synthesis_honours_extent(self, cfg_path, tmp_path, extent, x1):
        assert main(["synthesize", "--config", str(cfg_path), "--periodic", "--grid", "2,1,1",
                     "--set", "geometry.L=1.5", *extent]) == 0
        rows = (tmp_path / "out" / "fields" / "t0.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == pytest.approx([-x1, x1], rel=1e-12)

    @pytest.mark.parametrize("flag, key, value", [
        (["dispersion", "--n", "3"], "sweep.n", 3),
        (["mode", "--xi", "2"], "mode.xi", 2.0),
        (["lattice", "--L", "1.5"], "geometry.L", 1.5),
    ])
    def test_flags_are_recorded_as_config_keys(self, cfg_path, tmp_path, flag, key, value):
        # a flag overrides its key after --set, so run.json records what the run used
        assert main([*flag, "--config", str(cfg_path), "--set", f"{key}=1"]) == 0
        by_flag = json.loads((tmp_path / "out" / "run.json").read_text())
        assert by_flag[key] == value
        assert main([flag[0], "--config", str(cfg_path), "--set", f"{key}={flag[2]}"]) == 0
        by_set = json.loads((tmp_path / "out" / "run.json").read_text())
        assert by_flag == by_set

    def test_grid_flag_is_recorded_as_config_keys(self, cfg_path, tmp_path):
        small = ["--config", str(cfg_path), "--set", "synthesis.radial_nodes=2"]
        assert main(["synthesize", *small, "--set", "synthesis.grid.nx=5", "--grid", "2,2,3"]) == 0
        by_flag = json.loads((tmp_path / "out" / "run.json").read_text())
        rows = (tmp_path / "out" / "fields" / "t0.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 2 * 3
        assert [by_flag[f"synthesis.grid.{k}"] for k in ("nx", "ny", "nz")] == [2, 2, 3]
        assert main(["synthesize", *small, "--set", "synthesis.grid.nx=2",
                     "--set", "synthesis.grid.ny=2", "--set", "synthesis.grid.nz=3"]) == 0
        assert json.loads((tmp_path / "out" / "run.json").read_text()) == by_flag

    def test_periodic_synthesis_reads_lattice_cap(self, cfg_path, tmp_path):
        # without surface tension the lattice needs lattice.xi_max, given here as a key
        assert main(["synthesize", "--config", str(cfg_path), "--periodic", "--grid", "2,1,1",
                     "--set", "geometry.L=1.5", "--set", "geometry.sigma=0",
                     "--set", "lattice.xi_max=3"]) == 0
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta["Lambda_L"] > 0

    def test_exit_codes(self, cfg_path):
        assert main(["mode", "--config", str(cfg_path), "--set", "geometry.sigma=-1"]) == 2
        assert main(["mode", "--config", str(cfg_path), "--set", "bogus.key=1"]) == 2
        # evolve at a stable frequency is a configuration error
        assert main(["evolve", "--config", str(cfg_path), "--xi", "5.0"]) == 2

    def test_unstorable_step_count_exits_2(self, cfg_path, capsys):
        # T = 5 / lambda needs about 2.4e301 steps: refused before anything is allocated
        assert main(["evolve", "--config", str(cfg_path), "--xi", "1", "--dt", "1e-300"]) == 2
        err = capsys.readouterr().err
        assert "dt = 1e-300 and T = " in err and "steps" in err

    @pytest.mark.parametrize("command", ["mode", "forms", "evolve"])
    def test_overflowing_frequency_exits_2(self, cfg_path, capsys, command):
        assert main([command, "--config", str(cfg_path), "--xi", "1e300",
                     "--set", "geometry.sigma=0"]) == 2
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("dt, kind", [("5", "cholesky"), ("20", "lu")])
    def test_evolve_records_step_factor(self, cfg_path, tmp_path, dt, kind):
        # dt^2 g |xi| = 25 misses the sufficient condition (< 4) for a definite
        # step matrix, yet M is definite; at dt = 20 it is not, and LU takes it
        assert main(["evolve", "--config", str(cfg_path), "--xi", "1", "--dt", dt,
                     "--T", "50"]) == 0
        assert json.loads((tmp_path / "out" / "run.json").read_text())["step_factor"] == kind

    def test_rate_solves_record_their_cost(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["mode", "--config", str(cfg_path)]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert 2 < meta["factorizations"] <= 15 and 0 <= meta["bracket_rel_max"] <= 2e-11
        assert main(["dispersion", "--config", str(cfg_path)]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert 2 * 6 < meta["factorizations"] <= 15 * 7 and 0 <= meta["bracket_rel_max"] <= 2e-11
        assert (out / "curve.csv").read_text().splitlines()[0] == "xi,lambda,s_star,psi0,residual"

    def test_verify_quick(self, cfg_path, capsys):
        assert main(["verify", "--config", str(cfg_path), "--quick"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_forms_dump(self, cfg_path, tmp_path, capsys):
        assert main(["forms", "--config", str(cfg_path), "--xi", "1.0", "--dump"]) == 0
        for name in ("E0", "E1", "J"):
            path = tmp_path / "out" / f"forms_{name}.txt"
            lines = path.read_text().splitlines()
            assert lines[0] == "# row col value"
            row, col, val = lines[1].split()
            int(row), int(col), float(val)

    def test_negative_frequency_exits_2(self, cfg_path, capsys):
        assert main(["mode", "--config", str(cfg_path), "--xi", "-1"]) == 2
        assert "frequency" in capsys.readouterr().err

    def test_inadmissible_gamma_exits_2(self, cfg_path, capsys):
        assert main(["mode", "--config", str(cfg_path), "--set", "fluid.lower.gamma=0.5"]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_underintegrated_mass_exits_2(self, cfg_path, capsys):
        assert main(["mode", "--config", str(cfg_path), "--set", "mesh.quadrature=1"]) == 2
        assert "quadrature" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["mode", "--xi", "1"], ["dispersion", "--n", "3"]])
    def test_order_one_mesh_runs(self, cfg_path, tmp_path, command):
        # the coarse sweep's sample at xi = 3.099, just below xi_c, resolves no
        # growth: it is Stable, warns, and is counted
        sweeping = command[0] == "dispersion"
        with (pytest.warns(RuntimeWarning, match=r"Q\(1e-08\)") if sweeping
              else contextlib.nullcontext()):
            assert main([*command, "--config", str(cfg_path), "--set", "mesh.order=1",
                         "--set", "mesh.elements_per_side=3"]) == 0
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        lam = meta["Lambda"] if sweeping else meta["lambda"]
        assert math.isfinite(lam) and lam > 0
        if sweeping:
            assert meta["stable_count"] == 1
        else:
            assert meta["ode_residual"] is None

    def test_stable_mode_records_its_reason(self, cfg_path, tmp_path):
        meta = lambda: json.loads((tmp_path / "out" / "run.json").read_text())
        # sigma = 0: every frequency is unstable, so a Stable verdict warns
        with pytest.warns(RuntimeWarning, match="too coarse"):
            assert main(["mode", "--config", str(cfg_path), "--xi", "1e12",
                         "--set", "geometry.sigma=0"]) == 0
        assert meta()["stable"] == 1 and meta()["factorizations"] == 1
        assert meta()["stable_reason"] == "modified energy nonnegative as s -> 0"
        # beyond xi_c = sqrt(10) the window is closed
        assert main(["mode", "--config", str(cfg_path), "--xi", "5"]) == 0
        assert "surface tension closes the window" in meta()["stable_reason"]

    def test_stable_sweep_rows_are_counted(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match=r"Q\(1e-08\)"):
            assert main(["dispersion", "--config", str(cfg_path), "--n", "3",
                         "--set", "sweep.xi_min=1e-9", "--set", "sweep.xi_max=1e-8"]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["Lambda"] == 0.0 and meta["stable_count"] == 3
        rows = (out / "curve.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1:] for row in rows] == [["0"] * 4] * 3
        assert main(["dispersion", "--config", str(cfg_path)]) == 0
        assert json.loads((out / "run.json").read_text())["stable_count"] == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [[], ["--periodic", "--set", "geometry.L=1.5"]])
    def test_overflowing_synthesis_time_exits_2(self, cfg_path, tmp_path, capsys, kind):
        # e^{0.28 * 3000} is not a float: no field of NaNs, no traceback, and no
        # file even for the earlier time t = 0
        assert main(["synthesize", "--config", str(cfg_path), "--grid", "2,1,1",
                     "--set", "synthesis.radial_nodes=2", *kind, "--t", "0,3000"]) == 2
        err = capsys.readouterr().err
        assert re.search(r"t = 3000 .*growth rate 0\.2\d+", err), err
        assert not (tmp_path / "out" / "fields").exists()

    def test_empty_synthesis_grid_exits_2(self, cfg_path, capsys):
        assert main(["synthesize", "--config", str(cfg_path), "--grid", "0,2,2"]) == 2
        assert "synthesis.grid.nx" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["synthesis.grid.ny", "synthesis.radial_nodes"])
    def test_empty_synthesis_size_exits_2(self, cfg_path, capsys, key):
        assert main(["synthesize", "--config", str(cfg_path), "--set", f"{key}=0"]) == 2
        assert key in capsys.readouterr().err

    def test_nan_sigma_exits_2(self, cfg_path, capsys):
        assert main(["mode", "--config", str(cfg_path), "--set", "geometry.sigma=nan"]) == 2
        assert "geometry.sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["profile", "--resolution", "-5"],
        ["synthesize", "--t", "a"],
        ["synthesize", "--t", "0,inf"],
        ["lattice", "--L", "nan"],
        ["evolve", "--dt", "nan"],
        ["evolve", "--T", "inf"],
        ["mode", "--xi", "nan"],
        ["forms", "--xi", "inf"],
        ["dispersion", "--n", "0"],
        ["synthesize", "--grid", "2,2"],
        ["synthesize", "--grid", "2,2,x"],
    ])
    def test_bad_numeric_flag_exits_2(self, cfg_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg_path)])
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err
        assert not (cfg_path.parent / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["lattice", "--L", "0", "--set", "geometry.L=1.5"],
        ["lattice", "--set", "geometry.L=0"],
        ["evolve", "--xi", "0"],
        ["evolve", "--xi", "1", "--dt", "0"],
        ["evolve", "--xi", "1", "--T", "0"],
        ["synthesize", "--set", "synthesis.grid.extent=0", "--grid", "2,1,1"],
        ["synthesize", "--set", "synthesis.grid.extent=-3", "--grid", "2,1,1"],
    ])
    def test_explicit_zero_is_not_a_default(self, cfg_path, capsys, argv):
        assert main([*argv, "--config", str(cfg_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("edge, given, other, other_default", [
        ("a", 1.2, "b", 0.7), ("b", 2.0, "a", 0.3),
    ])
    def test_bump_edge_set_alone_is_kept(self, cfg_path, tmp_path, capsys, edge, given, other,
                                         other_default):
        small = ["--grid", "2,1,1", "--set", "synthesis.radial_nodes=2"]
        assert main(["synthesize", "--config", str(cfg_path), *small,
                     "--set", f"synthesis.f.{edge}={given}"]) == 0
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        xi_c = math.sqrt(10.0)      # sqrt(g [rho0] / sigma) with [rho0] = 1, sigma = 0.1
        assert meta[f"f_{edge}"] == given
        assert meta[f"f_{other}"] == pytest.approx(other_default * xi_c, rel=1e-12)
        # without surface tension there is no xi_c to default the other edge from
        assert main(["synthesize", "--config", str(cfg_path), *small, "--set", "geometry.sigma=0",
                     "--set", f"synthesis.f.{edge}={given}"]) == 2
        assert "xi_c" in capsys.readouterr().err
