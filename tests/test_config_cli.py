import json
import math
import re
import shutil
import time
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


def assert_warned(meta, err, match):
    """A run's warnings reach run.json and stderr, one ``warning: <message>`` line each."""
    assert meta["warnings"] and all(re.search(match, w) for w in meta["warnings"])
    assert err.splitlines() == [f"warning: {w}" for w in meta["warnings"]]


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


# every rule _validate checks, broken at its boundary, with the message it has
# always given; the boundary value itself passes
@pytest.mark.parametrize("bad, good, message", [
    ("geometry.m=0", "geometry.m=1e-300", "geometry.m must be > 0"),
    ("geometry.ell=0", "geometry.ell=1e-300", "geometry.ell must be > 0"),
    ("geometry.g=0", "geometry.g=1e-300", "geometry.g must be > 0"),
    ("geometry.sigma=-1e-300", "geometry.sigma=0", "geometry.sigma must be >= 0"),
    ("geometry.L=0", "geometry.L=1e-300", "geometry.L must be > 0"),
    ("fluid.lower.rho0=0", "fluid.lower.rho0=1e-300", "fluid.lower.rho0 must be > 0"),
    ("viscosity.lower.eps=0", "viscosity.lower.eps=1e-300", "viscosity.lower.eps must be > 0"),
    ("viscosity.lower.delta=-1e-300", "viscosity.lower.delta=0",
     "viscosity.lower.delta must be >= 0"),
    ("viscosity.upper.eps=0", "viscosity.upper.eps=1e-300", "viscosity.upper.eps must be > 0"),
    ("viscosity.upper.delta=-1e-300", "viscosity.upper.delta=0",
     "viscosity.upper.delta must be >= 0"),
    ("mesh.elements_per_side=1", "mesh.elements_per_side=2",
     "mesh.elements_per_side must be >= 2"),
    ("mesh.order=3", "mesh.order=1", "mesh.order must be 1 or 2"),
    ("sweep.n=0", "sweep.n=1", "sweep.n must be >= 1"),
    ("lattice.xi_max=0", "lattice.xi_max=1e-300", "lattice.xi_max must be > 0"),
    ("synthesis.radial_nodes=0", "synthesis.radial_nodes=1", "synthesis.radial_nodes must be >= 1"),
    ("synthesis.grid.nx=0", "synthesis.grid.nx=1", "synthesis.grid.nx must be >= 1"),
    ("synthesis.grid.ny=0", "synthesis.grid.ny=1", "synthesis.grid.ny must be >= 1"),
    ("synthesis.grid.nz=0", "synthesis.grid.nz=1", "synthesis.grid.nz must be >= 1"),
    ("synthesis.grid.extent=0", "synthesis.grid.extent=1e-300",
     "synthesis.grid.extent must be > 0"),
    ("mode.xi=0", "mode.xi=1e-300", "mode.xi must be > 0"),
    ("evolve.xi=0", "evolve.xi=1e-300", "evolve.xi must be > 0"),
    ("evolve.T=0", "evolve.T=1e-300", "evolve.T must be > 0"),
    ("evolve.dt=0", "evolve.dt=1e-300", "evolve.dt must be > 0"),
], ids=lambda v: v.split("=")[0] if "=" in v else "")
def test_each_rule_keeps_its_message(bad, good, message):
    with pytest.raises(ConfigurationError) as info:
        load_config(None, [bad])
    assert str(info.value) == message
    load_config(None, [good])


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


def _help_lines():
    """key -> the rest of its key_help line."""
    return dict(line.strip().split(" ", 1) for line in key_help().splitlines())


def test_key_help_prints_each_rule_from_keys():
    # the rule is stated once, in KEYS: --help prints it and no help text repeats it
    lines = _help_lines()
    for key, (_, _, rule, doc) in KEYS.items():
        assert ("must be" in lines[key]) == (rule is not None), key
        if rule is not None:
            assert f"; must be {rule}" in lines[key] and rule not in doc, key


def test_key_help_states_the_sigma_zero_defaults():
    # at sigma = 0, xi_c is inf: the sweep falls back to [0.02, 50] and the bump
    # needs both edges, and --help says so
    lines = _help_lines()
    assert "0.02 when sigma = 0" in lines["sweep.xi_min"]
    assert "50 when sigma = 0" in lines["sweep.xi_max"]
    assert all("required when sigma = 0" in lines[f"synthesis.f.{e}"] for e in "ab")
    config = load_config(None, ["geometry.sigma=0", "mesh.elements_per_side=2"])
    xi_c = config.profile().xi_c
    assert config.sweep_range(xi_c) == (0.02, 50.0)
    with pytest.raises(ConfigurationError, match="pass a, b"):
        rt.BumpProfile.default(xi_c, 1.0)


def test_cli_help_documents_keys(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "geometry.sigma" in out
    assert "synthesis.f.a" in out


def _table(name):
    return ["--set", "fluid.lower.law=tabulated", "--set", f"fluid.lower.table={{tmp}}/{name}"]


@pytest.mark.parametrize("argv, message", [
    (["mode", "--config", "{tmp}/missing.cfg"], "cannot read the config file"),
    (["mode", *_table("missing.csv")], "missing.csv not found"),
    (["mode", *_table("adir")], "Is a directory"),
    (["mode", *_table("noP.csv")], "no field of name P"),
    (["mode", *_table("empty.csv")], "list index out of range"),
    (["mode", *_table("word.csv")], "must be finite numbers"),
    (["mode", "--set", "output.dir={tmp}/file"], "output.dir: [Errno 17] File exists"),
    (["profile", "--set", "output.dir={tmp}/o1", "--out", "sub"],
     "cannot write {tmp}/o1/sub: [Errno 21] Is a directory"),
    (["synthesize", "--set", "output.dir={tmp}/o2", "--grid", "2,1,1",
      "--set", "synthesis.radial_nodes=2"], "cannot write {tmp}/o2/fields: [Errno 17] File exists"),
    (["profile", "--set", "output.dir={tmp}/o3"],
     "cannot write {tmp}/o3/run.json: [Errno 21] Is a directory"),
    (["mode", "--set", "fluid.lower.law=tabulated"],
     "fluid.lower.table is required for tabulated laws"),
    (["mode", "--set", "fluid.upper.law=ideal"],
     "fluid.upper.law must be polytropic or tabulated, got 'ideal'"),
    (["mode", "--config", "{tmp}/noeq.cfg"], "line 2: expected key = value, got 'geometry.m 2'"),
    (["mode", "--set", "geometry.m"], "override: expected key = value, got 'geometry.m'"),
], ids=["missing config", "missing table", "table is a directory", "table without P",
        "empty table", "non-numeric table cell", "output.dir is a file",
        "--out is a directory", "fields is a file", "run.json is a directory",
        "tabulated law without a table", "unknown law", "config line without =",
        "override without ="])
def test_bad_file_input_exits_2_without_traceback(cfg_path, tmp_path, capsys, argv, message):
    (tmp_path / "adir").mkdir()
    (tmp_path / "noP.csv").write_text("rho,Q\n0.5,1.0\n1.0,2.0\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "word.csv").write_text("rho,P\n0.5,1.0\n1.0,two\n")
    (tmp_path / "file").write_text("")
    (tmp_path / "o1" / "sub").mkdir(parents=True)
    (tmp_path / "o2").mkdir()
    (tmp_path / "o2" / "fields").write_text("")
    (tmp_path / "o3" / "run.json").mkdir(parents=True)
    (tmp_path / "noeq.cfg").write_text("geometry.g = 1\ngeometry.m 2\n")
    # main records numpy's "Empty input file" warning; it does not reach pytest
    code = main([argv[0], "--config", str(cfg_path), *(a.format(tmp=tmp_path) for a in argv[1:])])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert "configuration error" in err and message.format(tmp=tmp_path) in err


@pytest.mark.parametrize("argv, message", [
    (["mode", *_table("one_row.csv")], "fluid.lower.table '{tmp}/one_row.csv': "
                                       "tabulated law needs matching 1D (rho, P) samples"),
    (["mode", *_table("negative.csv")], "fluid.lower.table '{tmp}/negative.csv': "
                                        "tabulated samples must have rho > 0 and P > 0"),
    (["lattice"], "lattice needs --L or geometry.L"),
    (["synthesize", "--periodic"], "periodic synthesis needs geometry.L"),
    (["mode", "--set", "geometry.m=1e-323"],
     "slab depths m = 9.88131e-324, ell = 1 are too thin for 16 elements per side"),
], ids=["one-row table", "table from rho <= 0", "lattice without L", "periodic synthesis without L",
        "subnormal slab depth"])
def test_refused_input_prints_one_line(cfg_path, tmp_path, capsys, argv, message):
    (tmp_path / "one_row.csv").write_text("rho,P\n1.0,2.0\n")
    (tmp_path / "negative.csv").write_text("rho,P\n-1.0,0.5\n1.0,2.0\n2.0,3.0\n")
    code = main([argv[0], "--config", str(cfg_path), *(a.format(tmp=tmp_path) for a in argv[1:])])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: " + message.format(tmp=tmp_path)]


def test_failed_run_records_itself(cfg_path, tmp_path, capsys):
    # a run that fails after output.dir exists replaces the previous run's
    # run.json with its own record, not leaving a stale success beside it
    out = tmp_path / "st"
    argv = ["--config", str(cfg_path), "--set", f"output.dir={out}"]
    assert main(["mode", *argv]) == 0
    (out / "sub").mkdir()
    assert main(["profile", *argv, "--out", "sub"]) == 2
    meta = json.loads((out / "run.json").read_text())
    assert meta["subcommand"] == "profile" and meta["exit_code"] == 2
    assert meta["error"] == "ConfigurationError" and f"cannot write {out / 'sub'}" in meta["message"]
    assert "lambda" not in meta
    err = capsys.readouterr().err
    assert err.count("configuration error") == 1 and f"cannot write {out / 'sub'}" in err


def test_failed_run_that_cannot_record_keeps_its_error(cfg_path, tmp_path, capsys):
    # run.json is a directory and the handler fails too: the handler's message and code stand
    out = tmp_path / "o"
    (out / "run.json").mkdir(parents=True)
    assert main(["evolve", "--config", str(cfg_path), "--set", f"output.dir={out}",
                 "--xi", "5.0"]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error") == 1 and "is stable" in err


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

    def test_lattice_cap_applies_with_surface_tension(self, cfg_path, tmp_path, capsys):
        lattice = ["lattice", "--config", str(cfg_path)]
        assert main([*lattice, "--L", "1.5", "--set", "lattice.xi_max=1"]) == 0
        rows = np.loadtxt(tmp_path / "out" / "lattice.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows.size and np.all(rows[:, 2] < 1.0)
        assert main([*lattice, "--L", "1", "--set", "lattice.xi_max=0.5"]) == 2
        assert "1/L = 1" in capsys.readouterr().err
        assert main([*lattice, "--L", repr(math.sqrt(0.1)), "--set", "lattice.xi_max=0.5"]) == 0
        assert "# certificate: stable" in (tmp_path / "out" / "lattice.csv").read_text()

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

    @pytest.mark.parametrize("dt, code", [("9", 0), ("20", 2)])
    def test_evolve_step_must_be_below_two_over_lambda(self, cfg_path, tmp_path, capsys, dt, code):
        # lambda(1) = 0.209, so 2 / lambda = 9.57: dt = 9 factors the step
        # matrix by Cholesky (dt^2 g |xi| = 81, far past the sufficient bound
        # of 4); dt = 20 does not, and is refused with one line naming dt and |xi|
        assert main(["evolve", "--config", str(cfg_path), "--xi", "1", "--dt", dt,
                     "--T", "50"]) == code
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta.get("exit_code", 0) == code and "step_factor" not in meta
        err = capsys.readouterr().err
        if code:
            assert "dt = 20 for |xi| = 1" in err and "Traceback" not in err
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("dt", ["1e153", "1e200"])
    def test_evolve_step_that_overflows_exits_2(self, cfg_path, capsys, dt):
        # (dt^2/2) E0 overflows at 1e153 and dt^2 itself at 1e200, both far past
        # 2 / lambda: refused as not definite, in one line
        assert main(["evolve", "--config", str(cfg_path), "--xi", "1", "--dt", dt, "--T", dt]) == 2
        err = capsys.readouterr().err
        assert "not definite at dt = %g for |xi| = 1" % float(dt) in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

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

    @pytest.mark.parametrize("override, message", [
        ("sweep.xi_min=-1", "0 < xi_min < xi_max"),
        ("sweep.xi_max=100", "critical frequency"),
    ], ids=["xi_min", "xi_max"])
    def test_verify_refuses_a_bad_sweep_range_before_solving(self, cfg_path, capsys, monkeypatch,
                                                             override, message):
        import rtmodes.verify

        solves = []
        for module in (rt.dispersion, rtmodes.verify):
            monkeypatch.setattr(module, "growth_rate", lambda *a, **k: solves.append(a))
        assert main(["verify", "--config", str(cfg_path), "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert solves == []

    def test_lost_iterate_is_a_solver_error(self, cfg_path, capsys):
        argv = ["verify", "--config", str(cfg_path), "--quick", "--set", "fluid.lower.rho0=1e-300"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "lost its iterate" in err and "encountered in" not in err

    def test_no_definite_shift_is_a_solver_error(self, cfg_path, capsys):
        # forms near 1e300 round E0 + g |xi| J off its exact semidefiniteness,
        # so bottom_eig's certified lower end does not factor
        argv = ["verify", "--config", str(cfg_path), "--quick", "--set", "fluid.lower.K=1e300"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "no definite shift below the spectrum" in err and "encountered in" not in err

    @pytest.mark.parametrize("override", [
        "geometry.m=1e300", "viscosity.lower.eps_power=1e300", "viscosity.upper.eps_power=1e300",
        "viscosity.lower.delta_power=1e300", "viscosity.upper.delta_power=1e300",
    ])
    def test_overflowing_profile_exits_2(self, cfg_path, capsys, override):
        assert main(["profile", "--config", str(cfg_path), "--set", override]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "encountered in" not in err

    def test_forms_dump(self, cfg_path, tmp_path, capsys):
        assert main(["forms", "--config", str(cfg_path), "--xi", "1.0", "--dump"]) == 0
        for name in ("E0", "E1", "J"):
            path = tmp_path / "out" / f"forms_{name}.txt"
            lines = path.read_text().splitlines()
            assert lines[0] == "# row col value"
            row, col, val = lines[1].split()
            int(row), int(col), float(val)

    def test_forms_records_its_run(self, cfg_path, tmp_path, capsys):
        assert main(["forms", "--config", str(cfg_path), "--xi", "0.5"]) == 0
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta["subcommand"] == "forms" and meta["xi"] == 0.5
        assert capsys.readouterr().out.startswith(f"dofs={meta['dofs']} ")

    def test_negative_frequency_exits_2(self, cfg_path, capsys):
        assert main(["mode", "--config", str(cfg_path), "--xi", "-1"]) == 2
        assert capsys.readouterr().err == "configuration error: mode.xi must be > 0\n"

    def test_inadmissible_gamma_exits_2(self, cfg_path, capsys):
        assert main(["mode", "--config", str(cfg_path), "--set", "fluid.lower.gamma=0.5"]) == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_polytropic_law_errors_name_their_fluid(self, cfg_path, capsys, side):
        for item, message in ((f"fluid.{side}.K=-1", "polytropic pressure scale K must be > 0"),
                              (f"fluid.{side}.gamma=0.5", "adiabatic exponent gamma must be >= 1")):
            assert main(["mode", "--config", str(cfg_path), "--set", item]) == 2
            assert capsys.readouterr().err == f"configuration error: fluid.{side}: {message}\n"

    def test_removed_keys_exit_2(self, cfg_path, capsys):
        # the Gauss rule has three points and the bump a unit amplitude: neither is a key
        for command, key in (("mode", "mesh.quadrature=3"), ("synthesize", "synthesis.f.amp=2")):
            assert main([command, "--config", str(cfg_path), "--set", key]) == 2
            assert f"unknown key {key.split('=')[0]!r}" in capsys.readouterr().err
        assert "mesh.quadrature" not in key_help() and "synthesis.f.amp" not in key_help()

    # each size is past numpy's addressable limit, so it fails before anything is allocated
    @pytest.mark.parametrize("argv, message", [
        (["profile", "--resolution", "4000000000000000000"], "--resolution 4000000000000000000"),
        (["dispersion", "--n", "4000000000000000000"], "4000000000000000000 sweep samples"),
        (["mode", "--set", "mesh.elements_per_side=4000000000000000000"],
         "4000000000000000000 elements per side"),
        (["synthesize", "--grid", "3000000,3000000,3000000"],
         "a 3000000 x 3000000 x 3000000 sample grid"),
        (["synthesize", "--grid", "1,1,4000000000000000000"],
         "a 1 x 1 x 4000000000000000000 sample grid"),
        (["synthesize", "--set", "synthesis.radial_nodes=4000000000000000000"],
         "4000000000000000000 radial nodes"),
        # 2 floor(xi_c L) + 3 integers per axis, xi_c = sqrt(10)
        (["lattice", "--L", "1e300"], "6.32456e+300 x 6.32456e+300 lattice points (L = 1e+300)"),
        (["synthesize", "--periodic", "--set", "geometry.L=1e300"],
         "6.32456e+300 x 6.32456e+300 lattice points (L = 1e+300)"),
    ])
    def test_oversized_input_exits_2(self, cfg_path, tmp_path, capsys, argv, message):
        assert main([*argv, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"{message}: more than can be stored" in err
        # a grid that fails only at its first sample leaves no samples directory
        assert not (tmp_path / "out" / "fields").exists()

    def test_radial_rule_leggauss_could_not_store_exits_2_before_solving(self, cfg_path, capsys,
                                                                        monkeypatch):
        # the Newton rule's arrays would fit, but leggauss's 100000 x 100000 matrix
        # (80 GB) did not, and such a count stays refused, before any rate solve
        # (the field's radial solves all go through dispersion.growth_rate)
        solves = []
        monkeypatch.setattr(rt.dispersion, "growth_rate", lambda *a, **k: solves.append(a))
        argv = ["synthesize", "--config", str(cfg_path), "--set", "synthesis.radial_nodes=100000"]
        assert main(argv) == 2
        assert "100000 radial nodes: more than can be stored" in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize("command", [["mode", "--xi", "1"], ["dispersion", "--n", "3"]])
    def test_order_one_mesh_runs(self, cfg_path, tmp_path, capsys, command):
        # the coarse sweep's sample at xi = 3.099, just below xi_c, resolves no
        # growth: it is Stable, warns, and is counted
        sweeping = command[0] == "dispersion"
        assert main([*command, "--config", str(cfg_path), "--set", "mesh.order=1",
                     "--set", "mesh.elements_per_side=3"]) == 0
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        lam = meta["Lambda"] if sweeping else meta["lambda"]
        assert math.isfinite(lam) and lam > 0
        if sweeping:
            assert meta["stable_count"] == 1
            assert_warned(meta, capsys.readouterr().err, r"Q\(1e-08\)")
        else:
            assert meta["ode_residual"] is None
            assert "warnings" not in meta and "warning" not in capsys.readouterr().err

    def test_stable_mode_records_its_reason(self, cfg_path, tmp_path, capsys):
        meta = lambda: json.loads((tmp_path / "out" / "run.json").read_text())
        # sigma = 0: every frequency is unstable, so a Stable verdict warns
        assert main(["mode", "--config", str(cfg_path), "--xi", "1e12",
                     "--set", "geometry.sigma=0"]) == 0
        assert_warned(meta(), capsys.readouterr().err, "too coarse")
        assert meta()["stable"] == 1 and meta()["factorizations"] == 1
        assert meta()["stable_reason"] == "modified energy nonnegative as s -> 0"
        # beyond xi_c = sqrt(10) the window is closed
        assert main(["mode", "--config", str(cfg_path), "--xi", "5"]) == 0
        assert "surface tension closes the window" in meta()["stable_reason"]

    def test_stable_sweep_rows_are_counted(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["dispersion", "--config", str(cfg_path), "--n", "3",
                     "--set", "sweep.xi_min=1e-9", "--set", "sweep.xi_max=1e-8"]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert_warned(meta, capsys.readouterr().err, r"Q\(1e-08\)")
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
        assert "warning" not in err       # main records warnings; none is raised here
        assert not (tmp_path / "out" / "fields").exists()

    @pytest.mark.parametrize("key", ["synthesis.grid.extent=1e300", "synthesis.f.a=1e-300"])
    def test_far_synthesis_grid_has_finite_fields(self, cfg_path, tmp_path, capsys, key):
        # |xi| |x_h| reaches about 1e300: J0 and J1 stay floats, at O(1) cost per point
        assert main(["synthesize", "--config", str(cfg_path), "--set", key]) == 0
        assert "warning" not in capsys.readouterr().err
        fields = np.loadtxt(tmp_path / "out" / "fields" / "t0.csv", delimiter=",", skiprows=1)
        assert fields.shape == (8 * 8 * 9, 10) and np.isfinite(fields).all()

    def test_wide_synthesis_grid_is_fast(self, cfg_path):
        start = time.perf_counter()
        assert main(["synthesize", "--config", str(cfg_path), "--set", "mesh.elements_per_side=8",
                     "--set", "synthesis.grid.extent=1e7"]) == 0
        assert time.perf_counter() - start < 1.0

    def test_overflowing_bessel_argument_exits_2(self, cfg_path, tmp_path, capsys):
        # without surface tension the bump may sit at |xi| = 10..20, and
        # |xi| |x_h| passes the largest float inside an extent of 1e307, where
        # J0 and J1 would be nan
        assert main(["synthesize", "--config", str(cfg_path), "--set", "geometry.sigma=0",
                     "--set", "synthesis.f.a=10", "--set", "synthesis.f.b=20",
                     "--set", "synthesis.grid.extent=1e307"]) == 2
        err = capsys.readouterr().err
        assert "the Bessel argument |xi| |x_h| overflows" in err and "warning" not in err
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

    # flags that name no configuration key, and --grid's shape, are argparse's to
    # refuse; a flag that mirrors a key fails in config (test_alias_flag_fails_like_its_set)
    @pytest.mark.parametrize("argv", [
        ["profile", "--resolution", "-5"],
        ["synthesize", "--t", "a"],
        ["synthesize", "--t", "0,inf"],
        ["profile", "--resolution", "0"],
        ["profile", "--resolution", "x"],
        ["forms", "--xi", "nan"],
        ["forms", "--xi", "x"],
        ["forms", "--xi", "inf"],
        ["synthesize", "--t", "nan"],
        ["synthesize", "--grid", "2,2"],
        ["synthesize", "--grid", "1,2,3,4"],
        ["forms", "--xi", "-1"],
        ["forms", "--xi", "0"],
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

    @pytest.mark.parametrize("argv, message", [
        (["profile", "--resolution", "0"], "argument --resolution: resolution must be >= 1"),
        (["profile", "--resolution", "1.5"],
         "argument --resolution: resolution: cannot parse '1.5' as int"),
        (["forms", "--xi", "nan"], "argument --xi: xi: 'nan' is not a finite number"),
        (["synthesize", "--t", "0,x"], "argument --t: t: cannot parse 'x' as float"),
        (["synthesize", "--grid", "2,2"], "argument --grid: expected three sizes nx,ny,nz, got '2,2'"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_flag_that_names_no_key_is_parsed_by_config(self, cfg_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"rtmodes {argv[0]}: error: {message}"


# each flag that mirrors a configuration key: its text (with {v} the value under
# test), the --set items it stands for, and a valid value
ALIASES = {
    "mode --xi": ("{v}", ["mode.xi={v}"], "1.7"),
    "dispersion --n": ("{v}", ["sweep.n={v}"], "3"),
    "lattice --L": ("{v}", ["geometry.L={v}"], "1.3"),
    "synthesize --grid": ("2,{v},2", ["synthesis.grid.nx=2", "synthesis.grid.ny={v}",
                                      "synthesis.grid.nz=2"], "3"),
    "evolve --xi": ("{v}", ["evolve.xi={v}"], "0.8"),
    "evolve --T": ("{v}", ["evolve.T={v}"], "3"),
    "evolve --dt": ("{v}", ["evolve.dt={v}"], "0.05"),
}


@pytest.mark.parametrize("value", ["valid", "nan", "0", "-1", "x", "-1e-3"])
@pytest.mark.parametrize("alias", ALIASES)
def test_alias_flag_fails_like_its_set(cfg_path, tmp_path, capsys, alias, value):
    # config parses and checks a mirrored flag as the --set it stands for: the
    # same exit code, the same stdout and stderr, and the same output files; a
    # bad value is refused before output.dir is made
    command, flag = alias.split()
    text, items, valid = ALIASES[alias]
    value = valid if value == "valid" else value
    out = tmp_path / "out"
    base = [command, "--config", str(cfg_path), "--set", "synthesis.radial_nodes=2"]

    def run(argv):
        code = main(base + argv)
        printed = capsys.readouterr()
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        made = out.exists()
        shutil.rmtree(out, ignore_errors=True)
        return code, printed.out, printed.err, files, made

    by_flag = run([flag, text.format(v=value)])
    by_set = run([arg for item in items for arg in ("--set", item.format(v=value))])
    assert by_flag == by_set
    code, _, err, files, made = by_flag
    if value == valid:
        assert code == 0 and files
    else:
        assert code == 2 and err.startswith("configuration error: ") and not made


def test_negative_time_in_exponent_form_is_a_value(cfg_path, tmp_path, capsys):
    # argparse alone takes "-1e3" after a flag for an option; the CLI reads it as --t=-1e3
    out = tmp_path / "out"
    base = ["synthesize", "--config", str(cfg_path), "--grid", "2,1,2",
            "--set", "synthesis.radial_nodes=2"]

    def run(flags):
        code = main(base + flags)
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        shutil.rmtree(out)
        return code, capsys.readouterr(), files

    spaced = run(["--t", "-1e3"])
    assert spaced == run(["--t=-1e3"])
    assert spaced[0] == 0 and Path("fields/t-1000.csv") in spaced[2]


@pytest.mark.parametrize("argv", [["verify", "--quick"], ["forms", "--xi", "1"]])
def test_out_is_refused_where_no_file_is_named(cfg_path, capsys, argv):
    # only the subcommands that write a named file take --out
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfg_path), "--out", "named.csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out named.csv" in capsys.readouterr().err
    assert not (cfg_path.parent / "out").exists()
