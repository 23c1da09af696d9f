"""The `verify` battery: rows that a broken hypothesis must fail, and its cost.

Each mutation test monkeypatches one fact a row rests on, runs the full
battery at 16 elements per side and requires that row to read FAIL
(DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE Computer
11(4), 1978).  Unmutated, every row passes at that resolution.
"""

import dataclasses
import gc
import weakref

import pytest

from rtmodes import cli, dispersion, verify
from rtmodes.config import load_config
from rtmodes.dispersion import Stable
from rtmodes.forms import Band

AMPLIFICATION = "mode growth vs midpoint amplification R^N"
WINDOW = "Q(1e-8) definite only past xi_c (+-1e-3)"


def battery():
    rows = verify.run_battery(load_config(None, ["mesh.elements_per_side=16"]))
    return {r.name: r for r in rows}


def test_unmutated_battery_passes_with_the_amplification_row_at_roundoff():
    rows = battery()
    assert all(r.passed for r in rows.values())
    assert rows[AMPLIFICATION].value <= 1e-10 and rows[WINDOW].value == 0


def test_rate_off_by_1e_8_fails_the_amplification_row(monkeypatch):
    solve = verify.growth_rate

    def perturbed(*args):
        r = solve(*args)
        return r if isinstance(r, Stable) else dataclasses.replace(r, lam=r.lam * (1 + 1e-8))

    monkeypatch.setattr(verify, "growth_rate", perturbed)
    assert not battery()[AMPLIFICATION].passed


def test_viscous_form_off_by_1e_6_in_the_step_fails_the_amplification_row(monkeypatch):
    step = verify.integrate

    def perturbed(forms, *args):
        E1 = Band(forms.E1.data * (1 + 1e-6), forms.E1.pattern)
        return step(dataclasses.replace(forms, E1=E1), *args)

    monkeypatch.setattr(verify, "integrate", perturbed)
    assert not battery()[AMPLIFICATION].passed


@pytest.mark.parametrize("scale", [0.99, 1.01])
def test_surface_tension_mass_off_by_1_percent_fails_the_window_row(monkeypatch, scale):
    build = verify.assemble

    def scaled(profile, mesh, xi, **kwargs):
        forms = build(profile, mesh, xi, **kwargs)
        mass = profile.geometry.sigma * xi * xi / 2.0
        forms.E0.data[forms.E0.kd, forms.psi0_dof] += (scale - 1.0) * mass
        return forms

    monkeypatch.setattr(verify, "assemble", scaled)
    assert not battery()[WINDOW].passed


def test_battery_integrates_at_most_30_steps(monkeypatch):
    # the amplification row is exact at any dt; a 3000-step loop must not come back
    steps = []
    step = verify.integrate

    def counted(*args):
        traj = step(*args)
        steps.append(len(traj.times) - 1)
        return traj

    monkeypatch.setattr(verify, "integrate", counted)
    battery()
    assert 0 < sum(steps) <= 30


def test_battery_holds_no_finished_pencil_through_its_sweep(monkeypatch):
    # every FormSet the battery assembles itself (verify.assemble) or through a
    # mode's forms (dispersion.assemble) is dead by the time the sweep starts
    made, swept = [], []

    def recording(build):
        def assemble(*args, **kwargs):
            forms = build(*args, **kwargs)
            made.append(weakref.ref(forms))
            return forms
        return assemble

    def checked(*args, **kwargs):
        gc.collect()
        swept.append(sum(ref() is not None for ref in made))     # pencils still alive
        return sweep(*args, **kwargs)

    sweep = verify.sweep
    monkeypatch.setattr(verify, "assemble", recording(verify.assemble))
    monkeypatch.setattr(dispersion, "assemble", recording(dispersion.assemble))
    monkeypatch.setattr(verify, "sweep", checked)
    battery()
    assert len(made) > 10 and swept == [0]


def test_two_sample_sweep_setting_does_not_size_the_battery(tmp_path, capsys):
    # sweep.n sizes the dispersion curve; at 2 samples the battery's endpoint
    # rows would read each endpoint as the maximum
    argv = ["verify", "--set", "sweep.n=2", "--set", "mesh.elements_per_side=8",
            "--set", f"output.dir={tmp_path}"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "33 checks, 0 failed" in out and "FAIL" not in out


@pytest.mark.parametrize("elements, code", [(32, 4), (64, 0)])
def test_order_one_meshes_resolve_the_window_from_64_elements(tmp_path, capsys, elements, code):
    # the discrete window of a coarse order-1 mesh closes before xi_c, and the
    # window row says so; every other row passes
    argv = ["verify", "--set", "mesh.order=1", "--set", f"mesh.elements_per_side={elements}",
            "--set", f"output.dir={tmp_path}"]
    assert cli.main(argv) == code
    failed = [line for line in capsys.readouterr().out.splitlines() if line.endswith("FAIL")]
    assert [line.startswith(WINDOW) for line in failed] == [True] * (code == 4)
