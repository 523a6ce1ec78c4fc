"""The reference checks pass on real outputs and fail on one perturbed output.

    python3 -m pytest perfbench/test_checks.py

Each test produces one workload's real output through the package, shows
that its check accepts it, then changes a single output (one Fraction
coefficient, one float by 1e-6 relative, or one block eigenvalue) and
shows that the check refuses it.
"""
import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import ExactSeries, FockSectors, JackGrid, ResidualScan, _run_command  # noqa: E402

SEED = 7


def _run(cls, ops):
    wl = cls(SEED)
    wl.setup()
    for i in range(ops):
        wl.keep(i, wl.op(i))
    return wl


@pytest.fixture(scope="module")
def jack():
    wl = _run(JackGrid, JackGrid.M)
    n, lam = wl.grids[0]
    return wl.values[0], n, lam, wl.offset


def test_jack_grid_accepts_program_output(jack):
    values, n, lam, offset = jack
    got = checks.check_jack_grid(values, n, lam, offset)
    assert got["coeff"] < 1e-12 and got["leak"] < 1e-12


@pytest.mark.parametrize("where", ["largest", "smallest", (3, 11)])
def test_jack_grid_refuses_one_value_moved(jack, where):
    values, n, lam, offset = jack
    bad = values.copy()
    if where == "largest":
        idx = divmod(int(abs(bad).argmax()), bad.shape[1])
    elif where == "smallest":
        idx = divmod(int(abs(bad).argmin()), bad.shape[1])
    else:
        idx = where
    bad[idx] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checks.check_jack_grid(bad, n, lam, offset)


@pytest.fixture(scope="module")
def residual():
    wl = _run(ResidualScan, 1)
    n, lam, _ = wl.inputs[0]
    payload = json.loads(wl.outputs[0])
    x = payload["residuals"]["samples"][0]["point"]
    stencil = json.loads(_run_command(wl.config(n, lam, checks.stencil_points(x, wl.H))))
    return wl, n, lam, payload, stencil


def test_residual_accepts_program_output(residual):
    wl, n, lam, payload, stencil = residual
    checks.check_elliptic_command(payload, n, lam, wl.GATE)
    assert checks.check_fd_residual(payload, stencil, n, lam, wl.H, wl.GATE) < wl.GATE


def test_residual_refuses_psi_moved(residual):
    wl, n, lam, payload, stencil = residual
    bad = copy.deepcopy(payload)
    bad["residuals"]["samples"][0]["psi"]["re"] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checks.check_fd_residual(bad, stencil, n, lam, wl.H, wl.GATE)


def test_residual_refuses_stencil_value_moved(residual):
    wl, n, lam, payload, stencil = residual
    bad = copy.deepcopy(stencil)
    bad["residuals"]["samples"][2]["psi"]["im"] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checks.check_fd_residual(payload, bad, n, lam, wl.H, wl.GATE)


def test_residual_refuses_energy_value_moved(residual):
    wl, n, lam, payload, _ = residual
    bad = copy.deepcopy(payload)
    bad["energy_value"] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checks.check_elliptic_command(bad, n, lam, wl.GATE)


def test_residual_refuses_one_series_coefficient_changed(residual):
    wl, n, lam, payload, _ = residual
    bad = copy.deepcopy(payload)
    c = Fraction(bad["energy_series"]["coefficients"][2]) + Fraction(1, 7)
    bad["energy_series"]["coefficients"][2] = f"{c.numerator}/{c.denominator}"
    with pytest.raises(CheckError):
        checks.check_elliptic_command(bad, n, lam, wl.GATE)


@pytest.fixture(scope="module")
def exact():
    wl = _run(ExactSeries, 1)
    n, lam = wl.inputs(0)
    implicit, explicit, _ = wl.outputs[0]
    return n, lam, list(implicit), list(explicit)


def test_exact_series_accepts_program_output(exact):
    checks.check_exact_series(*exact)


@pytest.mark.parametrize("route,order", [(0, 1), (1, 2), (0, 0)])
def test_exact_series_refuses_one_coefficient_changed(exact, route, order):
    n, lam, implicit, explicit = exact
    series = [list(implicit), list(explicit)]
    series[route][order] += Fraction(1, 10**9)
    with pytest.raises(CheckError):
        checks.check_exact_series(n, lam, *series)


def test_exact_series_refuses_a_shared_wrong_constant(exact):
    n, lam, implicit, explicit = exact
    implicit, explicit = list(implicit), list(explicit)
    implicit[0] += 1
    explicit[0] += 1
    with pytest.raises(CheckError):
        checks.check_exact_series(n, lam, implicit, explicit)


@pytest.fixture(scope="module")
def fock():
    wl = _run(FockSectors, 1)
    charge, lam = wl.pool[0]
    return json.loads(wl.outputs[0]), charge, lam, wl.LEVEL


def test_fock_accepts_program_output(fock):
    payload, charge, lam, level = fock
    assert checks.check_fock_payload(payload, charge, lam, level)["worst_eigenvalue_dev"] < 1e-12


def test_fock_refuses_one_eigenvalue_shifted(fock):
    payload, charge, lam, level = fock
    bad = copy.deepcopy(payload)
    bad["blocks"][-1]["eigenvalues"][1] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checks.check_fock_payload(bad, charge, lam, level)


def test_fock_refuses_one_failed_payload_check(fock):
    payload, charge, lam, level = fock
    bad = copy.deepcopy(payload)
    bad["checks"][0]["passed"] = False
    with pytest.raises(CheckError):
        checks.check_fock_payload(bad, charge, lam, level)


def test_block_spectrum_matches_the_level_zero_closed_form():
    # level 0: lam^2 c^3 / 3 - (3 lam - 2) c / 12
    lam, c = Fraction(5, 2), 3
    assert checks.block_spectrum(c, lam, 0) == [lam**2 * c**3 / 3 - (3 * lam - 2) * c / 12]
    assert checks.conjugate((3, 1)) == (2, 1, 1)
