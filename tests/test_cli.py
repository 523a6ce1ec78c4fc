"""Command-line contract: payload shapes, exit codes, determinism.

Runs everything in-process through cli.main so the tests exercise the
same code path as the installed console script without subprocess cost.
"""
import json

import pytest

from sutherland.cli import RunConfig, main, run


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    return code, json.loads(out)


def test_spectrum_single_particle(capsys):
    code, data = _run_json(capsys, "spectrum", "--N", "1", "--lambda", "2", "--n", "0")
    assert code == 0
    assert data["pseudo_momenta"] == [1]
    assert data["energy"] == 1
    assert data["coupling"] == 4
    assert data["config"]["subcommand"] == "spectrum"


def test_solve_trig_two_particles(capsys):
    code, data = _run_json(
        capsys, "solve-trig", "--N", "2", "--lambda", "2", "--n", "1,0", "--budget", "4"
    )
    assert code == 0
    assert data["energy"] == 17
    table = {tuple(rec["label"]): rec["value"] for rec in data["coefficients"]}
    assert table[(1, 0)] == 1
    assert table[(2, -1)] == "1/2"


def test_inadmissible_label_exits_3(capsys):
    code, data = _run_json(capsys, "solve-trig", "--lambda", "2", "--n", "0,1")
    assert code == 3
    assert data["error"]["kind"] == "admissibility"


def test_n_length_must_match_N(capsys):
    code, data = _run_json(
        capsys, "solve-trig", "--N", "3", "--lambda", "2", "--n", "1,0"
    )
    assert code == 3
    assert data["error"]["kind"] == "admissibility"


def test_nome_is_exclusive(capsys):
    code, data = _run_json(
        capsys, "solve-elliptic", "--n", "1,0", "--lambda", "2", "--K", "1", "--budget", "4"
    )
    assert code == 1
    assert data["error"]["kind"] == "invalid-input"

    code, data = _run_json(
        capsys,
        "solve-elliptic", "--n", "1,0", "--lambda", "2", "--K", "1", "--budget", "4",
        "--q", "0.1", "--beta", "3.0",
    )
    assert code == 1


def test_beta_converts_to_nome(capsys):
    import math

    beta = 3.2188758248682006  # q = exp(-beta/2) ~ 0.2
    code_q, data_q = _run_json(
        capsys, "solve-elliptic", "--n", "1,0", "--lambda", "2",
        "--K", "2", "--budget", "4", "--q", str(math.exp(-beta / 2)),
    )
    code_b, data_b = _run_json(
        capsys, "solve-elliptic", "--n", "1,0", "--lambda", "2",
        "--K", "2", "--budget", "4", "--beta", str(beta),
    )
    assert code_q == code_b == 0
    assert data_q["energy_value"] == pytest.approx(data_b["energy_value"], rel=1e-15)
    assert data_q["energy_series"] == data_b["energy_series"]


def test_resonance_exits_2(capsys):
    code, data = _run_json(
        capsys,
        "solve-elliptic", "--n", "1,0,0", "--lambda", "1/2",
        "--K", "2", "--budget", "4", "--q", "0.2",
    )
    assert code == 2
    assert data["error"]["kind"] == "resonance"
    assert "resonan" in data["error"]["message"]


def test_truncation_guard_exits_4(capsys):
    # q = 0.8 at K = 1 leaves a tail proxy far above the evaluator gate
    code, data = _run_json(
        capsys,
        "solve-elliptic", "--n", "1,0", "--lambda", "2", "--K", "1",
        "--budget", "4", "--q", "0.8", "--points", "0.9,2.17",
    )
    assert code == 4
    assert data["error"]["kind"] == "convergence"


def test_tail_guard_is_the_same_with_and_without_points(capsys):
    # q = 0.99 at K = 1 leaves a tail proxy of 1.96 against a limit of 0.17;
    # a run without sample points is refused by the same rule
    args = ("solve-elliptic", "--n", "1,0", "--lambda", "2", "--q", "0.99",
            "--K", "1", "--budget", "2")
    for extra in ((), ("--points", "0.9,2.17")):
        code, data = _run_json(capsys, *args, *extra)
        assert code == 4
        assert data["error"]["kind"] == "convergence"
        assert data["error"]["message"].startswith("series tail proxy 1.960e+00")


def test_theta_depth_cap_exits_4(capsys):
    # q = 0.999 needs 17261 theta factors, more than MAX_DEPTH
    code, data = _run_json(capsys, "theta", "--q", "0.999", "--x", "0.9")
    assert code == 4
    assert data["error"]["kind"] == "convergence"


def test_kernel_overflow_exits_4(capsys, recwarn):
    code, data = _run_json(
        capsys, "kernel", "--n", "1,0", "--lambda", "2000", "--q", "0.1",
        "--points", "0.9,2.17",
    )
    assert code == 4
    assert data["error"]["kind"] == "convergence"
    assert not recwarn.list  # the refusal comes without numpy warnings


def test_solve_elliptic_overflow_exits_4(capsys, recwarn):
    # the kernel integrand overflows at lambda 1000; at lambda 200 psi
    # underflows to zero at a near-collision
    for lam, points in (("1000", "0.9,2.17"), ("200", "0.9,0.93")):
        code, data = _run_json(
            capsys, "solve-elliptic", "--n", "1,0", "--lambda", lam, "--q", "0.01",
            "--K", "1", "--budget", "1", "--points", points,
        )
        assert code == 4
        assert data["error"]["kind"] == "convergence"
    assert not recwarn.list  # the refusals come without numpy warnings


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["solve-trig", "--lambda"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-subcommand"])
    assert exc.value.code == 1


def test_non_finite_numbers_are_usage_errors(capsys):
    # NaN coordinates used to pass the collision guard and reach the JSON
    for argv in (
        ["kernel", "--lambda", "2", "--q", "0.1", "--n", "1,0", "--points", "nan,1.0"],
        ["kernel", "--lambda", "2", "--q", "nan", "--n", "1,0", "--points", "0.9,2.17"],
        ["theta", "--q", "0.1", "--x", "0.5,inf"],
        ["solve-elliptic", "--lambda", "2", "--n", "1,0", "--K", "1", "--beta", "inf"],
        ["check-identity", "--lambda", "2", "--q", "0.2", "--tol", "inf"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a finite number" in captured.err


def test_run_config_rejects_non_finite_numbers():
    # the argparse types are plain float; the check lives in the config,
    # so direct callers of run() and the verify replay get it too
    with pytest.raises(ValueError, match="not a finite number"):
        RunConfig(subcommand="kernel", lam=2, q=0.1, n=(1, 0), points=((float("nan"), 1.0),))


def test_coupling_is_required(capsys):
    for argv in (
        ["spectrum", "--n", "1,0"],
        ["solve-trig", "--n", "1,0"],
        ["fock-verify", "--charge", "1", "--level", "2"],
        ["genfun", "--order", "2"],
    ):
        code, data = _run_json(capsys, *argv)
        assert code == 1
        assert "lambda" in data["error"]["message"]


def test_rational_coupling_accepted(capsys):
    code, data = _run_json(capsys, "spectrum", "--lambda", "3/2", "--n", "1,0")
    assert code == 0
    assert data["lambda"] == "3/2"
    assert data["coupling"] == "3/2"  # 2 lam (lam - 1) = 3/2


def test_solve_elliptic_payload(capsys):
    code, data = _run_json(
        capsys,
        "solve-elliptic", "--n", "1,0", "--lambda", "2", "--K", "2",
        "--budget", "4", "--q", "0.2",
    )
    assert code == 0
    assert data["energy_series"] == {"coefficients": [17, 2, "17/2"], "order": 2}
    assert data["energy_value"] == pytest.approx(17.0936)
    assert data["truncation"]["series_variable"] == "q^2"
    labels = [tuple(rec["label"]) for rec in data["coefficients"]]
    assert (1, 0) in labels
    for rec in data["coefficients"]:
        assert rec["series"]["order"] == 2


def test_residual_samples(capsys):
    code, data = _run_json(
        capsys,
        "solve-elliptic", "--n", "1,0", "--lambda", "2", "--K", "3",
        "--budget", "6", "--q", "0.2", "--points", "0.9,2.17;1.4,4.0",
    )
    assert code == 0
    assert data["residuals"]["max"] < 1e-4
    assert len(data["residuals"]["samples"]) == 2


def test_points_run_solves_the_series_once(monkeypatch, capsys):
    import sutherland.cli as cli
    import sutherland.elliptic_solver as elliptic_solver

    calls = []
    original = elliptic_solver.solve_elliptic

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_elliptic", counting)
    monkeypatch.setattr(elliptic_solver, "solve_elliptic", counting)
    code, data = _run_json(
        capsys,
        "solve-elliptic", "--n", "1,0", "--lambda", "2", "--K", "2",
        "--budget", "4", "--q", "0.2", "--points", "0.9,2.17",
    )
    assert code == 0
    assert len(data["residuals"]["samples"]) == 1
    assert len(calls) == 1


def test_check_identity_seeded(capsys):
    code, data = _run_json(
        capsys,
        "check-identity", "--N", "2", "--lambda", "2", "--q", "0.2",
        "--trials", "10", "--seed", "3",
    )
    assert code == 0
    assert data["passed"] is True
    assert data["max_residual"] < 1e-7


def test_check_identity_needs_a_trial(capsys):
    for trials in ("0", "-2"):
        code, data = _run_json(
            capsys, "check-identity", "--lambda", "2", "--q", "0.2", "--trials", trials
        )
        assert code == 1
        assert data["error"]["kind"] == "invalid-input"
        assert "--trials" in data["error"]["message"]


def test_byte_determinism(tmp_path):
    args = [
        "check-identity", "--N", "2", "--lambda", "2", "--q", "0.2",
        "--trials", "10", "--seed", "7",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_output_is_atomic_and_leaves_no_droppings(tmp_path):
    out = tmp_path / "res.json"
    code = main(["spectrum", "--lambda", "2", "--n", "1,0", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["energy"] == 17
    assert [p.name for p in tmp_path.iterdir()] == ["res.json"]


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main([
        "solve-elliptic", "--n", "1,0", "--lambda", "2", "--K", "2",
        "--budget", "4", "--q", "0.2", "--output", str(out),
    ]) == 0
    code, report = _run_json(capsys, "verify", str(out))
    assert code == 0
    assert report["match"] is True
    assert report["subcommand"] == "solve-elliptic"

    # tampering with the stored energy must be caught
    data = json.loads(out.read_text())
    data["energy_value"] = 99.0
    out.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    code, report = _run_json(capsys, "verify", str(out))
    assert code == 1
    assert report["match"] is False


def test_verify_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["verify", str(bad)]) == 1
    capsys.readouterr()


def test_verify_rejects_non_finite_config(tmp_path, capsys):
    # a NaN point once ran to a NaN kernel value, so a file holding both
    # replayed to an exact match
    nan = float("nan")
    config = {
        "format": "json", "lambda": 2, "n": [1, 0], "points": [[nan, 1.0]],
        "q": 0.1, "subcommand": "kernel",
    }
    stored = {
        "N": 2, "config": config, "lambda": 2, "n": [1, 0], "q": 0.1,
        "rows": [{"point": [nan, 1.0], "value": {"im": nan, "re": nan}}],
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(stored, sort_keys=True, indent=2) + "\n")
    assert main(["verify", str(path)]) == 1
    assert "not a finite number" in capsys.readouterr().err


def test_csv_solve_trig(capsys):
    code, out = _run(
        capsys, "solve-trig", "--lambda", "2", "--n", "1,0", "--budget", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m_1,m_2,value"
    assert "1,0,1" in lines
    assert any(row.startswith("2,-1,") for row in lines)


def test_csv_theta(capsys):
    code, out = _run(capsys, "theta", "--q", "0.1", "--x", "0.9", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r,theta,log_derivative_1,log_derivative_2")
    assert len(lines) == 2


def test_csv_unsupported_for_scalar_payloads(capsys):
    code, data = _run_json(capsys, "spectrum", "--lambda", "2", "--n", "1,0",
                           "--format", "csv")
    assert code == 1
    assert data["error"]["kind"] == "invalid-input"


def test_theta_consistency(capsys):
    code, data = _run_json(capsys, "theta", "--q", "0.1", "--x", "0.9,2.17")
    assert code == 0
    rows = data["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["potential_elliptic"] == pytest.approx(-row["log_derivative_2"])


def test_kernel_rows(capsys):
    code, data = _run_json(
        capsys, "kernel", "--n", "1,0", "--lambda", "2", "--q", "0.1",
        "--points", "0.9,2.17;1.4,4.0",
    )
    assert code == 0
    assert len(data["rows"]) == 2
    for row in data["rows"]:
        assert set(row["value"]) == {"re", "im"}


def test_fock_verify_all_green(capsys):
    code, data = _run_json(
        capsys, "fock-verify", "--charge", "2", "--lambda", "2", "--level", "2",
        "--conjectures",
    )
    assert code == 0
    assert data["passed"] is True
    assert all(check["passed"] for check in data["checks"])
    by_level = {b["level"]: b["eigenvalues"] for b in data["blocks"]}
    assert by_level[0] == [pytest.approx(10.0)]
    assert by_level[1] == [pytest.approx(17.0)]
    assert by_level[2] == [pytest.approx(20.0), pytest.approx(26.0)]
    assert data["commutator_norms"]["h_h3"] == 0.0


def test_genfun_frozen_weights(capsys):
    code, data = _run_json(capsys, "genfun", "--lambda", "3", "--order", "4")
    assert code == 0
    assert data["v"][0] == [1, 0, "-1/12", 0, "-1/72"]
    assert data["w"][0] == [1, 0, 0, 0, 0]
    assert data["w"][1][1] == 1  # (lam - 1)/2 at lam = 3


def test_genfun_negative_order_is_invalid_input(capsys):
    code, data = _run_json(capsys, "genfun", "--lambda", "2", "--order", "-1")
    assert code == 1
    assert data["error"]["kind"] == "invalid-input"


def test_run_config_round_trip():
    config = RunConfig(
        subcommand="solve-elliptic",
        lam=__import__("fractions").Fraction(3, 2),
        n=(2, 1),
        q=0.3,
        K=2,
        budget=4,
        points=((0.9, 2.17),),
    )
    back = RunConfig.from_payload(json.loads(json.dumps(
        __import__("sutherland.cli", fromlist=["_jsonable"])._jsonable(config.payload())
    )))
    assert back.subcommand == config.subcommand
    assert back.lam == config.lam
    assert back.n == config.n
    assert back.points == config.points


def test_module_entry_point():
    import os
    import subprocess
    import sys

    import sutherland

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(sutherland.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "sutherland", "spectrum", "--N", "1", "--lambda", "2", "--n", "0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["energy"] == 1
