"""Command-line surface: parsing, dispatch, canonical serialization.

Output is canonical JSON (keys sorted, exact rationals as integers or
"p/q" strings, power series as {"coefficients": [...], "order": K}) or
CSV with a header row for tabular results.  Identical configuration,
including the seed, yields byte-identical output; files are written
atomically.  Exit codes: 0 success, 2 resonance, 3 inadmissible input, 4
convergence failure, 1 anything else.

Every JSON result embeds its own configuration, and `verify FILE`
re-runs that configuration and checks the stored result byte for byte.
"""
from __future__ import annotations

import argparse
import cmath
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .correlation import QuadratureSpec, apply_hamiltonian, cP_kernel, functional_identity_residual
from .elliptic_solver import eigenfunction_evaluator, solve_elliptic, tail_proxy
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    ResonanceError,
    SutherlandError,
)
from .fock import (
    build_sector,
    commutator,
    frobenius_norm,
    genfun_coeffs,
    genfun_operator,
    is_zero_operator,
    op_C,
    op_H,
    op_H0,
    op_H3,
    op_W3,
)
from .qseries import QSeries
from .spectrum import bare_energy, check_admissible, coupling, pseudo_momenta
from .theta import ThetaContext, log_theta_derivs, potential_elliptic, potential_trig, theta_elliptic
from .trig_solver import alpha_recursive, eigenfunction_trig

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_RESONANCE = 2
_EXIT_ADMISSIBILITY = 3
_EXIT_CONVERGENCE = 4


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------

_PAYLOAD_NAMES = {"lam": "lambda", "fmt": "format"}


@dataclass
class RunConfig:
    """Normalized subcommand invocation; embedded in every JSON result."""

    subcommand: str
    lam: Fraction | None = None
    N: int | None = None
    n: tuple | None = None
    q: float | None = None
    beta: float | None = None
    K: int | None = None
    budget: int | None = None
    quad_points: int | None = None
    points: tuple | None = None
    x: tuple | None = None
    trials: int | None = None
    tol: float | None = None
    seed: int | None = None
    charge: int | None = None
    level: int | None = None
    conjectures: bool = False
    order: int | None = None
    fmt: str = "json"
    output: str | None = None
    file: str | None = None

    def __post_init__(self):
        # NaN slips past every comparison-based guard downstream
        numbers = {
            "q": [self.q],
            "beta": [self.beta],
            "tol": [self.tol],
            "x": self.x or (),
            "points": [c for pt in self.points or () for c in pt],
        }
        for name, values in numbers.items():
            for value in values:
                if value is not None and not math.isfinite(value):
                    raise ValueError(f"{name}: not a finite number: {value!r}")

    def payload(self) -> dict:
        out = {}
        for f in fields(self):
            key, val = f.name, getattr(self, f.name)
            if key in ("output", "file") or val is None or (key == "conjectures" and not val):
                continue
            out[_PAYLOAD_NAMES.get(key, key)] = val
        return out

    @classmethod
    def from_payload(cls, data: dict) -> "RunConfig":
        kwargs = {}
        names = {v: k for k, v in _PAYLOAD_NAMES.items()}
        for key, val in data.items():
            attr = names.get(key, key)
            if attr == "lam":
                val = _parse_rational(str(val))
            elif attr == "n":
                val = tuple(int(v) for v in val)
            elif attr in ("points",):
                val = tuple(tuple(float(c) for c in pt) for pt in val)
            elif attr == "x":
                val = tuple(float(v) for v in val)
            kwargs[attr] = val
        return cls(**kwargs)


def _parse_rational(text: str) -> Fraction:
    # Fraction parses "3", "1/2" and decimal strings like "0.3" exactly
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational coupling: {text!r}") from exc


def _parse_n(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"momentum list must be comma-separated integers: {text!r}") from exc


def _parse_points(text: str) -> tuple:
    pts = []
    for chunk in text.split(";"):
        if not chunk:
            continue
        pts.append(tuple(float(c) for c in chunk.split(",")))
    return tuple(pts)


def _parse_floats(text: str) -> tuple:
    return tuple(float(c) for c in text.split(","))


def _nome(config: RunConfig) -> float:
    """Exactly one of q, beta; beta converts through q = exp(-beta/2)."""
    if (config.q is None) == (config.beta is None):
        raise ValueError("give exactly one of --q and --beta")
    if config.q is not None:
        if not 0.0 <= config.q < 1.0:
            raise ValueError("nome must satisfy 0 <= q < 1")
        return float(config.q)
    if config.beta <= 0:
        raise ValueError("inverse temperature must be positive")
    return math.exp(-float(config.beta) / 2.0)


def _resolved_n(config: RunConfig) -> tuple:
    if config.n is None:
        raise ValueError("this subcommand requires --n")
    n = check_admissible(config.n)
    if config.N is not None and config.N != len(n):
        raise AdmissibilityError(
            f"--N {config.N} disagrees with the {len(n)} entries of --n"
        )
    return n


def _required_lam(config: RunConfig):
    if config.lam is None:
        raise ValueError("this subcommand requires --lambda")
    return config.lam


def _quad(config: RunConfig) -> QuadratureSpec:
    if config.quad_points is None:
        return QuadratureSpec()
    return QuadratureSpec(points_per_circle=config.quad_points)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, Fraction):
        if obj.denominator == 1:
            return int(obj)
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, QSeries):
        return {"coefficients": [_jsonable(c) for c in obj.coeffs], "order": obj.order}
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float, str)):
        return obj
    raise TypeError(f"no canonical JSON form for {type(obj).__name__}")


def _dumps(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sutherland-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_csv_cell(c) for c in row) + "\n")
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns (payload, csv or None).
# ---------------------------------------------------------------------------


def _cmd_theta(config: RunConfig):
    qn = _nome(config)
    ctx = ThetaContext.from_q(qn)
    xs = config.x or ()
    if not xs:
        raise ValueError("theta requires --x with at least one point")
    rows = []
    for r in xs:
        rows.append(
            {
                "log_derivative_1": float(log_theta_derivs(r, ctx, 1)),
                "log_derivative_2": float(log_theta_derivs(r, ctx, 2)),
                "potential_elliptic": float(potential_elliptic(r, ctx)),
                "potential_trig": float(potential_trig(r)),
                "r": r,
                "theta": float(theta_elliptic(r, ctx)),
            }
        )
    payload = {"m_max": ctx.m_max, "q": ctx.q, "rows": rows}
    header = ["r", "theta", "log_derivative_1", "log_derivative_2",
              "potential_elliptic", "potential_trig"]
    csv = _csv_text(header, [[row[h] for h in header] for row in rows])
    return payload, csv


def _cmd_spectrum(config: RunConfig):
    n = _resolved_n(config)
    lam = _required_lam(config)
    payload = {
        "N": len(n),
        "coupling": coupling(lam),
        "energy": bare_energy(n, lam),
        "lambda": lam,
        "n": list(n),
        "pseudo_momenta": list(pseudo_momenta(n, lam)),
    }
    return payload, None


def _cmd_solve_trig(config: RunConfig):
    n = _resolved_n(config)
    lam = _required_lam(config)
    budget = config.budget if config.budget is not None else 4
    table = alpha_recursive(n, lam, budget)
    records = [
        {"label": list(m), "value": value}
        for m, value in sorted(table.entries.items())
    ]
    payload = {
        "N": len(n),
        "budget": budget,
        "coefficients": records,
        "energy": bare_energy(n, lam),
        "lambda": lam,
        "n": list(n),
    }
    if config.points:
        quad = _quad(config)
        samples = []
        for pt in config.points:
            if len(pt) != len(n):
                raise ValueError("each sample point needs one coordinate per particle")
            samples.append(
                {"point": list(pt), "psi": eigenfunction_trig(list(pt), n, lam, budget, quad)}
            )
        payload["samples"] = samples
    header = [f"m_{j + 1}" for j in range(len(n))] + ["value"]
    csv = _csv_text(header, [list(r["label"]) + [r["value"]] for r in records])
    return payload, csv


def _cmd_solve_elliptic(config: RunConfig):
    n = _resolved_n(config)
    lam = _required_lam(config)
    K = config.K if config.K is not None else 3
    budget = config.budget if config.budget is not None else 4
    qn = _nome(config)
    if config.points:
        try:
            quad = _quad(config)
        except ValueError:
            # a failing solve is reported ahead of a bad --quad-points
            solve_elliptic(n, lam, K, budget)
            raise
        psi, pair = eigenfunction_evaluator(n, lam, qn, K, budget, quad)
    else:
        pair = solve_elliptic(n, lam, K, budget)
    tail = tail_proxy(pair, qn)
    xval = qn * qn
    records = [
        {"label": list(m), "series": series}
        for m, series in sorted(pair.coeffs.items())
    ]
    payload = {
        "K": K,
        "N": len(n),
        "budget": budget,
        "coefficients": records,
        "energy_series": pair.energy,
        "energy_value": float(pair.energy.evaluate(xval)),
        "lambda": lam,
        "n": list(n),
        "q": qn,
        "truncation": {
            "series_variable": "q^2",
            "tail_proxy": tail,
        },
    }
    if config.points:
        energy = float(pair.energy.evaluate(xval))
        ctx = ThetaContext.from_q(qn)
        lam_num = int(lam) if lam == int(lam) else float(lam)
        values, samples = [], []
        for pt in config.points:
            if len(pt) != len(n):
                raise ValueError("each sample point needs one coordinate per particle")
            value = psi(list(pt))
            if value == 0 or not cmath.isfinite(value):
                raise ConvergenceError(f"psi at {list(pt)} leaves double precision: {value}")
            ham = apply_hamiltonian(psi, list(pt), lam_num, ctx)
            residual = abs(ham - energy * value) / abs(value)
            values.append(residual)
            samples.append({"point": list(pt), "psi": value, "residual": residual})
        payload["residuals"] = {"max": max(values), "samples": samples}
    header = [f"m_{j + 1}" for j in range(len(n))] + [f"c_{k}" for k in range(K + 1)]
    csv = _csv_text(
        header,
        [list(r["label"]) + list(r["series"].coeffs) for r in records],
    )
    return payload, csv


def _cmd_check_identity(config: RunConfig):
    N = config.N if config.N is not None else 2
    lam = _required_lam(config)
    trials = config.trials if config.trials is not None else 100
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    tol = config.tol if config.tol is not None else 1e-7
    seed = config.seed if config.seed is not None else 0
    qn = _nome(config)
    ctx = ThetaContext.from_q(qn)
    rng = np.random.default_rng(seed)

    def draw_pair():
        while True:
            pts = rng.uniform(0.3, 5.9, size=2 * N)
            ok = True
            for i in range(2 * N):
                for j in range(i + 1, 2 * N):
                    if abs(math.sin(0.5 * (pts[i] - pts[j]))) < 0.15:
                        ok = False
            if ok:
                return list(pts[:N]), list(pts[N:])

    pairs = [draw_pair() for _ in range(trials)]
    residuals = [functional_identity_residual(x, y, lam, ctx) for x, y in pairs]
    payload = {
        "N": N,
        "lambda": lam,
        "max_residual": max(residuals),
        "mean_residual": sum(residuals) / len(residuals),
        "passed": max(residuals) < tol,
        "q": qn,
        "seed": seed,
        "tol": tol,
        "trials": trials,
    }
    return payload, None


def _cmd_kernel(config: RunConfig):
    n = _resolved_n(config)
    lam = _required_lam(config)
    qn = _nome(config)
    ctx = ThetaContext.from_q(qn)
    quad = _quad(config)
    if not config.points:
        raise ValueError("kernel requires --points")
    rows = []
    for pt in config.points:
        if len(pt) != len(n):
            raise ValueError("each point needs one coordinate per particle")
        rows.append({"point": list(pt), "value": cP_kernel(list(pt), n, lam, ctx, quad)})
    payload = {"N": len(n), "lambda": lam, "n": list(n), "q": qn, "rows": rows}
    header = [f"x_{j + 1}" for j in range(len(n))] + ["re", "im"]
    csv = _csv_text(
        header,
        [list(r["point"]) + [r["value"].real, r["value"].imag] for r in rows],
    )
    return payload, csv


def _cmd_fock_verify(config: RunConfig):
    charge = config.charge if config.charge is not None else 0
    level = config.level if config.level is not None else 4
    lam = _required_lam(config)
    sector = build_sector(charge, level)
    ops = {
        "h0": op_H0(sector, lam),
        "c": op_C(sector, lam),
        "w3": op_W3(sector, lam),
        "h": op_H(sector, lam),
        "h3": op_H3(sector, lam),
    }
    checks = []
    checks.append(
        {
            "name": "level_preserving",
            "passed": all(op.is_level_preserving() for op in ops.values()),
        }
    )
    for name in ("w3", "h", "h3"):
        checks.append(
            {"name": f"hermitian_{name}", "passed": ops[name].is_gram_symmetric()}
        )
    checks.append(
        {
            "name": "h0_commutes_h",
            "passed": is_zero_operator(commutator(ops["h0"], ops["h"])),
        }
    )
    if charge == 0:
        vac = sector.index(())
        for name in ("h", "h3"):
            col = [ops[name].matrix[i][vac] for i in range(sector.dim)]
            checks.append(
                {
                    "name": f"{name}_annihilates_vacuum",
                    "passed": all(entry == 0 for entry in col),
                }
            )
    references = {0: None, 1: ops["h0"], 2: ops["h"], 3: ops["h3"]}
    for order in range(4):
        built = genfun_operator(order, sector, lam)
        if order == 0:
            good = all(
                built.matrix[i][j] == (charge if i == j else 0)
                for i in range(sector.dim)
                for j in range(sector.dim)
            )
        else:
            good = built.matrix == references[order].matrix
        checks.append({"name": f"genfun_matches_order_{order}", "passed": good})
    checks.sort(key=lambda c: c["name"])

    blocks = []
    matrix = np.array([[float(x) for x in row] for row in ops["h"].matrix])
    for lv in range(level + 1):
        idx = [i for i in range(sector.dim) if sector.level(i) == lv]
        scale = np.diag([math.sqrt(float(sector.inner_products[i])) for i in idx])
        block = scale @ matrix[np.ix_(idx, idx)] @ np.linalg.inv(scale)
        eigs = sorted(np.linalg.eigvalsh((block + block.T) / 2.0))
        blocks.append({"eigenvalues": [float(e) for e in eigs], "level": lv})
    payload = {
        "charge": charge,
        "checks": checks,
        "blocks": blocks,
        "lambda": lam,
        "level": level,
        "passed": all(c["passed"] for c in checks),
    }
    if config.conjectures:
        payload["commutator_norms"] = {
            "h_h3": frobenius_norm(commutator(ops["h"], ops["h3"]))
        }
    return payload, None


def _cmd_genfun(config: RunConfig):
    lam = _required_lam(config)
    order = config.order if config.order is not None else 6
    w, v = genfun_coeffs(lam, order)
    payload = {
        "lambda": lam,
        "order": order,
        "v": [list(poly) for poly in v],
        "w": [list(poly) for poly in w],
    }
    return payload, None


_COMMANDS = {
    "theta": _cmd_theta,
    "spectrum": _cmd_spectrum,
    "solve-trig": _cmd_solve_trig,
    "solve-elliptic": _cmd_solve_elliptic,
    "check-identity": _cmd_check_identity,
    "kernel": _cmd_kernel,
    "fock-verify": _cmd_fock_verify,
    "genfun": _cmd_genfun,
}


def _dispatch(config: RunConfig):
    handler = _COMMANDS[config.subcommand]
    return handler(config)


def _cmd_verify(config: RunConfig) -> int:
    try:
        with open(config.file, "r") as handle:
            stored = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"verify: cannot read {config.file}: {exc}\n")
        return _EXIT_ERROR
    if not isinstance(stored, dict) or "config" not in stored:
        sys.stderr.write("verify: file has no embedded config\n")
        return _EXIT_ERROR
    try:
        replay = RunConfig.from_payload(stored["config"])
    except (TypeError, ValueError) as exc:
        sys.stderr.write(f"verify: malformed embedded config: {exc}\n")
        return _EXIT_ERROR
    _code, payload, _csv = _execute(replay)
    match = _dumps(payload) == _dumps(stored)
    report = {
        "file": config.file,
        "match": match,
        "subcommand": replay.subcommand,
    }
    sys.stdout.write(_dumps(report))
    return _EXIT_OK if match else _EXIT_ERROR


def _execute(config: RunConfig):
    """Dispatch and wrap errors into the canonical payload + exit code."""
    base = {"config": config.payload()}
    try:
        payload, csv = _dispatch(config)
    except AdmissibilityError as exc:
        base["error"] = {"kind": "admissibility", "message": str(exc)}
        return _EXIT_ADMISSIBILITY, base, None
    except ResonanceError as exc:
        base["error"] = {"kind": "resonance", "message": str(exc)}
        return _EXIT_RESONANCE, base, None
    except ConvergenceError as exc:
        base["error"] = {"kind": "convergence", "message": str(exc)}
        return _EXIT_CONVERGENCE, base, None
    except (SutherlandError, ValueError, TypeError) as exc:
        base["error"] = {"kind": "invalid-input", "message": str(exc)}
        return _EXIT_ERROR, base, None
    payload = {**base, **payload}
    return _EXIT_OK, payload, csv


def run(config: RunConfig) -> int:
    """Run one subcommand and write its serialized result."""
    if config.subcommand == "verify":
        return _cmd_verify(config)
    code, payload, csv = _execute(config)
    if config.fmt == "csv":
        if csv is None:
            payload = {
                "config": config.payload(),
                "error": {
                    "kind": "invalid-input",
                    "message": f"{config.subcommand} has no tabular form; use json",
                },
            }
            _write_atomic(config.output, _dumps(payload))
            return _EXIT_ERROR
        if code == _EXIT_OK:
            _write_atomic(config.output, csv)
        else:
            _write_atomic(config.output, _dumps(payload))
        return code
    _write_atomic(config.output, _dumps(payload))
    return code


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for resonance; usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_EXIT_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sutherland", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, nome=False, solver=False):
        p.add_argument("--lambda", dest="lam", type=_parse_rational, help="coupling, rational")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="write result to this path (atomic)")
        if nome:
            p.add_argument("--q", type=float, help="elliptic nome")
            p.add_argument("--beta", type=float, help="inverse temperature, q = exp(-beta/2)")
        if solver:
            p.add_argument("--N", type=int, help="particle count (checked against --n)")
            p.add_argument("--n", type=_parse_n, help="momentum label, comma list")

    p = sub.add_parser("theta", help="theta function and potential values")
    common(p, nome=True)
    p.add_argument("--x", type=_parse_floats, help="evaluation points, comma list")

    p = sub.add_parser("spectrum", help="pseudo-momenta and bare energy")
    common(p, solver=True)

    p = sub.add_parser("solve-trig", help="trigonometric eigenpair")
    common(p, solver=True)
    p.add_argument("--budget", type=int, help="coefficient raise budget")
    p.add_argument("--points", type=_parse_points, help="sample points x1,..,xN;y1,..,yN")
    p.add_argument("--quad-points", dest="quad_points", type=int)

    p = sub.add_parser("solve-elliptic", help="elliptic eigenpair series")
    common(p, nome=True, solver=True)
    p.add_argument("--K", type=int, help="series order in q^2")
    p.add_argument("--budget", type=int)
    p.add_argument("--points", type=_parse_points)
    p.add_argument("--quad-points", dest="quad_points", type=int)

    p = sub.add_parser("check-identity", help="two-sided functional identity residual")
    common(p, nome=True)
    p.add_argument("--N", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("kernel", help="correlation kernel values")
    common(p, nome=True, solver=True)
    p.add_argument("--points", type=_parse_points)
    p.add_argument("--quad-points", dest="quad_points", type=int)

    p = sub.add_parser("fock-verify", help="sector invariant suite")
    common(p)
    p.add_argument("--charge", type=int)
    p.add_argument("--level", type=int)
    p.add_argument("--conjectures", action="store_true")

    p = sub.add_parser("genfun", help="shift-functional weight series")
    common(p)
    p.add_argument("--order", type=int, help="a-degree, at most 8")

    p = sub.add_parser("verify", help="re-run an emitted JSON result and compare")
    p.add_argument("file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    kwargs = {}
    for f in fields(RunConfig):
        if hasattr(ns, f.name):
            kwargs[f.name] = getattr(ns, f.name)
    try:
        config = RunConfig(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
