"""The four workloads: inputs from the seed, set-up, one operation, checks.

Every workload calls only the package's public entry points: library
functions through their modules, or `sutherland.run(RunConfig(...))`
for a CLI subcommand.  A workload object is built from the seed (input
generation), `setup()` does the untimed preparation and one warm-up
operation, `op(i)` is the timed operation, `keep(i, out)` stores its
output outside the timed region, and `check()` runs the reference checks
of checks.py on everything kept.  `trace_targets()` names the layer
functions a traced operation wraps, and `layer_metrics()` reduces the
spans to the per-layer metrics this workload is the home of.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
from fractions import Fraction

import numpy as np

import checks
from tracing import median_ms, median_us

import sutherland
from sutherland import cli, correlation, elliptic_solver, fock, theta, trig_solver


class OpFailed(Exception):
    """A CLI operation returned a non-zero exit code."""


def _run_command(config) -> str:
    """sutherland.run with its canonical output captured in memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(config)
    if code != 0:
        raise OpFailed(f"{config.subcommand} exited {code}: {buf.getvalue()[:300]}")
    return buf.getvalue()


def _separated_point(rng: random.Random, N: int, gap: float = 0.15):
    """Coordinates in [0.3, 5.9] with |sin((x_j - x_k)/2)| >= gap, rounded to 1e-6."""
    while True:
        x = tuple(round(rng.uniform(0.3, 5.9), 6) for _ in range(N))
        if all(
            abs(math.sin(0.5 * (x[j] - x[k]))) >= gap
            for j in range(N)
            for k in range(j + 1, N)
        ):
            return x


# ---------------------------------------------------------------------------


class JackGrid:
    """q=0 eigenfunctions on a torus grid, one grid row per operation.

    A row is M points, one kernel_batch call each.  Single points (about
    9 ms) made a tail percentile that followed the host's millisecond
    stalls rather than the program; see README.md.
    """

    name = "jack-grid"
    LABELS = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0)]
    COUPLINGS = (Fraction(2), Fraction(3))
    BUDGET = 6  # seven kernel labels per table
    M = 16  # torus grid points per axis: one label grid is M operations
    QUAD_POINTS = 256
    round_size = M
    min_ops = 100
    tail_pct = 90  # at least 10 operations beyond it at the minimum count

    def __init__(self, seed: int):
        rng = random.Random(seed)
        grids = [(n, lam) for lam in self.COUPLINGS for n in self.LABELS]
        rng.shuffle(grids)
        self.grids = grids
        self.offset = rng.random()
        self.x1, self.x2 = checks.jack_grid_nodes(self.M, self.offset)
        self.values = {}

    def setup(self):
        self.ctx = theta.ThetaContext.from_q(0.0)
        self.quad = correlation.QuadratureSpec(points_per_circle=self.QUAD_POINTS)
        self.tables = {}
        for n, lam in self.grids:
            table = trig_solver.alpha_recursive(n, lam, self.BUDGET)
            self.tables[(n, lam)] = (table.support(), table.entries)
        self._evaluate(self.grids[0], (0.1, 2.9))

    def _evaluate(self, grid, x):
        labels, entries = self.tables[grid]
        kern = correlation.kernel_batch(list(x), labels, grid[1], self.ctx, self.quad)
        return sum(complex(entries[m]) * kern[m] for m in labels)

    def _grid(self, i):
        return self.grids[(i // self.M) % len(self.grids)]

    def op(self, i):
        grid, x1 = self._grid(i), self.x1[i % self.M]
        return [self._evaluate(grid, (x1, x2)) for x2 in self.x2]

    def keep(self, i, out):
        g, row = divmod(i, self.M)
        self.values.setdefault(g, np.full((self.M, self.M), np.nan, dtype=complex))[row] = out

    def probe(self, i):
        """Traced runs only: the same grid build with one label extracted."""
        n, lam = self._grid(i)
        correlation.kernel_batch([self.x1[i % self.M], self.x2[0]], [n], lam, self.ctx, self.quad)

    def check(self, attempted):
        worst = {"coeff": 0.0, "leak": 0.0, "point": 0.0}
        complete = attempted // self.M
        for g in range(complete):
            n, lam = self.grids[g % len(self.grids)]
            got = checks.check_jack_grid(self.values[g], n, lam, self.offset)
            worst = {k: max(worst[k], float(got[k])) for k in worst}
        return {"grids_checked": complete, **worst}

    def trace_targets(self):
        return [
            (correlation, "kernel_batch", "correlation.kernel_batch"),
            (trig_solver, "alpha_recursive", "trig_solver.alpha_recursive"),
        ]

    def layer_metrics(self, tr):
        labels = len(self.tables[self.grids[0]][0])
        full = median_ms(tr.durations("correlation.kernel_batch", parent="op"))
        single = median_ms(tr.durations("correlation.kernel_batch", parent="probe"))
        return {
            "correlation.kernel_batch_ms": (full, "ms"),
            "correlation.grid_build_ms": (single, "ms"),
            "correlation.label_extract_ms": ((full - single) / (labels - 1), "ms"),
            "correlation.labels_per_grid": (labels, "count"),
            "correlation.grid_mb": (self.QUAD_POINTS**2 * 16 / 1e6, "MB"),
            "trig_solver.alpha_recursive_ms": (
                median_ms(tr.durations("trig_solver.alpha_recursive", setup=True)), "ms"),
        }


# ---------------------------------------------------------------------------


class ResidualScan:
    """`solve-elliptic ... --points` in-process, one command per operation."""

    name = "residual-scan"
    LABELS = [(0, 0), (1, 0), (2, 0)]
    COUPLINGS = (Fraction(1, 2), Fraction(3, 2))
    Q, K, BUDGET, POINTS = 0.2, 3, 4, 4
    GATE = 1e-3
    H = 1e-3  # central-difference step of the reference check
    round_size = len(LABELS) * len(COUPLINGS)
    min_ops = 100
    tail_pct = 90  # at least 10 operations beyond it at the minimum count
    ROUNDS = 200  # inputs generated up front; a longer run cycles through them

    def __init__(self, seed: int):
        rng = random.Random(seed)
        pool = [(n, lam) for lam in self.COUPLINGS for n in self.LABELS]
        self.inputs = []
        for _ in range(self.ROUNDS):
            rng.shuffle(pool)
            for n, lam in pool:
                pts = tuple(_separated_point(rng, 2) for _ in range(self.POINTS))
                self.inputs.append((n, lam, pts))
        self.outputs = {}

    def config(self, n, lam, pts):
        return sutherland.RunConfig(
            subcommand="solve-elliptic", n=n, lam=lam, q=self.Q, K=self.K,
            budget=self.BUDGET, points=pts,
        )

    def setup(self):
        n, lam, _ = self.inputs[0]
        _run_command(self.config(n, lam, ((0.7, 3.1),)))

    def op(self, i):
        return _run_command(self.config(*self.inputs[i % len(self.inputs)]))

    def keep(self, i, out):
        self.outputs[i] = out

    probe = None

    def check(self, attempted):
        worst_reported = 0.0
        worst_fd = 0.0
        for i in range(attempted):
            n, lam, _ = self.inputs[i % len(self.inputs)]
            payload = json.loads(self.outputs[i])
            got = checks.check_elliptic_command(payload, n, lam, self.GATE)
            worst_reported = max(worst_reported, got["reported_residual"])
            if i < self.round_size:
                # the first round: psi at the stencil around its first point
                x = payload["residuals"]["samples"][0]["point"]
                stencil = json.loads(
                    _run_command(self.config(n, lam, checks.stencil_points(x, self.H)))
                )
                res = checks.check_fd_residual(payload, stencil, n, lam, self.H, self.GATE)
                worst_fd = max(worst_fd, res)
        return {"reported_residual": worst_reported, "fd_residual": worst_fd,
                "fd_points": min(attempted, self.round_size)}

    def trace_targets(self):
        return [
            (cli, "run", "cli.run"),
            (cli, "solve_elliptic", "elliptic_solver.solve_elliptic"),
            (elliptic_solver, "solve_elliptic", "elliptic_solver.solve_elliptic"),
            (cli, "eigenfunction_evaluator", "elliptic_solver.eigenfunction_evaluator"),
            (cli, "apply_hamiltonian", "correlation.apply_hamiltonian"),
            (correlation.SeriesEvaluator, "__call__", "correlation.series_value"),
            (correlation.SeriesEvaluator, "derivatives", "correlation.series_derivatives"),
            (correlation, "potential_elliptic", "theta.potential_elliptic"),
            (correlation, "log_theta_derivs", "theta.log_theta_derivs"),
        ]

    def layer_metrics(self, tr):
        # labels whose coefficient series is nonzero at q^2: the sum the
        # series evaluator carries at every point
        coefficients = []
        for out in self.outputs.values():
            records = json.loads(out)["coefficients"]
            coefficients.append(sum(
                1 for rec in records
                if checks.energy_value(
                    [checks.parse_rational(c) for c in rec["series"]["coefficients"]], self.Q
                ) != 0
            ))
        return {
            "correlation.series_value_ms": (median_ms(tr.durations("correlation.series_value")), "ms"),
            "correlation.apply_hamiltonian_ms": (median_ms(tr.durations("correlation.apply_hamiltonian")), "ms"),
            "theta.potential_elliptic_us": (median_us(tr.durations("theta.potential_elliptic")), "us"),
            "theta.log_theta_derivs_us": (median_us(tr.durations("theta.log_theta_derivs")), "us"),
            "correlation.coefficients_per_point": (statistics.median(coefficients), "count"),
            "theta.m_max": (theta.ThetaContext.from_q(self.Q).m_max, "count"),
            "elliptic_solver.eigenfunction_evaluator_ms": (
                median_ms(tr.durations("elliptic_solver.eigenfunction_evaluator")), "ms"),
            "elliptic_solver.solves_per_command": (
                statistics.median(tr.per_op_counts("elliptic_solver.solve_elliptic")), "count"),
            "cli.run_overhead_ms": (median_ms(tr.self_times("cli.run")), "ms"),
        }


# ---------------------------------------------------------------------------


class ExactSeries:
    """Joint solve and loop sum of one (n, lam) at N=3, K=2, per operation."""

    name = "exact-series"
    # labels without a degenerate partner at any of the couplings, so both
    # routes succeed; a label shifted by s (1, 1, 1) has the same gaps
    LABELS = [(2, 1, 0), (3, 1, 0), (4, 1, 0), (4, 2, 0), (5, 2, 0)]
    COUPLINGS = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 2))
    K, BUDGET = 2, 2
    round_size = 1
    min_ops = 40
    tail_pct = 75

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.pool = [(n, lam) for lam in self.COUPLINGS for n in self.LABELS]
        rng.shuffle(self.pool)
        self.shift = rng.randrange(10)
        self.outputs = {}

    def inputs(self, i):
        """Operation i: a pool entry shifted so that no (n, lam, K) repeats."""
        n, lam = self.pool[i % len(self.pool)]
        s = self.shift + i // len(self.pool)
        return tuple(v + s for v in n), lam

    def setup(self):
        # the one loop enumeration for (N, K) = (3, 2) happens here, on a
        # label the timed operations never use (shift -1)
        n, lam = self.pool[0]
        self._solve(tuple(v - 1 for v in n), lam)

    def _solve(self, n, lam):
        pair = elliptic_solver.solve_elliptic(n, lam, self.K, self.BUDGET)
        explicit = elliptic_solver.eigenvalue_explicit(n, lam, self.K)
        return pair.energy.coeffs, explicit.coeffs, len(pair.coeffs)

    def op(self, i):
        return self._solve(*self.inputs(i))

    def keep(self, i, out):
        self.outputs[i] = out

    probe = None

    def check(self, attempted):
        for i in range(attempted):
            n, lam = self.inputs(i)
            implicit, explicit, _ = self.outputs[i]
            checks.check_exact_series(n, lam, implicit, explicit)
        return {"pairs_checked": attempted}

    def trace_targets(self):
        return [
            (elliptic_solver, "solve_elliptic", "elliptic_solver.solve_elliptic"),
            (elliptic_solver, "eigenvalue_explicit", "elliptic_solver.eigenvalue_explicit"),
        ]

    def layer_metrics(self, tr):
        return {
            "elliptic_solver.solve_elliptic_ms": (median_ms(tr.durations("elliptic_solver.solve_elliptic")), "ms"),
            "elliptic_solver.eigenvalue_explicit_ms": (
                median_ms(tr.durations("elliptic_solver.eigenvalue_explicit")), "ms"),
            "elliptic_solver.coefficients_reported": (
                statistics.median(out[2] for out in self.outputs.values()), "count"),
        }


# ---------------------------------------------------------------------------


class FockSectors:
    """`fock-verify --conjectures` in-process, one sector per operation."""

    name = "fock-sectors"
    CHARGES = (0, 1, 2, 3)
    COUPLINGS = (Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))
    LEVEL = 3
    round_size = 1
    min_ops = 40
    tail_pct = 75

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.pool = [(c, lam) for lam in self.COUPLINGS for c in self.CHARGES]
        rng.shuffle(self.pool)
        self.outputs = {}

    def config(self, charge, lam):
        return sutherland.RunConfig(
            subcommand="fock-verify", charge=charge, lam=lam, level=self.LEVEL,
            conjectures=True,
        )

    def setup(self):
        _run_command(self.config(*self.pool[-1]))

    def op(self, i):
        return _run_command(self.config(*self.pool[i % len(self.pool)]))

    def keep(self, i, out):
        self.outputs[i] = out

    probe = None

    def check(self, attempted):
        worst = 0.0
        norms = set()
        for i in range(attempted):
            charge, lam = self.pool[i % len(self.pool)]
            got = checks.check_fock_payload(json.loads(self.outputs[i]), charge, lam, self.LEVEL)
            worst = max(worst, got["worst_eigenvalue_dev"])
            norms.add(got["h_h3_norm"])
        # the [H, H3] norm is a logged observation, never a gate
        return {"worst_eigenvalue_dev": worst, "h_h3_norms": sorted(norms)}

    def trace_targets(self):
        targets = [(cli, "run", "cli.run")]
        for name in ("build_sector", "op_H0", "op_C", "op_W3", "op_H", "op_H3",
                     "commutator", "is_zero_operator", "genfun_operator", "frobenius_norm"):
            targets.append((cli, name, f"fock.{name}"))
        # op_H builds op_W3 and op_C again through the fock module
        targets.append((fock, "op_W3", "fock.op_W3"))
        targets.append((fock, "op_C", "fock.op_C"))
        for name in ("is_level_preserving", "is_gram_symmetric"):
            targets.append((fock.SectorOperator, name, f"fock.{name}"))
        return targets

    def layer_metrics(self, tr):
        out = {}
        for name in ("op_W3", "op_H", "op_H3", "genfun_operator", "commutator"):
            out[f"fock.{name}_ms"] = (median_ms(tr.per_op_totals(f"fock.{name}")), "ms")
        out["fock.op_W3_builds_per_sector"] = (statistics.median(tr.per_op_counts("fock.op_W3")), "count")
        dims = [sum(len(b["eigenvalues"]) for b in json.loads(o)["blocks"]) for o in self.outputs.values()]
        out["fock.sector_dim"] = (statistics.median(dims), "count")
        out["cli.fock_run_overhead_ms"] = (median_ms(tr.self_times("cli.run")), "ms")
        return out


WORKLOADS = {cls.name: cls for cls in (JackGrid, ResidualScan, ExactSeries, FockSectors)}
