"""The benchmark workloads: seeded inputs, the timed call, and the reference.

A run is a sequence of passes. Pass p draws fresh inputs from (seed, p), so
no pass repeats another's inputs and a cache that lives across calls cannot
make a later pass cheaper than a user's first call. A pass is a list of
points and a point is one public call into lambda_holo, timed on its own.

Every pass is checked for errors and malformed output; the first
`checked_passes` are also checked against the reference. A fixed count keeps
the check's cost and sample size the same however many passes a faster
program fits into the run.

The reference for a point recomputes its fidelities at four times the step
count with bench/reference.py, which integrates the model from its
definition and shares no code with lambda_holo's dynamics, gates, sweeps or
cli modules. Seed 0's reference is stored in bench/reference_seed0.json.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np

import reference
from lambda_holo import (
    ENVELOPE_KINDS,
    HADAMARD_GATE,
    NOT_GATE,
    TRANSMON,
    DriveSpec,
    PropagationConfig,
    envelope,
    sweeps,
)
from lambda_holo import cli

# Row tolerance: half a unit in the fourth decimal, the precision of the
# paper's tables. Midpoint stepping at the default resolution errs by less than
# 1e-5 on these workloads.
TOL = 5e-5

NS = 1e-9
AVERAGE_INPUTS = ("0", "x+", "y+")


def _rng(seed: int, pass_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, pass_index, stream])


def _grid(rng: np.random.Generator, lo: float, hi: float, k: int) -> list[float]:
    """lo, hi, and one uniform draw in each of k - 2 equal cells of [lo, hi], ascending.

    The ends of the range, where time, memory and discretisation error peak,
    are in every pass.
    """
    n = k - 2
    inner = lo + (np.arange(n) + rng.uniform(0.0, 1.0, n)) * ((hi - lo) / n)
    return [lo, *(float(x) for x in inner), hi]


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """n uniform draws over [lo, hi], one in each of n equal cells, in random order."""
    return lo + (rng.permutation(n) + rng.uniform(0.0, 1.0, n)) * ((hi - lo) / n)


def _balanced(rng: np.random.Generator, options: tuple, n: int) -> list:
    """n choices that use every option equally often (to within one), in random order."""
    return [options[i] for i in rng.permutation(np.resize(np.arange(len(options)), n))]


def _drive(gate, tau_ns: float) -> DriveSpec:
    return DriveSpec.for_angles(gate.theta, gate.phi, envelope("gaussian", tau_ns * NS))


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(f"output does not echo its input: {what}")


class Fig1Scan:
    """Input-averaged NOT and Hadamard fidelity on TRANSMON, one duration per point."""

    name = "fig1-scan"
    rows_per_point = 2
    checked_passes = 3
    gates = (NOT_GATE, HADAMARD_GATE)

    def __init__(self, points_per_pass: int = 16):
        self.k = points_per_pass
        self.cfg = PropagationConfig(mode="full")

    def inputs(self, seed: int, pass_index: int) -> list:
        """Durations (ns): 1, 100, and k - 2 log-uniform draws between them."""
        rng = _rng(seed, pass_index, 1)
        return [10.0**x for x in _grid(rng, 0.0, 2.0, self.k)]

    def call(self, tau_ns):
        return sweeps.duration_average_sweep(
            [tau_ns], self.gates, sys=TRANSMON, kind="gaussian", cfg=self.cfg, workers=1
        )

    def rows(self, tau_ns, out) -> list[float]:
        for point, gate in zip(out, self.gates):
            c = point.coordinates
            _require(c["gate"] == gate.name and c["tau_ns"] == tau_ns, "gate, tau_ns")
        return [point.fidelity for point in out]

    def reference(self, tau_ns) -> list[float]:
        out = []
        for g in self.gates:
            u = reference.propagator(TRANSMON.fe0, TRANSMON.fe1, _drive(g, tau_ns), self.cfg.mode)
            ideal = reference.ideal(g.theta, g.phi)
            out.append(float(np.mean([reference.fidelity(ideal, u, s) for s in AVERAGE_INPUTS])))
        return out


class PointStream:
    """Independent single custom points through `cli.run`, output captured in memory."""

    name = "point-stream"
    rows_per_point = 1
    checked_passes = 2
    # the top of the frequency range is TRANSMON itself; lower systems keep its ratio
    f_lo = 1e6
    worst_tau_scale_ns = 1.35

    # 500 points leave 25 beyond a pass's 95th percentile
    def __init__(self, points_per_pass: int = 500):
        self.k = points_per_pass

    def inputs(self, seed: int, pass_index: int) -> list:
        """Each continuous input stratified and each choice balanced within the pass."""
        rng = _rng(seed, pass_index, 3)
        n = self.k
        log_tau = _stratified(rng, 0.0, 1.0, n)
        log_scale = _stratified(rng, math.log10(self.f_lo / TRANSMON.fe0), 0.0, n)
        theta = _stratified(rng, 0.0, math.pi, n)
        phi = _stratified(rng, -math.pi, math.pi, n)
        kinds = _balanced(rng, ENVELOPE_KINDS, n)
        labels = _balanced(rng, tuple(reference.INPUTS), n)
        modes = _balanced(rng, ("full", "rwa"), n)
        fmts = _balanced(rng, ("csv", "json"), n)
        points = [
            {
                "envelope": kinds[i],
                "tau_ns": float(10.0 ** log_tau[i]),
                "fe0": float(10.0 ** log_scale[i] * TRANSMON.fe0),
                "fe1": float(10.0 ** log_scale[i] * TRANSMON.fe1),
                "theta": float(theta[i]),
                "phi": float(phi[i]),
                "input_label": labels[i],
                "mode": modes[i],
                "fmt": fmts[i],
            }
            for i in range(n)
        ]
        # Point 0 sits where the default step policy errs most. The error depends on
        # tau and the frequencies only through tau * fe0 / TRANSMON.fe0, largest near
        # 1.35 ns (gaussian, full mode, theta = pi/2, input |1>: 8.13e-6, found by
        # search), so the worst case is checked in every run rather than whichever
        # random point comes closest to it. Its tau, phi and format still vary.
        tau = float(10.0 ** rng.uniform(math.log10(self.worst_tau_scale_ns), 1.0))
        scale = self.worst_tau_scale_ns / tau
        points[0].update(
            envelope="gaussian", tau_ns=tau, fe0=scale * TRANSMON.fe0, fe1=scale * TRANSMON.fe1,
            theta=math.pi / 2, input_label="1", mode="full",
        )
        return points

    def call(self, spec):
        config = cli.RunConfig(command="run", gate="custom", workers=1, **spec)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.run(config)
        return status, buf.getvalue()

    def rows(self, spec, out) -> list[float]:
        status, text = out
        _require(status == 0, f"exit status {status}")
        if spec["fmt"] == "json":
            records = json.loads(text)
        else:
            records = list(csv.DictReader(io.StringIO(text)))
        rec = records[0]
        for key, want in (("envelope", spec["envelope"]), ("input", spec["input_label"]),
                          ("mode", spec["mode"]), ("gate", "custom")):
            _require(rec[key] == want, key)
        for key, want in (("tau_ns", spec["tau_ns"]), ("theta_rad", spec["theta"]),
                          ("phi_rad", spec["phi"]), ("fe0_rad_s", spec["fe0"])):
            _require(math.isclose(float(rec[key]), want, rel_tol=1e-4, abs_tol=1e-5), key)
        return [float(rec["fidelity"])]

    def reference(self, spec) -> list[float]:
        drive = DriveSpec.for_angles(
            spec["theta"], spec["phi"], envelope(spec["envelope"], spec["tau_ns"] * NS)
        )
        u = reference.propagator(spec["fe0"], spec["fe1"], drive, spec["mode"])
        ideal = reference.ideal(spec["theta"], spec["phi"])
        return [reference.fidelity(ideal, u, spec["input_label"])]


WORKLOADS = {w.name: w for w in (Fig1Scan, PointStream)}

# points per pass at the tiny size the smoke test runs
TINY_POINTS = {"fig1-scan": 3, "point-stream": 12}


def make(name: str, tiny: bool = False):
    cls = WORKLOADS[name]
    return cls(TINY_POINTS[name]) if tiny else cls()


def check(got: list[float], ref: list[float], tol: float = TOL) -> tuple[int, list[float]]:
    """(rows outside the tolerance, |fidelity - reference| of each row)."""
    errs = [abs(g - r) for g, r in zip(got, ref, strict=True)]
    return sum(1 for e in errs if not e <= tol), errs
