"""Parameter-sweep harness: frequency, envelope/input, duration and sequence scans.

Every sweep returns a list of SweepPoint records in deterministic parameter
order; each record echoes the full coordinates of the run so an output file
needs no ambient context to interpret. A sweep first lays out its rows, then
evaluates them in order in one process, building each distinct propagator
once and applying it to every input state and row that needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dynamics import TRANSMON, LambdaSystem, PropagationConfig, propagator
from .gates import (
    AVERAGE_INPUT_LABELS,
    GateSpec,
    HADAMARD_GATE,
    INPUT_STATES,
    NOT_GATE,
    drive_for_gate,
    ideal_gate,
    unitary_outcome,
)
from .pulses import DEFAULT_FWHM_FRACTION, DEFAULT_SECH_BETA, ENVELOPE_KINDS, Envelope, envelope

NS = 1e-9

TABLE1_FREQUENCIES = (1e6, 1e7, 1e8, 5e8, 1e9, 1e10)
TABLE2_INPUT_LABELS = ("x+", "y+", "0")
TABLE3_DURATIONS_NS = (100.0, 40.0, 10.0, 2.5)
FIG2_DURATIONS_NS = tuple(float(t) for t in range(10, 101, 5))
DEFAULT_TAU_NS = 40.0

SEQUENCE_LABELS = ("hadamard_then_not", "not_then_hadamard", "product")

_FIDELITY_CEILING = 1.0 + 1e-9


def fig1_default_durations_ns(points: int = 100, lo: float = 1.0, hi: float = 100.0):
    """Logarithmic duration grid (ns) for the averaged duration scan."""
    return np.logspace(np.log10(lo), np.log10(hi), points)


FIG1_DURATIONS_NS = tuple(map(float, fig1_default_durations_ns()))


@dataclass(frozen=True)
class SweepPoint:
    """One sweep record: coordinates, fidelity, and diagnostics."""

    coordinates: Mapping[str, object]
    fidelity: float
    excited_population: float | None = None
    overlap_phase: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= _FIDELITY_CEILING:
            raise ValueError(f"fidelity {self.fidelity!r} outside [0, 1 + 1e-9]")

    def record(self) -> dict:
        """Flat dict: coordinates (alphabetical), then fidelity, then diagnostics."""
        row = {key: self.coordinates[key] for key in sorted(self.coordinates)}
        row["fidelity"] = self.fidelity
        row["excited_population"] = self.excited_population
        row["overlap_phase"] = self.overlap_phase
        return row


@dataclass(frozen=True)
class _Row:
    """One output row, laid out before anything is propagated.

    Each term is a gate sequence applied back to back on one clock that
    starts at 0; a term's fidelity is averaged over the inputs and the row's
    fidelity is the product over its terms. A row with one term reports the
    averaged excited population, and a row with one term and one input also
    the overlap phase.
    """

    coordinates: dict
    sys: LambdaSystem
    env: Envelope
    terms: tuple[tuple[GateSpec, ...], ...]
    inputs: tuple[str, ...]


def _row(
    sys: LambdaSystem,
    cfg: PropagationConfig,
    env: Envelope,
    tau_ns: float,
    terms: tuple[tuple[GateSpec, ...], ...],
    inputs: tuple[str, ...],
    **extra,
) -> _Row:
    for label in inputs:
        if label not in INPUT_STATES:
            raise ValueError(f"unknown input {label!r}; known inputs are {tuple(INPUT_STATES)}")
    coords = {
        "mode": cfg.mode,
        "fe0_rad_s": sys.fe0,
        "fe1_rad_s": sys.fe1,
        "envelope": env.kind,
        "width_param": env.width_param,
        "tau_ns": tau_ns,
        "input": inputs[0] if len(inputs) == 1 else "avg",
    }
    if len(terms) == 1 and len(terms[0]) == 1:
        gate = terms[0][0]
        coords.update(gate=gate.name, theta_rad=gate.theta, phi_rad=gate.phi)
    coords.update(extra)
    return _Row(coords, sys, env, terms, inputs)


def _mean(values: list[float]) -> float:
    """The mean of a few floats, summed left to right: np.mean's bits for fewer than 8 values.

    Not the built-in sum, which is compensated on Python 3.12 and later.
    """
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _evaluate(rows: Sequence[_Row], cfg: PropagationConfig, workers: int) -> list[SweepPoint]:
    """Evaluate rows in order, building each distinct propagator once.

    Propagators are keyed on (system, drive, pulse start, config) in a dict
    that lives only for this call. Evaluation is sequential in the calling
    thread: workers is validated, and kept only because bench/workloads.py
    passes it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    built: dict[tuple, np.ndarray] = {}

    def pulse_propagator(sys: LambdaSystem, gate: GateSpec, env: Envelope, start: float):
        drive = drive_for_gate(gate, env)
        key = (sys, drive, start, cfg)
        if key not in built:
            built[key] = propagator(sys, drive, cfg, pulse_start=start)
        return built[key]

    points = []
    for row in rows:
        fids, outcomes = [], []
        for gates in row.terms:
            start, u_exact, u_ideal = 0.0, None, None
            for gate in gates:
                u, ideal = pulse_propagator(row.sys, gate, row.env, start), ideal_gate(gate)
                u_exact = u if u_exact is None else u @ u_exact
                u_ideal = ideal if u_ideal is None else ideal @ u_ideal
                start += row.env.tau
            outcomes = [unitary_outcome(u_exact, u_ideal, INPUT_STATES[s]) for s in row.inputs]
            fids.append(_mean([o.fidelity for o in outcomes]))
        single = len(row.terms) == 1
        points.append(
            SweepPoint(
                coordinates=row.coordinates,
                fidelity=math.prod(fids),
                excited_population=(
                    _mean([o.excited_population for o in outcomes]) if single else None
                ),
                overlap_phase=outcomes[0].overlap_phase if single and len(outcomes) == 1 else None,
            )
        )
    return points


def _pulse(kind: str, tau_ns: float, fwhm_fraction: float, sech_beta: float) -> Envelope:
    return envelope(kind, tau_ns * NS, fwhm_fraction=fwhm_fraction, sech_beta=sech_beta)


def frequency_sweep(
    freqs: Sequence[float] = TABLE1_FREQUENCIES,
    *,
    tau_ns: float = DEFAULT_TAU_NS,
    kind: str = "gaussian",
    fwhm_fraction: float = DEFAULT_FWHM_FRACTION,
    sech_beta: float = DEFAULT_SECH_BETA,
    input_label: str = "0",
    cfg: PropagationConfig = PropagationConfig(),
    workers: int = 1,
) -> list[SweepPoint]:
    """NOT and Hadamard fidelity vs transition frequency, the same f on both transitions."""
    env = _pulse(kind, tau_ns, fwhm_fraction, sech_beta)
    systems = [LambdaSystem(fe0=float(f), fe1=float(f)) for f in freqs]
    gates = (NOT_GATE, HADAMARD_GATE)
    rows = [_row(s, cfg, env, tau_ns, ((g,),), (input_label,)) for s in systems for g in gates]
    return _evaluate(rows, cfg, workers)


def envelope_input_sweep(
    *,
    sys: LambdaSystem = TRANSMON,
    tau_ns: float = DEFAULT_TAU_NS,
    fwhm_fraction: float = DEFAULT_FWHM_FRACTION,
    sech_beta: float = DEFAULT_SECH_BETA,
    cfg: PropagationConfig = PropagationConfig(),
    workers: int = 1,
) -> list[SweepPoint]:
    """NOT fidelity per envelope kind and TABLE2_INPUT_LABELS input at one duration."""
    envs = [_pulse(kind, tau_ns, fwhm_fraction, sech_beta) for kind in ENVELOPE_KINDS]
    rows = [
        _row(sys, cfg, env, tau_ns, ((NOT_GATE,),), (label,))
        for env in envs
        for label in TABLE2_INPUT_LABELS
    ]
    return _evaluate(rows, cfg, workers)


def duration_sweep(
    durations_ns: Sequence[float] = TABLE3_DURATIONS_NS,
    kinds: Sequence[str] = ENVELOPE_KINDS,
    *,
    sys: LambdaSystem = TRANSMON,
    gate: GateSpec = NOT_GATE,
    input_label: str = "0",
    fwhm_fraction: float = DEFAULT_FWHM_FRACTION,
    sech_beta: float = DEFAULT_SECH_BETA,
    cfg: PropagationConfig = PropagationConfig(),
    workers: int = 1,
) -> list[SweepPoint]:
    """Fidelity per (envelope kind, pulse duration) for one gate and input."""
    rows = [
        _row(sys, cfg, _pulse(kind, t, fwhm_fraction, sech_beta), t, ((gate,),), (input_label,))
        for kind in kinds
        for t in map(float, durations_ns)
    ]
    return _evaluate(rows, cfg, workers)


def duration_average_sweep(
    durations_ns: Sequence[float] = FIG1_DURATIONS_NS,
    gates: Sequence[GateSpec] = (NOT_GATE, HADAMARD_GATE),
    *,
    sys: LambdaSystem = TRANSMON,
    kind: str = "gaussian",
    fwhm_fraction: float = DEFAULT_FWHM_FRACTION,
    sech_beta: float = DEFAULT_SECH_BETA,
    cfg: PropagationConfig = PropagationConfig(),
    workers: int = 1,
) -> list[SweepPoint]:
    """Input-averaged fidelity per (gate, duration) over a dense duration grid."""
    taus = [float(t) for t in durations_ns]
    envs = [_pulse(kind, t, fwhm_fraction, sech_beta) for t in taus]
    rows = [
        _row(sys, cfg, env, t, ((g,),), AVERAGE_INPUT_LABELS)
        for g in gates
        for t, env in zip(taus, envs)
    ]
    return _evaluate(rows, cfg, workers)


def sequence_sweep(
    durations_ns: Sequence[float] = FIG2_DURATIONS_NS,
    *,
    sys: LambdaSystem = TRANSMON,
    kind: str = "gaussian",
    fwhm_fraction: float = DEFAULT_FWHM_FRACTION,
    sech_beta: float = DEFAULT_SECH_BETA,
    cfg: PropagationConfig = PropagationConfig(),
    workers: int = 1,
) -> list[SweepPoint]:
    """Hadamard/NOT two-pulse combinations vs the product of single-gate fidelities.

    For each per-pulse duration tau the sweep emits three points: the two
    application orders (each averaged over the canonical inputs) and the
    product of the separately averaged single-gate fidelities at the same tau.
    """
    terms = {
        "hadamard_then_not": ((HADAMARD_GATE, NOT_GATE),),
        "not_then_hadamard": ((NOT_GATE, HADAMARD_GATE),),
        "product": ((NOT_GATE,), (HADAMARD_GATE,)),
    }
    rows = []
    for t in map(float, durations_ns):
        env = _pulse(kind, t, fwhm_fraction, sech_beta)
        rows += [
            _row(sys, cfg, env, t, terms[label], AVERAGE_INPUT_LABELS, sequence=label)
            for label in SEQUENCE_LABELS
        ]
    return _evaluate(rows, cfg, workers)
