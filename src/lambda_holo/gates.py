"""Ideal holonomic gates, named presets, and fidelity against exact propagation.

The ideal gate on the computational subspace is the traceless involution
U = sin(theta)cos(phi) sx + sin(theta)sin(phi) sy + cos(theta) sz, extended
as the identity on |e>. Fidelity for an input state is the modulus of the
overlap between the ideal output and the exactly propagated output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import LambdaSystem, PropagationConfig, check_norm, propagator
from .pulses import DriveSpec, Envelope, check_angles
from .qstate import DIM, apply, excited_population, overlap, state_vector

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# computational-subspace input states, keyed by CLI label
INPUT_STATES = {
    "0": state_vector([1.0, 0.0, 0.0]),
    "1": state_vector([0.0, 1.0, 0.0]),
    "x+": state_vector([_SQRT_HALF, _SQRT_HALF, 0.0]),
    "y+": state_vector([_SQRT_HALF, 1j * _SQRT_HALF, 0.0]),
}

# inputs averaged over for duration scans: +1 eigenstates of sz, sx, sy
AVERAGE_INPUT_LABELS = ("0", "x+", "y+")

_EXCITED_INPUT_TOL = 1e-12


@dataclass(frozen=True)
class GateSpec:
    """Gate rotation angles (radians) plus an optional preset name."""

    theta: float
    phi: float
    name: str = "custom"

    def __post_init__(self):
        check_angles(self.theta, self.phi)


NOT_GATE = GateSpec(theta=math.pi / 2.0, phi=math.pi, name="not")
# (3pi/4, pi) realizes minus the Hadamard matrix: the same gate up to a global
# phase (invisible to the overlap fidelity), but with the larger drive weight on
# the 0<->e tone. The (pi/4, 0) parameterization puts it on the 1<->e tone and
# yields different exact-dynamics fidelities outside the rotating-wave regime.
HADAMARD_GATE = GateSpec(theta=3.0 * math.pi / 4.0, phi=math.pi, name="hadamard")
GATE_PRESETS = {"not": NOT_GATE, "hadamard": HADAMARD_GATE}


def ideal_gate(gate: GateSpec) -> np.ndarray:
    """The target unitary: n.sigma on span{|0>,|1>}, identity on |e>."""
    st, ct = math.sin(gate.theta), math.cos(gate.theta)
    cp, sp = math.cos(gate.phi), math.sin(gate.phi)
    u = np.zeros((DIM, DIM), dtype=complex)
    u[0, 0] = ct
    u[1, 1] = -ct
    u[0, 1] = st * cp - 1j * st * sp
    u[1, 0] = st * cp + 1j * st * sp
    u[2, 2] = 1.0
    return u


def drive_for_gate(gate: GateSpec, env: Envelope) -> DriveSpec:
    """Drive whose coefficient pair realizes the gate's (theta, phi)."""
    return DriveSpec.for_angles(gate.theta, gate.phi, env)


def dark_state(gate: GateSpec) -> np.ndarray:
    """Computational-subspace state decoupled from the drive (+1 eigenvector of the gate)."""
    half = gate.theta / 2.0
    return state_vector([math.cos(half), math.sin(half) * np.exp(1j * gate.phi), 0.0])


def bright_state(gate: GateSpec) -> np.ndarray:
    """Fully coupled partner of the dark state (-1 eigenvector of the gate)."""
    half = gate.theta / 2.0
    return state_vector([-math.sin(half) * np.exp(-1j * gate.phi), math.cos(half), 0.0])


@dataclass(frozen=True)
class GateOutcome:
    """Fidelity plus the diagnostics recorded with every sweep point."""

    fidelity: float
    excited_population: float
    overlap_phase: float


def _require_computational(psi: np.ndarray) -> np.ndarray:
    if abs(psi[2]) > _EXCITED_INPUT_TOL:
        raise ValueError(
            f"input state has |e> amplitude {abs(psi[2]):.3e} beyond {_EXCITED_INPUT_TOL}"
        )
    return psi


def unitary_outcome(u_exact: np.ndarray, u_ideal: np.ndarray, psi0) -> GateOutcome:
    """Apply an exact propagator to psi0 and compare with the ideal unitary's output.

    The output norm is checked, not repaired.
    """
    psi = _require_computational(state_vector(psi0))
    exact = u_exact @ psi
    check_norm(exact)
    ov = overlap(apply(u_ideal, psi), exact)
    return GateOutcome(
        fidelity=float(abs(ov)),
        excited_population=excited_population(exact),
        overlap_phase=float(np.angle(ov)),
    )


def gate_outcome(
    sys: LambdaSystem,
    gate: GateSpec,
    drive: DriveSpec,
    psi0,
    cfg: PropagationConfig,
) -> GateOutcome:
    """Propagate psi0 exactly and compare with the ideal gate output."""
    return unitary_outcome(propagator(sys, drive, cfg), ideal_gate(gate), psi0)


def gate_fidelity(
    sys: LambdaSystem,
    gate: GateSpec,
    drive: DriveSpec,
    psi0,
    cfg: PropagationConfig,
) -> float:
    """|<psi0| U_ideal^dagger U_exact |psi0>| for one input state."""
    return gate_outcome(sys, gate, drive, psi0, cfg).fidelity


def average_fidelity(
    sys: LambdaSystem,
    gate: GateSpec,
    drive: DriveSpec,
    cfg: PropagationConfig,
) -> float:
    """Arithmetic mean of the fidelity over the three canonical input states."""
    u_exact, u_ideal = propagator(sys, drive, cfg), ideal_gate(gate)
    fids = [
        unitary_outcome(u_exact, u_ideal, INPUT_STATES[label]).fidelity
        for label in AVERAGE_INPUT_LABELS
    ]
    return float(np.mean(fids))
