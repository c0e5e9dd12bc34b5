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

from .dynamics import LambdaSystem, PropagationConfig, propagator
from .pulses import DriveSpec, Envelope, check_angles
from .qstate import DIM, check_norm, state_vector

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# computational-subspace input states, keyed by CLI label
INPUT_STATES = {
    "0": state_vector([1.0, 0.0, 0.0]),
    "1": state_vector([0.0, 1.0, 0.0]),
    "x+": state_vector([_SQRT_HALF, _SQRT_HALF, 0.0]),
    "y+": state_vector([_SQRT_HALF, 1j * _SQRT_HALF, 0.0]),
}
# validated once, here: unitary_outcome trusts them, so they are read-only
for _psi in INPUT_STATES.values():
    _psi.setflags(write=False)

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


def unitary_outcome(u_exact: np.ndarray, u_ideal: np.ndarray, psi: np.ndarray) -> GateOutcome:
    """Apply an exact propagator to a validated state and compare with the ideal output.

    psi is trusted: an INPUT_STATES entry, or a state gate_outcome has validated.
    The output norm is checked, not repaired.
    """
    exact = u_exact @ psi
    check_norm(exact)
    ov = complex(np.vdot(u_ideal @ psi, exact))
    return GateOutcome(
        fidelity=float(abs(ov)),
        excited_population=float(np.abs(exact[2]) ** 2),
        overlap_phase=float(np.angle(ov)),
    )


def gate_outcome(
    sys: LambdaSystem,
    gate: GateSpec,
    drive: DriveSpec,
    psi0,
    cfg: PropagationConfig,
) -> GateOutcome:
    """Propagate psi0 exactly and compare with the ideal gate output.

    psi0 must be a unit-norm state on span{|0>, |1>}; it is validated before propagation.
    """
    psi = _require_computational(state_vector(psi0))
    return unitary_outcome(propagator(sys, drive, cfg), ideal_gate(gate), psi)
