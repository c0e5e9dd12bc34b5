"""Interaction-picture Hamiltonian of the driven lambda system and its propagation.

The system couples |0> and |1> to a shared excited state |e> with resonant
drives. In 'full' mode the off-diagonal couplings carry the counter-rotating
factor (1 + exp(-2i f_ej t)); in 'rwa' mode that factor is replaced by 1
(rotating wave approximation). Time-ordered evolution is integrated with a
midpoint-exponential scheme: each step applies exp(-i H(t_mid) h), which is
unconditionally unitary, so the only discretization error is the commutator
truncation controlled by the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pulses import DriveSpec
from .qstate import (
    DIM,
    NORM_TOL,
    PULSE_AREA_TOL,
    UNITARY_TOL,
    NumericalContractError,
    state_vector,
    unitarity_defect,
)

MODES = ("full", "rwa")


@dataclass(frozen=True)
class LambdaSystem:
    """Transition angular frequencies (rad/s) of the two lower levels to |e>."""

    fe0: float
    fe1: float

    def __post_init__(self):
        for name, f in (("fe0", self.fe0), ("fe1", self.fe1)):
            if not (np.isfinite(f) and f >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {f!r}")


# Superconducting-qubit parameter point used as the default system.
TRANSMON = LambdaSystem(fe0=5.0806e10, fe1=4.8580e10)


# per-pulse step floor, for pulses whose carrier needs fewer steps
MIN_STEPS = 2000


@dataclass(frozen=True)
class PropagationConfig:
    """Integration mode and step-resolution policy.

    The per-pulse step count resolves the fastest counter-rotating
    oscillation (period pi/f_max) with steps_per_cycle samples, with a
    MIN_STEPS floor for small frequencies.
    """

    mode: str = "full"
    steps_per_cycle: int = 40

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.steps_per_cycle < 8:
            raise ValueError(f"steps_per_cycle must be >= 8, got {self.steps_per_cycle!r}")


def num_steps(sys: LambdaSystem, tau: float, cfg: PropagationConfig) -> int:
    """Per-pulse step count: max(MIN_STEPS, ceil(steps_per_cycle * tau * 2 f_max / 2pi))."""
    f_fast = max(2.0 * sys.fe0, 2.0 * sys.fe1)
    cycles = tau * f_fast / (2.0 * math.pi)
    return max(MIN_STEPS, int(math.ceil(cfg.steps_per_cycle * cycles)))


def _coupling_weights(sys: LambdaSystem, drive: DriveSpec, mode: str, t_abs, a):
    """Off-diagonal entries w_j = <e|H|j> at absolute time(s) t_abs.

    a is the envelope sampled at the same instants on the pulse's own clock
    (t_abs minus the pulse start); the counter-rotating phases run on t_abs.
    """
    if mode == "full":
        w0 = drive.c0 * a * (1.0 + np.exp(-2j * sys.fe0 * np.asarray(t_abs, dtype=float)))
        w1 = drive.c1 * a * (1.0 + np.exp(-2j * sys.fe1 * np.asarray(t_abs, dtype=float)))
    elif mode == "rwa":
        w0 = drive.c0 * a + 0j
        w1 = drive.c1 * a + 0j
    else:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return w0, w1


def hamiltonian_at(
    sys: LambdaSystem,
    drive: DriveSpec,
    t: float,
    mode: str,
    pulse_start: float = 0.0,
) -> np.ndarray:
    """3x3 Hermitian Hamiltonian at absolute time t for a pulse starting at pulse_start."""
    w0, w1 = _coupling_weights(sys, drive, mode, t, drive.envelope.evaluate(t - pulse_start))
    h = np.zeros((DIM, DIM), dtype=complex)
    h[2, 0] = w0
    h[2, 1] = w1
    h[0, 2] = np.conj(w0)
    h[1, 2] = np.conj(w1)
    return h


def _step_unitaries(w0: np.ndarray, w1: np.ndarray, h: float) -> np.ndarray:
    """exp(-i H_k h) for a batch of coupling-only Hamiltonians, in closed form.

    Each H has the single-excitation structure r(|u><e| + |e><u|) with
    u the unit vector along (conj(w0), conj(w1)), so the exponential is a
    rotation by r*h in the {u, e} plane and identity on the orthogonal
    complement. Equivalent to the eigendecomposition route, exact to
    rounding, but vectorizes over all steps. The entries are written into
    a (3, 3, n) component array and returned as its (n, 3, 3) view, the
    layout time_ordered_product multiplies without copying.
    """
    n = w0.shape[0]
    r = np.sqrt(np.abs(w0) ** 2 + np.abs(w1) ** 2)
    safe_r = np.where(r > 0.0, r, 1.0)
    u0 = np.where(r > 0.0, np.conj(w0) / safe_r, 0.0)
    u1 = np.where(r > 0.0, np.conj(w1) / safe_r, 0.0)
    u0c, u1c = np.conj(u0), np.conj(u1)
    angle = r * h
    c = np.cos(angle)
    minus_i_s = -1j * np.sin(angle)
    cm1 = c - 1.0

    u = np.empty((DIM, DIM, n), dtype=complex)
    u[0, 0] = 1.0 + cm1 * (u0 * u0c).real
    u[0, 1] = cm1 * u0 * u1c
    u[0, 2] = minus_i_s * u0
    u[1, 0] = cm1 * u1 * u0c
    u[1, 1] = 1.0 + cm1 * (u1 * u1c).real
    u[1, 2] = minus_i_s * u1
    u[2, 0] = minus_i_s * u0c
    u[2, 1] = minus_i_s * u1c
    u[2, 2] = c
    return u.transpose(2, 0, 1)


def time_ordered_product(unitaries: np.ndarray) -> np.ndarray:
    """Product U_{N-1} ... U_1 U_0 of a (N, 3, 3) stack, by pairwise reduction.

    Each level multiplies adjacent pairs with a 3x3 product unrolled over
    the inner index, on (3, 3, m) component arrays, so every operation is a
    long vectorized loop; a stack from _step_unitaries is already laid out
    that way and is not copied. An odd last factor carries to the next level.
    """
    p = np.ascontiguousarray(unitaries.transpose(1, 2, 0))
    while p.shape[2] > 1:
        m = p.shape[2]
        k = m // 2
        later, earlier = p[:, :, 1 : 2 * k : 2], p[:, :, 0 : 2 * k : 2]
        q = np.empty((DIM, DIM, k + m % 2), dtype=complex)
        tmp = np.empty((DIM, k), dtype=complex)
        for i in range(DIM):
            row = q[i, :, :k]  # row i of every pair product, all columns at once
            np.multiply(later[i, 0], earlier[0], out=row)
            np.multiply(later[i, 1], earlier[1], out=tmp)
            row += tmp
            np.multiply(later[i, 2], earlier[2], out=tmp)
            row += tmp
        if m % 2:
            q[:, :, k] = p[:, :, m - 1]
        p = q
    return p[:, :, 0].copy()


def propagator(
    sys: LambdaSystem,
    drive: DriveSpec,
    cfg: PropagationConfig,
    pulse_start: float = 0.0,
) -> np.ndarray:
    """Time-ordered propagator over one pulse window [pulse_start, pulse_start + tau].

    Refused unless the steps resolve the envelope: its midpoint-sampled area
    must match the exact area to PULSE_AREA_TOL (relative).
    """
    tau = drive.envelope.tau
    n = num_steps(sys, tau, cfg)
    h = tau / n
    t_mid = pulse_start + (np.arange(n) + 0.5) * h
    a = drive.envelope.evaluate(t_mid - pulse_start)
    sampled, area = h * float(a.sum()), drive.envelope.area
    if not abs(sampled - area) <= PULSE_AREA_TOL * abs(area):
        raise NumericalContractError(
            f"{n} steps of {h:.3e} s sample a pulse area of {sampled:.6g}, not {area:.6g}: "
            "the envelope is not resolved"
        )
    w0, w1 = _coupling_weights(sys, drive, cfg.mode, t_mid, a)
    del a, t_mid  # the product below is the memory peak; drop what it does not use
    u = time_ordered_product(_step_unitaries(w0, w1, h))
    defect = unitarity_defect(u)
    if defect > UNITARY_TOL:
        raise NumericalContractError(
            f"propagator unitarity defect {defect:.3e} exceeds {UNITARY_TOL}"
        )
    return u


def propagate_sequence(
    sys: LambdaSystem,
    drives: Sequence[DriveSpec],
    psi0,
    cfg: PropagationConfig,
) -> np.ndarray:
    """Evolve psi0 through back-to-back pulses sharing one absolute clock from 0.

    Pulse k occupies [sum(tau_j, j<k), sum(tau_j, j<=k)]: the envelope
    restarts each pulse while the counter-rotating phases stay continuous in
    absolute time. The output norm is checked, not repaired; an empty
    sequence returns psi0.
    """
    psi = state_vector(psi0)
    start = 0.0
    for drive in drives:
        psi = propagator(sys, drive, cfg, pulse_start=start) @ psi
        start += drive.envelope.tau
    check_norm(psi)
    return psi


def check_norm(psi: np.ndarray) -> None:
    """Raise NumericalContractError if psi has drifted from unit norm beyond NORM_TOL."""
    drift = abs(float(np.linalg.norm(psi)) - 1.0)
    if drift > NORM_TOL:
        raise NumericalContractError(f"state norm drifted by {drift:.3e} (> {NORM_TOL})")
