"""Reference implementations the tests compare the library against.

Each is written from the model's definition rather than from the library's
fast paths: the Hamiltonian takes every carrier phase with its own np.exp, the
exponential of a Hermitian matrix goes through np.linalg.eigh, and a pulse
sequence multiplies single-pulse propagators on one absolute clock.
"""

import math

import numpy as np

from lambda_holo.dynamics import propagator
from lambda_holo.qstate import (
    DIM,
    UNITARY_TOL,
    NumericalContractError,
    state_vector,
    unitarity_defect,
)

HERMITIAN_TOL = 1e-12


def hamiltonian(sys, drive, t: float, mode: str, pulse_start: float = 0.0) -> np.ndarray:
    """H(t) = sum_j w_j |e><j| + h.c. at absolute time t, for a pulse starting at pulse_start.

    w_j = c_j a(t - pulse_start) in 'rwa' mode, times (1 + exp(-2i f_j t)) in
    'full' mode: the envelope runs on the pulse's clock, the carrier on the
    absolute one.
    """
    a = float(drive.envelope.evaluate(np.array([t - pulse_start]))[0])
    h = np.zeros((DIM, DIM), dtype=complex)
    for j, (c, f) in enumerate(((drive.c0, sys.fe0), (drive.c1, sys.fe1))):
        w = c * a
        if mode == "full":
            w *= 1.0 + np.exp(-2j * f * t)
        h[2, j] = w
        h[j, 2] = np.conj(w)
    return h


def hermitian_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose; NaN if m is not finite."""
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(m) -> np.ndarray:
    mat = np.asarray(m, dtype=complex)
    # tolerance scales with the matrix magnitude (entries are rad/s in practice)
    scale = max(1.0, float(np.abs(mat).max()))
    defect = hermitian_defect(mat)
    if not defect <= HERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not finite and Hermitian: defect {defect:.3e}")
    return mat


def expm_unitary(h, dt: float) -> np.ndarray:
    """exp(-i h dt) for Hermitian h, via eigendecomposition (exact to rounding at 3x3)."""
    mat = require_hermitian(h)
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    evals, evecs = np.linalg.eigh(mat)
    u = (evecs * np.exp(-1j * evals * dt)) @ evecs.conj().T
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        raise NumericalContractError(f"matrix exponential lost unitarity (defect {defect:.3e})")
    return u


def dark_state(gate) -> np.ndarray:
    """Computational-subspace state decoupled from the drive (+1 eigenvector of the gate)."""
    half = gate.theta / 2.0
    return state_vector([math.cos(half), math.sin(half) * np.exp(1j * gate.phi), 0.0])


def bright_state(gate) -> np.ndarray:
    """Fully coupled partner of the dark state (-1 eigenvector of the gate)."""
    half = gate.theta / 2.0
    return state_vector([-math.sin(half) * np.exp(-1j * gate.phi), math.cos(half), 0.0])


def sequence_propagator(sys, drives, cfg) -> np.ndarray:
    """Back-to-back pulses on one absolute clock that starts at 0.

    Pulse k starts at the sum of the earlier durations: its envelope restarts
    while the carrier phase stays continuous.
    """
    u = np.eye(DIM, dtype=complex)
    start = 0.0
    for drive in drives:
        u = propagator(sys, drive, cfg, pulse_start=start) @ u
        start += drive.envelope.tau
    return u
