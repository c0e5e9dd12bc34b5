"""State and unitarity contracts on the three-level basis (|0>, |1>, |e>).

States are numpy arrays of shape (3,), operators of shape (3, 3), both
complex128. The basis index order is fixed throughout the package:
index 0 -> |0>, index 1 -> |1>, index 2 -> |e>.

A state is validated once, where it enters: `state_vector` checks shape,
finiteness and unit norm of the built-in input states at import and of a
caller's state in `gates.gate_outcome`. Past that point the package works on
plain numpy arrays (`u @ psi`, `np.vdot`), and only the numerical contracts
are checked: the norm of a propagated state and the unitarity of a propagator.
"""

from __future__ import annotations

import math

import numpy as np

DIM = 3

_IDENTITY = np.eye(DIM)

NORM_TOL = 1e-9
UNITARY_TOL = 1e-9
# relative deviation of a propagator's sampled pulse area from the envelope's exact area
PULSE_AREA_TOL = 1e-4


class NumericalContractError(RuntimeError):
    """A numerical guarantee (norm conservation, unitarity, resolved pulse area) was violated."""


def state_vector(amplitudes) -> np.ndarray:
    """Validated 3-component state vector of unit norm."""
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.shape != (DIM,):
        raise ValueError(f"state vector must have shape {(DIM,)}, got {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValueError("state vector contains non-finite entries")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state vector norm {norm!r} deviates from 1 beyond {NORM_TOL}")
    return psi


def check_norm(psi: np.ndarray) -> None:
    """Raise NumericalContractError if psi is not finite or its norm drifted beyond NORM_TOL."""
    drift = abs(math.sqrt(np.vdot(psi, psi).real) - 1.0)
    if not drift <= NORM_TOL:
        raise NumericalContractError(f"state norm drifted by {drift:.3e} (> {NORM_TOL})")


def unitarity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m^dagger m from the identity; NaN if m is not finite.

    Test it as `not defect <= tol`, so that a NaN defect fails the contract.
    """
    return float(np.abs(m.conj().T @ m - _IDENTITY).max())
