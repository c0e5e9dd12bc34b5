"""Complex linear algebra on the three-level basis (|0>, |1>, |e>).

States are numpy arrays of shape (3,), operators of shape (3, 3), both
complex128. The basis index order is fixed throughout the package:
index 0 -> |0>, index 1 -> |1>, index 2 -> |e>.
"""

from __future__ import annotations

import numpy as np

DIM = 3
BASIS_LABELS = ("0", "1", "e")

NORM_TOL = 1e-9
UNITARY_TOL = 1e-9
# relative deviation of a propagator's sampled pulse area from the envelope's exact area
PULSE_AREA_TOL = 1e-4


class NumericalContractError(RuntimeError):
    """A numerical guarantee (norm conservation, unitarity, resolved pulse area) was violated."""


def _as_complex_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def state_vector(amplitudes) -> np.ndarray:
    """Validated 3-component state vector of unit norm."""
    psi = _as_complex_array(amplitudes, (DIM,), "state vector")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state vector norm {norm!r} deviates from 1 beyond {NORM_TOL}")
    return psi


def ket(label: str) -> np.ndarray:
    """Basis vector for one of the labels '0', '1', 'e'."""
    if label not in BASIS_LABELS:
        raise ValueError(f"unknown basis label {label!r}; expected one of {BASIS_LABELS}")
    psi = np.zeros(DIM, dtype=complex)
    psi[BASIS_LABELS.index(label)] = 1.0
    psi.setflags(write=False)
    return psi


KET_0 = ket("0")
KET_1 = ket("1")
KET_E = ket("e")


def overlap(a, b) -> complex:
    """Inner product <a|b> of two normalized states."""
    av = _as_complex_array(a, (DIM,), "state vector")
    bv = _as_complex_array(b, (DIM,), "state vector")
    return complex(np.vdot(av, bv))


def check_norm(psi: np.ndarray) -> None:
    """Raise NumericalContractError if psi has drifted from unit norm beyond NORM_TOL."""
    drift = abs(float(np.linalg.norm(psi)) - 1.0)
    if drift > NORM_TOL:
        raise NumericalContractError(f"state norm drifted by {drift:.3e} (> {NORM_TOL})")


def unitarity_defect(m) -> float:
    """Largest entrywise deviation of m^dagger m from the identity."""
    mat = _as_complex_array(m, (DIM, DIM), "matrix")
    return float(np.abs(mat.conj().T @ mat - np.eye(DIM)).max())


def apply(m, psi) -> np.ndarray:
    """Matrix-vector product m @ psi. No renormalization: norm drift is a diagnostic."""
    mat = _as_complex_array(m, (DIM, DIM), "matrix")
    vec = _as_complex_array(psi, (DIM,), "state vector")
    return mat @ vec


def excited_population(psi) -> float:
    """|<e|psi>|^2 of a state vector."""
    vec = _as_complex_array(psi, (DIM,), "state vector")
    return float(np.abs(vec[2]) ** 2)
