import numpy as np
import pytest

from lambda_holo.qstate import (
    NumericalContractError,
    check_norm,
    state_vector,
    unitarity_defect,
)
from oracles import expm_unitary

RNG = np.random.default_rng(20240817)


def random_state():
    v = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    return v / np.linalg.norm(v)


def random_hermitian(scale=1.0):
    m = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    return scale * (m + m.conj().T) / 2.0


def test_state_vector_norm_enforced():
    with pytest.raises(ValueError):
        state_vector([1.0, 1.0, 0.0])
    psi = state_vector(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-15


def test_state_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        state_vector([np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        state_vector([np.inf, 0.0, 0.0])


def test_contracts_refuse_nonfinite():
    # a non-finite defect or drift fails the contract instead of comparing False
    nan = np.full((3, 3), np.nan, dtype=complex)
    assert not unitarity_defect(nan) <= 1.0
    with pytest.raises(NumericalContractError):
        check_norm(np.array([np.nan, 0.0, 0.0], dtype=complex))
    check_norm(np.array([1.0, 0.0, 0.0], dtype=complex))


# The eigendecomposition exponential of the tests' oracles, which the closed-form step
# unitaries are checked against.


def test_expm_zero_generator():
    u = expm_unitary(np.zeros((3, 3)), 1.0)
    assert np.abs(u - np.eye(3)).max() < 1e-15


def test_expm_zero_time():
    u = expm_unitary(random_hermitian(), 0.0)
    assert np.abs(u - np.eye(3)).max() < 1e-15


def test_expm_rabi_quarter_rotation():
    # coupling on the {|0>, |e>} block, angle pi/2: |0> -> -i|e>
    omega = 2.0 * np.pi * 1e7
    h = np.zeros((3, 3), dtype=complex)
    h[0, 2] = h[2, 0] = omega
    dt = (np.pi / 2) / omega
    ket_0, ket_e = np.eye(3)[0], np.eye(3)[2]
    psi = expm_unitary(h, dt) @ ket_0
    assert np.abs(psi - (-1j) * ket_e).max() < 1e-12
    # independent oracle: truncated power series of exp(-i h dt)
    series = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    for k in range(1, 40):
        term = term @ (-1j * dt * h) / k
        series += term
    assert np.abs(series - expm_unitary(h, dt)).max() < 1e-12


def test_expm_inverse_property():
    for _ in range(10):
        h = random_hermitian(scale=2.0)
        dt = RNG.uniform(0.1, 3.0)
        prod = expm_unitary(h, dt) @ expm_unitary(h, -dt)
        assert np.abs(prod - np.eye(3)).max() < 1e-10


def test_expm_group_property():
    for _ in range(10):
        h = random_hermitian(scale=2.0)
        dt1, dt2 = RNG.uniform(0.1, 2.0, size=2)
        combined = expm_unitary(h, dt1 + dt2)
        split = expm_unitary(h, dt1) @ expm_unitary(h, dt2)
        assert np.abs(combined - split).max() < 1e-10


def test_expm_unitarity():
    for _ in range(10):
        u = expm_unitary(random_hermitian(scale=5.0), RNG.uniform(0.1, 2.0))
        assert unitarity_defect(u) < 1e-12


def test_expm_rejects_non_hermitian():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = 1.0  # missing conjugate partner
    with pytest.raises(ValueError):
        expm_unitary(m, 1.0)


def test_expm_rejects_nonfinite_dt():
    with pytest.raises(ValueError):
        expm_unitary(np.zeros((3, 3)), np.inf)


def test_apply_preserves_norm_under_unitary():
    for _ in range(5):
        u = expm_unitary(random_hermitian(), 1.0)
        psi = u @ random_state()
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
