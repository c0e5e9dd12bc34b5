import math

import numpy as np
import pytest

from lambda_holo.dynamics import LambdaSystem, PropagationConfig, TRANSMON
from lambda_holo.gates import (
    AVERAGE_INPUT_LABELS,
    GATE_PRESETS,
    GateSpec,
    HADAMARD_GATE,
    INPUT_STATES,
    NOT_GATE,
    gate_outcome,
    ideal_gate,
)
from lambda_holo.pulses import envelope
from lambda_holo.sweeps import duration_average_sweep
from oracles import dark_state

NS = 1e-9

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD_MATRIX = (SX + SZ) / math.sqrt(2)


GAUSSIAN = envelope("gaussian", 40.0 * NS)


def test_input_states_are_computational():
    for label, psi in INPUT_STATES.items():
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12, label
        assert psi[2] == 0.0, label
        assert not psi.flags.writeable, label
    assert set(AVERAGE_INPUT_LABELS) == {"0", "x+", "y+"}


def test_not_preset_matrix():
    u = ideal_gate(NOT_GATE)
    assert np.abs(u[:2, :2] + SX).max() < 1e-12  # -sigma_x: |0> -> -|1>
    assert u[2, 2] == 1.0
    assert np.abs(u @ INPUT_STATES["0"] + INPUT_STATES["1"]).max() < 1e-12


def test_quarter_angle_gives_hadamard_matrix():
    u = ideal_gate(GateSpec(theta=math.pi / 4, phi=0.0))
    assert np.abs(u[:2, :2] - HADAMARD_MATRIX).max() < 1e-12


def test_hadamard_preset_is_hadamard_up_to_global_phase():
    u = ideal_gate(HADAMARD_GATE)
    assert np.abs(u[:2, :2] + HADAMARD_MATRIX).max() < 1e-12


def test_theta_zero_gives_sigma_z():
    u = ideal_gate(GateSpec(theta=0.0, phi=1.2))
    assert np.abs(u[:2, :2] - SZ).max() < 1e-12


def test_ideal_gate_is_involution():
    for theta in np.linspace(0.0, math.pi, 7):
        for phi in np.linspace(-math.pi, math.pi, 7):
            u = ideal_gate(GateSpec(theta=float(theta), phi=float(phi)))
            assert np.abs((u @ u)[:2, :2] - np.eye(2)).max() < 1e-12


def test_dark_state_is_plus_one_eigenvector():
    for theta, phi in ((0.4, 1.0), (2.0, -2.5), (math.pi / 2, math.pi)):
        gate = GateSpec(theta=theta, phi=phi)
        d = dark_state(gate)
        assert np.abs(ideal_gate(gate) @ d - d).max() < 1e-12


def test_gate_presets_registry():
    assert GATE_PRESETS["not"] is NOT_GATE
    assert GATE_PRESETS["hadamard"] is HADAMARD_GATE
    assert (NOT_GATE.theta, NOT_GATE.phi) == (math.pi / 2, math.pi)


def test_rwa_fidelity_is_unity():
    cfg = PropagationConfig(mode="rwa")
    for name, gate in GATE_PRESETS.items():
        for label in AVERAGE_INPUT_LABELS:
            fid = gate_outcome(TRANSMON, gate, GAUSSIAN, INPUT_STATES[label], cfg).fidelity
            assert abs(fid - 1.0) < 1e-6, (name, label)


def test_rejects_excited_state_input():
    psi = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    with pytest.raises(ValueError):
        gate_outcome(TRANSMON, NOT_GATE, GAUSSIAN, psi, PropagationConfig())


def test_fidelity_invariant_under_input_global_phase():
    cfg = PropagationConfig()
    psi = INPUT_STATES["y+"]
    base = gate_outcome(TRANSMON, NOT_GATE, GAUSSIAN, psi, cfg).fidelity
    rotated = gate_outcome(TRANSMON, NOT_GATE, GAUSSIAN, np.exp(0.9j) * psi, cfg).fidelity
    assert base == pytest.approx(rotated, abs=1e-12)


def test_near_identity_limit_hadamard():
    # tiny transition frequencies: the evolution is identity-like, so the
    # overlap is |<0|H|0>| = 1/sqrt(2)
    cfg = PropagationConfig()
    sys = LambdaSystem(1e6, 1e6)
    fid = gate_outcome(sys, HADAMARD_GATE, GAUSSIAN, INPUT_STATES["0"], cfg).fidelity
    assert abs(fid - 0.7071) < 5e-3


def test_near_identity_limit_not():
    cfg = PropagationConfig()
    sys = LambdaSystem(1e6, 1e6)
    fid = gate_outcome(sys, NOT_GATE, GAUSSIAN, INPUT_STATES["0"], cfg).fidelity
    assert fid < 0.01  # the overlap vanishes for a NOT on |0>


def test_gate_outcome_diagnostics():
    cfg = PropagationConfig()
    out = gate_outcome(TRANSMON, NOT_GATE, GAUSSIAN, INPUT_STATES["0"], cfg)
    assert 0.0 <= out.fidelity <= 1.0 + 1e-9
    assert 0.0 <= out.excited_population <= 1.0
    assert -math.pi <= out.overlap_phase <= math.pi


def averaged_not_fidelity(tau_ns, cfg):
    """NOT fidelity averaged over the canonical inputs, by the library's one averaging path."""
    (point,) = duration_average_sweep([tau_ns], (NOT_GATE,), cfg=cfg)
    return point.fidelity


def test_average_fidelity_rwa():
    fid = averaged_not_fidelity(40.0, PropagationConfig(mode="rwa"))
    assert abs(fid - 1.0) < 1e-6


def test_average_fidelity_plateau():
    fid = averaged_not_fidelity(100.0, PropagationConfig())
    assert fid >= 0.998


@pytest.mark.xfail(
    strict=True,
    reason="short-pulse breakdown at the stated transmon frequencies is not "
    "produced by the resonant two-tone Hamiltonian; the exact-dynamics value "
    "stays above 0.99",
)
def test_average_fidelity_short_pulse_breakdown():
    fid = averaged_not_fidelity(2.5, PropagationConfig())
    assert fid < 0.9
