import math

import numpy as np
import pytest

from lambda_holo.dynamics import (
    MIN_STEPS,
    LambdaSystem,
    PropagationConfig,
    TRANSMON,
    _step_unitaries,
    hamiltonian_at,
    num_steps,
    propagate_sequence,
    propagator,
    time_ordered_product,
)
from lambda_holo.gates import (
    HADAMARD_GATE,
    INPUT_STATES,
    NOT_GATE,
    bright_state,
    dark_state,
    drive_for_gate,
    ideal_gate,
)
from lambda_holo.pulses import DriveSpec, envelope
from lambda_holo.qstate import KET_0, expm_unitary, hermitian_defect, overlap

NS = 1e-9
RNG = np.random.default_rng(8271)


def gaussian_drive(tau_ns=40.0, gate=NOT_GATE):
    return drive_for_gate(gate, envelope("gaussian", tau_ns * NS))


def fidelity(sys, gate, drive, psi0, cfg):
    exact = propagate_sequence(sys, [drive], psi0, cfg)
    return abs(overlap(ideal_gate(gate) @ psi0, exact))


def test_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(mode="exact")
    with pytest.raises(ValueError):
        PropagationConfig(steps_per_cycle=4)
    with pytest.raises(ValueError):
        LambdaSystem(-1.0, 1.0)


def test_num_steps_rule():
    cfg = PropagationConfig()
    assert MIN_STEPS == 2000
    assert num_steps(LambdaSystem(0.0, 0.0), 40 * NS, cfg) == MIN_STEPS
    # 40 samples per counter-rotating period pi/f_max
    sys = LambdaSystem(1e10, 5e9)
    expected = math.ceil(40 * 40 * NS * 2e10 / (2 * math.pi))
    assert num_steps(sys, 40 * NS, cfg) == expected
    assert num_steps(sys, 1 * NS, cfg) == MIN_STEPS


def test_hamiltonian_is_hermitian():
    drive = gaussian_drive()
    for t_ns in (3.0, 17.5, 20.0, 39.0):
        h = hamiltonian_at(TRANSMON, drive, t_ns * NS, "full")
        assert hermitian_defect(h) == 0.0
        assert h[0, 0] == h[1, 1] == h[2, 2] == 0.0


def test_zero_frequency_doubles_coupling():
    # 1 + e^0 = 2: the coupling is twice the rotating-wave value
    drive = gaussian_drive()
    sys0 = LambdaSystem(0.0, 0.0)
    t = 13.7 * NS
    full = hamiltonian_at(sys0, drive, t, "full")
    rwa = hamiltonian_at(sys0, drive, t, "rwa")
    assert np.abs(full - 2.0 * rwa).max() < 1e-12 * np.abs(full).max()


def test_rwa_entry_is_bare_drive():
    drive = gaussian_drive()
    t = 9.3 * NS
    h = hamiltonian_at(TRANSMON, drive, t, "rwa")
    assert h[2, 0] == drive.omega0(t)
    assert h[2, 1] == drive.omega1(t)


def test_full_mode_phase_cancellation():
    # at t = pi/(2 fe0) the factor 1 + e^{-i pi} vanishes on the (e,0) entry
    drive = gaussian_drive()
    sys = LambdaSystem(fe0=2e8, fe1=3e8)
    t = math.pi / (2 * sys.fe0)
    h = hamiltonian_at(sys, drive, t, "full")
    assert abs(h[2, 0]) < 1e-12 * abs(h[2, 1])


def test_pulse_start_separates_envelope_and_phase_clocks():
    drive = gaussian_drive()
    sys = LambdaSystem(1e9, 1e9)
    t0 = 25 * NS
    shifted = hamiltonian_at(sys, drive, t0 + 5 * NS, "full", pulse_start=t0)
    base = hamiltonian_at(sys, drive, 5 * NS, "full", pulse_start=0.0)
    # same envelope sample, different carrier phase
    assert abs(abs(shifted[2, 0] / base[2, 0])) != pytest.approx(0.0)
    assert shifted[2, 0] != base[2, 0]
    rwa_shifted = hamiltonian_at(sys, drive, t0 + 5 * NS, "rwa", pulse_start=t0)
    rwa_base = hamiltonian_at(sys, drive, 5 * NS, "rwa", pulse_start=0.0)
    assert rwa_shifted[2, 0] == pytest.approx(rwa_base[2, 0], rel=1e-12)


def test_step_unitaries_match_eigendecomposition_route():
    # closed-form batch exponential vs the generic Hermitian route
    n = 64
    w0 = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    w1 = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    w0[5] = w1[5] = 0.0  # idle step
    h = 0.3
    batch = _step_unitaries(w0, w1, h)
    for k in range(n):
        m = np.zeros((3, 3), dtype=complex)
        m[2, 0], m[2, 1] = w0[k], w1[k]
        m[0, 2], m[1, 2] = np.conj(w0[k]), np.conj(w1[k])
        assert np.abs(batch[k] - expm_unitary(m, h)).max() < 1e-12


def test_time_ordered_product_ordering():
    us = _step_unitaries(
        RNG.normal(size=5) + 1j * RNG.normal(size=5),
        RNG.normal(size=5) + 1j * RNG.normal(size=5),
        0.7,
    )
    sequential = np.eye(3, dtype=complex)
    for u in us:
        sequential = u @ sequential
    assert np.abs(time_ordered_product(us) - sequential).max() < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1001])
def test_time_ordered_product_matches_sequential_loop(n):
    # odd counts leave a carried factor at one or more levels of the reduction
    us = _step_unitaries(
        RNG.normal(size=n) + 1j * RNG.normal(size=n),
        RNG.normal(size=n) + 1j * RNG.normal(size=n),
        0.7,
    )
    sequential = np.eye(3, dtype=complex)
    for u in us:
        sequential = u @ sequential
    for stack in (us, np.ascontiguousarray(us)):  # component view and plain (n, 3, 3) stack
        assert np.abs(time_ordered_product(stack) - sequential).max() < 1e-13


def test_rwa_pulse_realizes_ideal_gate():
    cfg = PropagationConfig(mode="rwa")
    drive = gaussian_drive()
    out = propagate_sequence(TRANSMON, [drive], KET_0, cfg)
    ideal = ideal_gate(NOT_GATE) @ KET_0
    assert abs(abs(overlap(ideal, out)) - 1.0) < 1e-6


def test_rwa_holds_for_all_envelope_kinds():
    cfg = PropagationConfig(mode="rwa")
    for kind in ("gaussian", "sech", "parabola", "sin2", "square"):
        drive = drive_for_gate(HADAMARD_GATE, envelope(kind, 40 * NS))
        out = propagate_sequence(TRANSMON, [drive], INPUT_STATES["y+"], cfg)
        ideal = ideal_gate(HADAMARD_GATE) @ INPUT_STATES["y+"]
        assert abs(abs(overlap(ideal, out)) - 1.0) < 1e-6


def test_table_frequency_extremes():
    cfg = PropagationConfig()
    drive = gaussian_drive()
    high = fidelity(LambdaSystem(1e10, 1e10), NOT_GATE, drive, KET_0, cfg)
    assert abs(high - 1.0000) < 5e-4
    low = fidelity(LambdaSystem(1e6, 1e6), NOT_GATE, drive, KET_0, cfg)
    assert abs(low - 0.0037) < 5e-3


# values from the step-refinement oracle (steps_per_cycle 160, cross-checked
# against an adaptive RK integration during development)
FROZEN = [
    (LambdaSystem(1e8, 1e8), NOT_GATE, 0.854266986, 1e-5),
    (LambdaSystem(1e8, 1e8), HADAMARD_GATE, 0.790273024, 1e-5),
    (LambdaSystem(5e8, 5e8), NOT_GATE, 0.975000425, 1e-5),
    (TRANSMON, NOT_GATE, 0.999995125, 2e-5),
]


@pytest.mark.parametrize("sys,gate,expected,tol", FROZEN)
def test_frozen_refinement_values(sys, gate, expected, tol):
    cfg = PropagationConfig()
    assert fidelity(sys, gate, gaussian_drive(gate=gate), KET_0, cfg) == pytest.approx(
        expected, abs=tol
    )


def test_output_norm_is_preserved():
    cfg = PropagationConfig()
    for sys in (TRANSMON, LambdaSystem(1e8, 1e8), LambdaSystem(0.0, 0.0)):
        out = propagate_sequence(sys, [gaussian_drive()], INPUT_STATES["x+"], cfg)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9


def test_propagate_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        propagate_sequence(TRANSMON, [gaussian_drive()], [1.0, 1.0, 0.0], PropagationConfig())


def test_sequence_empty_is_identity():
    psi = INPUT_STATES["y+"]
    assert np.array_equal(propagate_sequence(TRANSMON, [], psi, PropagationConfig()), psi)


def test_rwa_double_not_is_identity():
    cfg = PropagationConfig(mode="rwa")
    drive = gaussian_drive()
    out = propagate_sequence(TRANSMON, [drive, drive], KET_0, cfg)
    assert abs(abs(overlap(KET_0, out)) - 1.0) < 1e-6


def test_sequence_uses_continuous_carrier():
    # the second pulse must see absolute time, so applying the propagators with
    # shifted starts reproduces the sequence exactly; a per-pulse reset (both
    # starts at 0) differs in full mode
    cfg = PropagationConfig()
    sys = LambdaSystem(3e8, 2e8)
    d1 = gaussian_drive()
    d2 = drive_for_gate(HADAMARD_GATE, envelope("gaussian", 40 * NS))
    seq = propagate_sequence(sys, [d1, d2], KET_0, cfg)
    first = propagator(sys, d1, cfg, pulse_start=0.0) @ KET_0
    assert np.array_equal(seq, propagator(sys, d2, cfg, pulse_start=40 * NS) @ first)
    reset = propagator(sys, d2, cfg, pulse_start=0.0) @ first
    assert np.abs(seq - reset).max() > 1e-4


def test_degenerate_limit_equals_doubled_rwa():
    # f = 0 in full mode is the rotating-wave evolution with twice the drive
    env = envelope("gaussian", 40 * NS)
    doubled = env.with_amplitude(2 * env.amplitude)
    for gate in (NOT_GATE, HADAMARD_GATE):
        d_full = drive_for_gate(gate, env)
        d_rwa = DriveSpec(envelope=doubled, c0=d_full.c0, c1=d_full.c1)
        sys0 = LambdaSystem(0.0, 0.0)
        for label in ("0", "x+", "y+"):
            psi = INPUT_STATES[label]
            full = propagate_sequence(sys0, [d_full], psi, PropagationConfig(mode="full"))
            rwa = propagate_sequence(sys0, [d_rwa], psi, PropagationConfig(mode="rwa"))
            assert np.abs(full - rwa).max() < 1e-8


def test_dark_state_invariance_rwa():
    cfg = PropagationConfig(mode="rwa")
    for theta, phi in ((0.3, 0.0), (1.1, -2.0), (2.6, 1.4)):
        from lambda_holo.gates import GateSpec

        gate = GateSpec(theta=theta, phi=phi)
        drive = drive_for_gate(gate, envelope("sin2", 40 * NS))
        dark = dark_state(gate)
        out = propagate_sequence(TRANSMON, [drive], dark, cfg)
        assert abs(abs(overlap(dark, out)) - 1.0) < 1e-8
        bright = bright_state(gate)
        out_b = propagate_sequence(TRANSMON, [drive], bright, cfg)
        ov = overlap(bright, out_b)
        assert abs(abs(ov) - 1.0) < 1e-8
        assert abs(abs(np.angle(ov)) - math.pi) < 1e-6  # sign flip of the bright state


def test_amplitude_convergence_under_refinement():
    # doubling the per-cycle sampling changes output amplitudes below 1e-6:
    # measured to require a base of 160 samples per counter-rotating period in
    # the plateau regime and 320 in the short-pulse breakdown regime
    for kind, tau_ns, base in (("gaussian", 40.0, 160), ("square", 2.5, 320)):
        drive = drive_for_gate(NOT_GATE, envelope(kind, tau_ns * NS))
        coarse, fine = (
            propagate_sequence(TRANSMON, [drive], KET_0, PropagationConfig(steps_per_cycle=n))
            for n in (base, 2 * base)
        )
        assert np.abs(coarse - fine).max() < 1e-6
