import math
import threading
import warnings
from dataclasses import replace
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest

from lambda_holo import dynamics
from lambda_holo.cli import main
from lambda_holo.dynamics import (
    CHUNK_STEPS,
    MAX_STEPS,
    MIN_STEPS,
    MODES,
    LambdaSystem,
    PropagationConfig,
    TRANSMON,
    _MATMUL_BELOW,
    _PHASE_BLOCK,
    _coupling_weights,
    _rotation,
    _step_unitaries,
    num_steps,
    propagator,
    time_ordered_product,
)
from lambda_holo.gates import (
    AVERAGE_INPUT_LABELS,
    HADAMARD_GATE,
    INPUT_STATES,
    NOT_GATE,
    GateSpec,
    drive_for_gate,
    gate_outcome,
    ideal_gate,
    unitary_outcome,
)
from lambda_holo.pulses import ENVELOPE_KINDS, DriveSpec, Envelope, envelope
from lambda_holo.qstate import NumericalContractError
from lambda_holo.sweeps import FIG1_DURATIONS_NS, sequence_sweep
from oracles import (
    bright_state,
    dark_state,
    expm_unitary,
    hamiltonian,
    hermitian_defect,
    sequence_propagator,
)

NS = 1e-9
RNG = np.random.default_rng(8271)


def gaussian_drive(tau_ns=40.0, gate=NOT_GATE):
    return drive_for_gate(gate, envelope("gaussian", tau_ns * NS))


def fidelity(sys, gate, drive, psi0, cfg):
    exact = propagator(sys, drive, cfg) @ psi0
    return abs(np.vdot(ideal_gate(gate) @ psi0, exact))


def test_config_validation():
    with pytest.raises(ValueError):
        PropagationConfig(mode="exact")
    for bad in (4, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="steps_per_cycle"):
            PropagationConfig(steps_per_cycle=bad)
    with pytest.raises(ValueError):
        LambdaSystem(-1.0, 1.0)


def old_num_steps(sys, tau, cfg):
    """The step count of the fixed floor: max(MIN_STEPS, the carrier count)."""
    carrier = math.ceil(cfg.steps_per_cycle * tau * 2 * max(sys.fe0, sys.fe1) / (2 * math.pi))
    return max(MIN_STEPS, carrier)


def test_num_steps_rule():
    cfg = PropagationConfig()
    assert MIN_STEPS == 1000
    zero = LambdaSystem(0.0, 0.0)
    # the base of the floor, for a full-window envelope and for time_scale=None alike
    assert num_steps(zero, 40 * NS, cfg) == 64
    assert num_steps(zero, 40 * NS, cfg, 40 * NS) == 64
    # the envelope term, 4 tau / scale, up to the cap MIN_STEPS
    assert num_steps(zero, 40 * NS, cfg, 1 * NS) == 4 * 40
    assert num_steps(zero, 40 * NS, cfg, 0.02 * NS) == MIN_STEPS
    # the phase term, 256 (f_max tau)^(3/8) (tau / scale)^(1/2)
    slow = LambdaSystem(1e9, 5e8)
    assert num_steps(slow, 1 * NS, cfg) == 256
    assert num_steps(slow, 1 * NS, cfg, 0.25 * NS) == 512
    assert num_steps(slow, 8 * NS, cfg) == math.ceil(256 * 8**0.375)
    # 8 CF4 steps per counter-rotating period pi/f_max, above the cap
    sys = LambdaSystem(1e10, 5e9)
    expected = math.ceil(8 * 40 * NS * 2e10 / (2 * math.pi))
    assert num_steps(sys, 40 * NS, cfg) == expected
    # a finer steps_per_cycle scales every term of the floor below the cap
    fine = PropagationConfig(steps_per_cycle=16)
    assert num_steps(zero, 40 * NS, fine) == 128
    assert num_steps(slow, 1 * NS, fine) == 512
    assert num_steps(zero, 40 * NS, fine, 1 * NS) == 2 * 4 * 40
    assert num_steps(zero, 40 * NS, fine, 0.1 * NS) == MIN_STEPS


@pytest.mark.parametrize("kind", ENVELOPE_KINDS)
def test_transmon_step_counts_are_unchanged(kind):
    # x = f_max tau >= 50.8 over 1-100 ns puts the phase term above the cap, so a
    # transmon pulse there keeps max(MIN_STEPS, carrier) steps and its propagator's bits
    durations = [*FIG1_DURATIONS_NS, *np.logspace(0.0, 2.0, 2001)]
    for spc in (8, 16, 80):
        cfg = PropagationConfig(steps_per_cycle=spc)
        for tau_ns in durations:
            env = envelope(kind, tau_ns * NS)
            n = num_steps(TRANSMON, env.tau, cfg, env.time_scale)
            assert n == old_num_steps(TRANSMON, env.tau, cfg)


def outcome_table(u, gate):
    """(fidelity, excited population) of each input state, as rows."""
    return np.array([
        (o.fidelity, o.excited_population)
        for o in (unitary_outcome(u, ideal_gate(gate), psi) for psi in INPUT_STATES.values())
    ])


# The validation space of the floor: every kind, Gaussian fwhm_fraction from 0.0016 to 1 and
# sech_beta from 0.5 to 538, f_max tau from 0 to 380 (the carrier count reaches MIN_STEPS
# at 392.7), fe1/fe0 ratios above and below 1, several gates, every input, and pulse
# starts 0 and tau.
FLOOR_ENVELOPES = [
    *(("gaussian", w) for w in (0.0016, 0.01, 0.03, 0.25, 1.0)),
    *(("sech", b) for b in (0.5, 5.3, 20.0, 538.0)),
    ("parabola", None),
    ("sin2", None),
    ("square", None),
]
FLOOR_PHASES = (0.0, 0.004, 0.3, 3.0, 12.0, 35.0, 380.0)
FLOOR_RATIOS = (TRANSMON.fe1 / TRANSMON.fe0, 0.3, 1.0, 1.7)
FLOOR_GATES = (NOT_GATE, HADAMARD_GATE, GateSpec(theta=0.7, phi=-1.1))


@pytest.mark.parametrize("kind,width", FLOOR_ENVELOPES)
def test_floor_loses_no_accuracy_and_refuses_nothing(kind, width, monkeypatch):
    # against 4x the fixed floor's count: the floor's count never exceeds the fixed
    # floor's, resolves every envelope that count resolved, and errs by at most
    # max(1e-9, 2x the fixed floor's error) in every input's fidelity and excited population
    cfg = PropagationConfig()
    forced = {}
    monkeypatch.setattr(dynamics, "num_steps", lambda *args: forced["n"])

    def build(n, sys, drive, start):
        forced["n"] = n
        try:
            return propagator(sys, drive, cfg, pulse_start=start)
        except NumericalContractError:
            return None

    for i, x in enumerate(FLOOR_PHASES):
        tau = (1.0, 40.0, 100.0)[i % 3] * NS
        env = envelope(kind, tau, fwhm_fraction=width or 0.25, sech_beta=width or 5.3)
        ratio = FLOOR_RATIOS[i % len(FLOOR_RATIOS)]
        f_max = x / tau
        fe0, fe1 = (f_max, ratio * f_max) if ratio <= 1 else (f_max / ratio, f_max)
        sys = LambdaSystem(fe0, fe1)
        gate = FLOOR_GATES[i % len(FLOOR_GATES)]
        drive = drive_for_gate(gate, env)
        n_old = old_num_steps(sys, tau, cfg)
        n = num_steps(sys, tau, cfg, env.time_scale)
        assert n <= n_old == MIN_STEPS
        for start in (0.0, tau):
            before = build(n_old, sys, drive, start)
            if before is None:
                continue  # refused by the fixed floor too
            after = build(n, sys, drive, start)
            assert after is not None, (kind, width, x, n)
            ref = outcome_table(build(4 * n_old, sys, drive, start), gate)
            err_old = np.abs(outcome_table(before, gate) - ref).max(axis=0)
            err_new = np.abs(outcome_table(after, gate) - ref).max(axis=0)
            assert (err_new <= np.maximum(1e-9, 2 * err_old)).all(), (kind, width, x, n, err_new)


def test_num_steps_rwa_is_one_rotation():
    cfg = PropagationConfig(mode="rwa")
    for sys in (LambdaSystem(0.0, 0.0), TRANSMON, LambdaSystem(1e15, 1e15)):
        for tau in (1 * NS, 40 * NS, 100 * NS):
            assert num_steps(sys, tau, cfg) == 1


def test_hamiltonian_is_hermitian():
    drive = gaussian_drive()
    for t_ns in (3.0, 17.5, 20.0, 39.0):
        h = hamiltonian(TRANSMON, drive, t_ns * NS, "full")
        assert hermitian_defect(h) == 0.0
        assert h[0, 0] == h[1, 1] == h[2, 2] == 0.0


def test_zero_frequency_doubles_coupling():
    # 1 + e^0 = 2: the coupling is twice the rotating-wave value
    drive = gaussian_drive()
    sys0 = LambdaSystem(0.0, 0.0)
    t = 13.7 * NS
    full = hamiltonian(sys0, drive, t, "full")
    rwa = hamiltonian(sys0, drive, t, "rwa")
    assert np.abs(full - 2.0 * rwa).max() < 1e-12 * np.abs(full).max()


def test_rwa_entry_is_bare_drive():
    drive = gaussian_drive()
    t = 9.3 * NS
    h = hamiltonian(TRANSMON, drive, t, "rwa")
    assert h[2, 0] == drive.c0 * drive.envelope.evaluate(t)
    assert h[2, 1] == drive.c1 * drive.envelope.evaluate(t)


def test_full_mode_phase_cancellation():
    # at t = pi/(2 fe0) the factor 1 + e^{-i pi} vanishes on the (e,0) entry
    drive = gaussian_drive()
    sys = LambdaSystem(fe0=2e8, fe1=3e8)
    t = math.pi / (2 * sys.fe0)
    h = hamiltonian(sys, drive, t, "full")
    assert abs(h[2, 0]) < 1e-12 * abs(h[2, 1])


def test_pulse_start_separates_envelope_and_phase_clocks():
    drive = gaussian_drive()
    sys = LambdaSystem(1e9, 1e9)
    t0 = 25 * NS
    shifted = hamiltonian(sys, drive, t0 + 5 * NS, "full", pulse_start=t0)
    base = hamiltonian(sys, drive, 5 * NS, "full", pulse_start=0.0)
    # same envelope sample, different carrier phase
    assert abs(abs(shifted[2, 0] / base[2, 0])) != pytest.approx(0.0)
    assert shifted[2, 0] != base[2, 0]
    rwa_shifted = hamiltonian(sys, drive, t0 + 5 * NS, "rwa", pulse_start=t0)
    rwa_base = hamiltonian(sys, drive, 5 * NS, "rwa", pulse_start=0.0)
    assert rwa_shifted[2, 0] == pytest.approx(rwa_base[2, 0], rel=1e-12)


@pytest.mark.parametrize(
    "n", [1, _PHASE_BLOCK - 1, _PHASE_BLOCK, _PHASE_BLOCK + 1, 3 * _PHASE_BLOCK + 5]
)
@pytest.mark.parametrize("t0", [0.0, 37 * NS, 10_000 * NS])
def test_phase_table_matches_per_step_phases(n, t0):
    # the outer[q] * inner[r] table against exp(-2i f t_k) taken step by step, in both CF4
    # combinations of the node weights; at t0 = 10 us the phases 2 fe0 t reach 1.0e6 rad
    drive = drive_for_gate(HADAMARD_GATE, envelope("gaussian", 40 * NS))
    h = 40 * NS / 25876
    a1, a2 = 0.25 + math.sqrt(3) / 6, 0.25 - math.sqrt(3) / 6
    starts = t0 + np.array([0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6]) * h
    a = drive.envelope.amplitude * RNG.uniform(0.5, 1.0, (2, n))
    out = _coupling_weights(TRANSMON, drive, starts, h, a)
    assert out.shape == (2, 2 * n)
    for wj, f, c in zip(out, (TRANSMON.fe0, TRANSMON.fe1), (drive.c0, drive.c1)):
        w_minus, w_plus = (
            np.array([c * ak[k] * (1.0 + np.exp(-2j * f * (tk + k * h))) for k in range(n)])
            for ak, tk in zip(a, starts)
        )
        # bound fixed from float64 beforehand: each side rounds the phase to about an ulp
        # of the largest |2 f t|, and the unit phasors and the products with c and a add a
        # few eps; 4 ulp of max(|2 f t|, 4) covers both, as ulp(4) = 4 eps
        phase_max = 2.0 * f * (t0 + n * h)
        tol = 4 * np.spacing(max(phase_max, 4.0)) * abs(c) * a.max()
        assert np.abs(wj[0::2] - (a1 * w_minus + a2 * w_plus)).max() <= tol
        assert np.abs(wj[1::2] - (a2 * w_minus + a1 * w_plus)).max() <= tol
    # at f = 0 the factor is exactly 1 + 1; with no envelope at t+, factor 2k is A1 w-
    a[1] = 0.0
    out = _coupling_weights(LambdaSystem(0.0, 0.0), drive, starts, h, a)
    for wj, c in zip(out, (drive.c0, drive.c1)):
        assert np.array_equal(wj[0::2], 2 * c * (a1 * a[0]))


def test_step_unitaries_match_eigendecomposition_route():
    # closed-form batch exponential, and the scalar rotation of the RWA propagator, vs
    # the generic Hermitian route
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
    # the RWA rotation: unit (c0, c1) applied for a pulse area
    for _ in range(n):
        c0, c1 = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        norm = math.hypot(abs(c0), abs(c1))
        c0, c1, area = c0 / norm, c1 / norm, RNG.uniform(0.0, 4 * math.pi)
        m = np.zeros((3, 3), dtype=complex)
        m[2, 0], m[2, 1] = c0, c1
        m[0, 2], m[1, 2] = np.conj(c0), np.conj(c1)
        u = _rotation(c0, c1, area)
        assert u.flags.c_contiguous and u.shape == (3, 3)
        assert np.abs(u - expm_unitary(m, area)).max() < 1e-12


def test_rotation_is_the_batch_closed_form_bit_for_bit():
    # _rotation restates _step_unitaries in scalars, so one weight pair gives the same bits
    # either way; theta = 0 and pi are the drives with one weight exactly 0
    rng = np.random.default_rng(5023)
    cases = []
    for _ in range(200):
        c0, c1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = math.hypot(abs(c0), abs(c1))
        cases.append((c0 / norm, c1 / norm, rng.uniform(0.0, 4 * math.pi)))
    env = envelope("square", 40 * NS)
    limits = [DriveSpec.for_angles(theta, 0.7, env) for theta in (0.0, math.pi)]
    cases += [(drive.c0, drive.c1, math.pi) for drive in limits]
    for c0, c1, area in cases:
        batch = _step_unitaries(np.array([c0]), np.array([c1]), area)
        assert np.array_equal(_rotation(c0, c1, area), batch[0]), (c0, c1, area)


def test_idle_step_reads_no_stale_scratch():
    # an idle step (w = 0) is the identity, and a product does not depend on what this
    # thread's reused level buffers held before
    w0 = np.array([0.0, 1.0 + 2.0j, 0.0, 0.0])
    w1 = np.array([0.0, -0.5j, 0.0, 3.0])
    batch = _step_unitaries(w0, w1, 0.3)
    for k in (0, 2):
        assert np.array_equal(batch[k], np.eye(3))
    assert np.isfinite(batch).all()
    for n in (_MATMUL_BELOW + 1, 1001):
        ws = dynamics._workspace(n)
        ws.levels.fill(np.nan)
        ws.row.fill(np.nan)
        us = _step_unitaries(
            RNG.normal(size=n) + 1j * RNG.normal(size=n),
            RNG.normal(size=n) + 1j * RNG.normal(size=n),
            0.7,
        )
        sequential = np.eye(3, dtype=complex)
        for u in us:
            sequential = u @ sequential
        assert np.abs(time_ordered_product(us) - sequential).max() < 1e-13


@pytest.mark.parametrize(
    "n", [1, 2, 3, 5, 7, 64, _MATMUL_BELOW - 1, _MATMUL_BELOW, _MATMUL_BELOW + 1, 1001]
)
def test_time_ordered_product_matches_sequential_loop(n):
    # odd counts leave a carried factor at one or more levels of the reduction;
    # levels below _MATMUL_BELOW factors go to np.matmul
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


def system_for_steps(n, tau=40 * NS):
    """A system whose default full-mode step count over tau is n (n >= MIN_STEPS)."""
    f = (n - 0.5) * 2 * math.pi / (PropagationConfig().steps_per_cycle * tau * 2)
    return LambdaSystem(f, 0.9 * f)


def cf4_stack(sys, drive, n, start):
    """The whole interleaved 2n-factor CF4 stack of a pulse, built in one pass.

    Step k samples H at its Gauss-Legendre nodes (k + 1/2 -+ sqrt(3)/6) h and
    applies exp(-i h (A1 H- + A2 H+)) at 2k, then exp(-i h (A2 H- + A1 H+)) at
    2k + 1, with A1,2 = 1/4 +- sqrt(3)/6.
    """
    h = drive.envelope.tau / n
    nodes = np.array([0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6])
    a = np.array([drive.envelope.evaluate((np.arange(n) + x) * h) for x in nodes])
    w = _coupling_weights(sys, drive, start + nodes * h, h, a)
    return _step_unitaries(w[0], w[1], h)


@pytest.mark.parametrize(
    "n",
    [
        MIN_STEPS,
        CHUNK_STEPS // 2 - 1,
        CHUNK_STEPS // 2,
        CHUNK_STEPS // 2 + 1,
        CHUNK_STEPS - 1,
        CHUNK_STEPS,
        CHUNK_STEPS + 1,
        2 * CHUNK_STEPS + 1,
    ],
)
def test_chunked_propagator_matches_whole_stack(n):
    # the chunk loop (CHUNK_STEPS factors, CHUNK_STEPS // 2 steps per chunk) against one
    # product over the whole interleaved stack of 2n factors at once
    tau = 40 * NS
    sys = system_for_steps(n, tau)
    cfg = PropagationConfig()
    assert num_steps(sys, tau, cfg) == n
    drive = drive_for_gate(HADAMARD_GATE, envelope("gaussian", tau))
    for start in (0.0, 37 * NS):
        whole = time_ordered_product(cf4_stack(sys, drive, n, start))
        assert np.abs(propagator(sys, drive, cfg, pulse_start=start) - whole).max() < 1e-13


def test_concurrent_builds_match_sequential_builds():
    # every thread has its own workspace, so builds that interleave give the same bits
    tau = 40 * NS
    cfg = PropagationConfig()
    jobs = [
        (system_for_steps(n, tau), drive_for_gate(gate, envelope(kind, tau)), start)
        for n, gate, kind, start in (
            (MIN_STEPS, NOT_GATE, "gaussian", 0.0),
            (CHUNK_STEPS // 2 + 1, HADAMARD_GATE, "sin2", 40 * NS),
            (2 * CHUNK_STEPS + 1, NOT_GATE, "sech", 0.0),
            (CHUNK_STEPS // 2 - 1, HADAMARD_GATE, "square", 13 * NS),
        )
    ]
    expected = [propagator(sys, drive, cfg, pulse_start=start) for sys, drive, start in jobs]
    results = {}

    def build(i):
        sys, drive, start = jobs[i]
        results[i] = [propagator(sys, drive, cfg, pulse_start=start) for _ in range(3)]

    threads = [threading.Thread(target=build, args=(i,)) for i in range(len(jobs))]
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, want in enumerate(expected):
        assert len(results[i]) == 3
        for got in results[i]:
            assert np.array_equal(got, want)


def test_kept_workspace_is_bounded():
    # a stack longer than a chunk is multiplied in a workspace the thread does not keep
    n = 2 * CHUNK_STEPS + 1
    us = _step_unitaries(RNG.normal(size=n) + 0j, RNG.normal(size=n) + 0j, 0.7)
    time_ordered_product(us)
    drive = drive_for_gate(NOT_GATE, envelope("gaussian", 100 * NS))
    propagator(TRANSMON, drive, PropagationConfig())  # 12,938 steps in 2 chunks
    kept = dynamics._workspace(1)
    assert kept.size <= CHUNK_STEPS
    arrays = [a for a in vars(kept).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == CHUNK_STEPS * 312


def test_step_cap_refuses_before_building(monkeypatch):
    def no_workspace(size):
        raise AssertionError("a refused step count builds no arrays")

    tau = 40 * NS
    cfg = PropagationConfig()
    assert num_steps(system_for_steps(MAX_STEPS, tau), tau, cfg) == MAX_STEPS
    over = system_for_steps(MAX_STEPS + 1, tau)
    # the RWA propagator has no step grid, so no cap
    assert propagator(over, gaussian_drive(), PropagationConfig(mode="rwa")).shape == (3, 3)
    monkeypatch.setattr(dynamics, "_workspace", no_workspace)
    with pytest.raises(NumericalContractError, match=f"need {MAX_STEPS + 1} steps, above the cap"):
        propagator(over, gaussian_drive(), cfg)


def test_nonfinite_propagator_is_a_contract_violation(monkeypatch, capsys):
    # a NaN unitarity defect fails the contract (exit 1), not a configuration check (exit 2)
    monkeypatch.setattr(dynamics, "_rotation", lambda *args: np.full((3, 3), np.nan, complex))
    with pytest.raises(NumericalContractError, match="unitarity defect nan"):
        propagator(TRANSMON, gaussian_drive(), PropagationConfig(mode="rwa"))
    assert main(["run", "--mode", "rwa"]) == 1
    assert "numerical contract violated" in capsys.readouterr().err


@pytest.mark.parametrize("sys", [LambdaSystem(0.0, 0.0), LambdaSystem(2e12, TRANSMON.fe1)])
def test_unresolved_envelope_is_refused_before_any_step(sys, monkeypatch):
    # one chunk (the MIN_STEPS floor) and 25 chunks: the area is checked before any
    # weights or unitaries are built
    def no_steps(*args, **kwargs):
        raise AssertionError("an unresolved envelope builds no steps")

    monkeypatch.setattr(dynamics, "_coupling_weights", no_steps)
    monkeypatch.setattr(dynamics, "_step_unitaries", no_steps)
    drive = drive_for_gate(NOT_GATE, envelope("gaussian", 40 * NS, fwhm_fraction=1e-7))
    with pytest.raises(NumericalContractError, match="the envelope is not resolved"):
        propagator(sys, drive, PropagationConfig())


@pytest.mark.parametrize("mode", MODES)
def test_nonfinite_pulse_start_is_refused_before_any_step(mode, monkeypatch):
    # a configuration error (exit 2), raised before any sample, phase or rotation is formed
    def nothing_built(*args, **kwargs):
        raise AssertionError("a non-finite pulse start builds nothing")

    for name in ("_workspace", "_node_envelope", "_rotation"):
        monkeypatch.setattr(dynamics, name, nothing_built)
    for start in (float("nan"), float("inf"), -float("inf")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="pulse_start must be finite"):
                propagator(TRANSMON, gaussian_drive(), PropagationConfig(mode=mode), start)


@pytest.mark.parametrize("tau_ns,chunks", [(40.0, 1), (100.0, 2)])
def test_weights_stage_is_one_call_per_chunk(tau_ns, chunks, monkeypatch):
    # _coupling_weights is the whole weights stage: the per-layer trace, which wraps it by
    # name, covers all weight work only if the step unitaries take the rows it returned
    weights, rows = [], []
    coupling_weights, step_unitaries = dynamics._coupling_weights, dynamics._step_unitaries

    def traced_weights(*args):
        weights.append(coupling_weights(*args))
        return weights[-1]

    def traced_steps(w0, w1, h, out=None):
        rows.append((w0, w1))
        return step_unitaries(w0, w1, h, out=out)

    monkeypatch.setattr(dynamics, "_coupling_weights", traced_weights)
    monkeypatch.setattr(dynamics, "_step_unitaries", traced_steps)
    drive = gaussian_drive(tau_ns)
    n = num_steps(TRANSMON, drive.envelope.tau, PropagationConfig())
    assert -(-2 * n // CHUNK_STEPS) == chunks
    propagator(TRANSMON, drive, PropagationConfig())
    assert len(weights) == len(rows) == chunks
    for w, pair in zip(weights, rows):
        for wj, row in zip(w, pair):
            assert np.shares_memory(row, wj) and np.array_equal(row, wj)


@pytest.mark.parametrize(
    "n,sampled",
    [
        (MIN_STEPS, [2 * MIN_STEPS]),
        (CHUNK_STEPS, [CHUNK_STEPS] * 4),
        (CHUNK_STEPS + 1, [CHUNK_STEPS, CHUNK_STEPS, 2] * 2),
        (CHUNK_STEPS // 2, [CHUNK_STEPS]),
        (CHUNK_STEPS // 2 + 1, [CHUNK_STEPS, 2, CHUNK_STEPS, 2]),
    ],
)
def test_envelope_sampled_once_for_one_chunk(n, sampled, monkeypatch):
    # two node samples per step; a one-chunk pulse steps with the samples of its area
    # check, and a longer one samples each chunk again, so that memory stays bounded by
    # one chunk
    calls = []
    evaluate = Envelope.evaluate

    def counted(self, t):
        calls.append(len(t))
        return evaluate(self, t)

    monkeypatch.setattr(Envelope, "evaluate", counted)
    tau = 40 * NS
    drive = drive_for_gate(NOT_GATE, envelope("sin2", tau))
    propagator(system_for_steps(n, tau), drive, PropagationConfig())
    assert calls == sampled


def test_rwa_pulse_realizes_ideal_gate():
    cfg = PropagationConfig(mode="rwa")
    drive = gaussian_drive()
    out = propagator(TRANSMON, drive, cfg) @ INPUT_STATES["0"]
    ideal = ideal_gate(NOT_GATE) @ INPUT_STATES["0"]
    assert abs(abs(np.vdot(ideal, out)) - 1.0) < 1e-6


def test_rwa_holds_for_all_envelope_kinds():
    cfg = PropagationConfig(mode="rwa")
    for kind in ("gaussian", "sech", "parabola", "sin2", "square"):
        drive = drive_for_gate(HADAMARD_GATE, envelope(kind, 40 * NS))
        out = propagator(TRANSMON, drive, cfg) @ INPUT_STATES["y+"]
        ideal = ideal_gate(HADAMARD_GATE) @ INPUT_STATES["y+"]
        assert abs(abs(np.vdot(ideal, out)) - 1.0) < 1e-6


def _midpoint_rwa_product(drive, n, pulse_start):
    """The stepped RWA propagator: n midpoint steps on the pulse's own clock.

    Returns the product and the sampled pulse area h * sum(a_k).
    """
    h = drive.envelope.tau / n
    t_mid = pulse_start + (np.arange(n) + 0.5) * h
    a = drive.envelope.evaluate(t_mid - pulse_start)
    return time_ordered_product(_step_unitaries(drive.c0 * a, drive.c1 * a, h)), h * a.sum()


@pytest.mark.parametrize("kind", ENVELOPE_KINDS)
@pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, 3 * math.pi / 4, math.pi])
def test_rwa_closed_form_matches_midpoint_product(kind, theta):
    # H(t) = a(t) K commutes at all times, so n midpoint steps multiply to
    # exp(-i sampled_area K): the closed form differs from the stepped product
    # only by the quadrature residue of the area, and not at all once the
    # samples are rescaled to the exact area
    cfg = PropagationConfig(mode="rwa")
    env = envelope(kind, 2.5 * NS)
    for phi in (-math.pi, -1.1, 0.0, 0.4, math.pi):
        for scaled in (env, replace(env, amplitude=2 * env.amplitude)):
            drive = DriveSpec.for_angles(theta, phi, scaled)
            for start in (0.0, 37 * NS):
                closed = propagator(TRANSMON, drive, cfg, pulse_start=start)
                assert closed.flags.c_contiguous and closed.shape == (3, 3)
                stepped, sampled = _midpoint_rwa_product(drive, MIN_STEPS, start)
                residue = abs(sampled - scaled.area)
                assert np.abs(closed - stepped).max() <= residue + 1e-12
                exact = DriveSpec(
                    replace(scaled, amplitude=scaled.amplitude * scaled.area / sampled),
                    drive.c0,
                    drive.c1,
                )
                rescaled, _ = _midpoint_rwa_product(exact, MIN_STEPS, start)
                assert np.abs(closed - rescaled).max() < 1e-12


def test_rwa_propagator_is_independent_of_system_and_start(monkeypatch):
    # no step grid: an optical-frequency system costs the same one rotation
    def no_product(unitaries):
        raise AssertionError("an RWA propagator multiplies no steps")

    monkeypatch.setattr(dynamics, "time_ordered_product", no_product)
    cfg = PropagationConfig(mode="rwa")
    for kind in ENVELOPE_KINDS:
        drive = drive_for_gate(HADAMARD_GATE, envelope(kind, 40 * NS))
        base = propagator(TRANSMON, drive, cfg)
        assert np.array_equal(propagator(LambdaSystem(1e12, 1e12), drive, cfg), base)
        assert np.array_equal(propagator(LambdaSystem(0.0, 0.0), drive, cfg, 80 * NS), base)
    with pytest.raises(AssertionError, match="multiplies no steps"):
        propagator(TRANSMON, gaussian_drive(), PropagationConfig(mode="full"))


def test_table_frequency_extremes():
    cfg = PropagationConfig()
    drive = gaussian_drive()
    high = fidelity(LambdaSystem(1e10, 1e10), NOT_GATE, drive, INPUT_STATES["0"], cfg)
    assert abs(high - 1.0000) < 5e-4
    low = fidelity(LambdaSystem(1e6, 1e6), NOT_GATE, drive, INPUT_STATES["0"], cfg)
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
    got = fidelity(sys, gate, gaussian_drive(gate=gate), INPUT_STATES["0"], cfg)
    assert got == pytest.approx(expected, abs=tol)


def test_error_falls_sixteen_fold_per_halving():
    # CF4 is fourth order: halving h divides the error by about 16, where the midpoint
    # rule it replaced gave 4.0-4.2
    drive = gaussian_drive()
    u8, u16, u64 = (
        propagator(TRANSMON, drive, PropagationConfig(steps_per_cycle=n)) for n in (8, 16, 64)
    )
    assert np.abs(u8 - u64).max() >= 12 * np.abs(u16 - u64).max()


def test_output_norm_is_preserved():
    cfg = PropagationConfig()
    for sys in (TRANSMON, LambdaSystem(1e8, 1e8), LambdaSystem(0.0, 0.0)):
        out = propagator(sys, gaussian_drive(), cfg) @ INPUT_STATES["x+"]
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-9


def test_propagate_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        gate_outcome(
            TRANSMON, NOT_GATE, gaussian_drive().envelope, [1.0, 1.0, 0.0], PropagationConfig()
        )


def test_rwa_double_not_is_identity():
    cfg = PropagationConfig(mode="rwa")
    drive = gaussian_drive()
    out = sequence_propagator(TRANSMON, [drive, drive], cfg) @ INPUT_STATES["0"]
    assert abs(abs(np.vdot(INPUT_STATES["0"], out)) - 1.0) < 1e-6


def averaged(u, ideal):
    """Fidelity and excited population over the canonical inputs, averaged as the sweeps do."""
    outs = [unitary_outcome(u, ideal, INPUT_STATES[s]) for s in AVERAGE_INPUT_LABELS]
    return np.mean([o.fidelity for o in outs]), np.mean([o.excited_population for o in outs])


def test_sequence_uses_continuous_carrier():
    # the sweep's second pulse sees absolute time: a two-pulse row is the composition
    # with the second pulse starting at tau, and the composition that restarts the
    # clock for each pulse (both starts at 0) differs in full mode
    cfg = PropagationConfig()
    sys = LambdaSystem(3e8, 2e8)
    env = envelope("gaussian", 40 * NS)
    rows = {p.coordinates["sequence"]: p for p in sequence_sweep([40.0], sys=sys, cfg=cfg)}
    for label, gates in (
        ("hadamard_then_not", (HADAMARD_GATE, NOT_GATE)),
        ("not_then_hadamard", (NOT_GATE, HADAMARD_GATE)),
    ):
        first, second = (drive_for_gate(g, env) for g in gates)
        ideal = ideal_gate(gates[1]) @ ideal_gate(gates[0])
        row = rows[label]
        got = (row.fidelity, row.excited_population)
        assert got == averaged(sequence_propagator(sys, [first, second], cfg), ideal)
        reset = averaged(propagator(sys, second, cfg) @ propagator(sys, first, cfg), ideal)
        assert abs(row.fidelity - reset[0]) > 1e-2


def test_degenerate_limit_equals_doubled_rwa():
    # f = 0 in full mode is the rotating-wave evolution with twice the drive
    env = envelope("gaussian", 40 * NS)
    doubled = replace(env, amplitude=2 * env.amplitude)
    for gate in (NOT_GATE, HADAMARD_GATE):
        d_full = drive_for_gate(gate, env)
        d_rwa = DriveSpec(envelope=doubled, c0=d_full.c0, c1=d_full.c1)
        sys0 = LambdaSystem(0.0, 0.0)
        for label in ("0", "x+", "y+"):
            psi = INPUT_STATES[label]
            full = propagator(sys0, d_full, PropagationConfig(mode="full")) @ psi
            rwa = propagator(sys0, d_rwa, PropagationConfig(mode="rwa")) @ psi
            assert np.abs(full - rwa).max() < 1e-8


def test_dark_state_invariance_rwa():
    cfg = PropagationConfig(mode="rwa")
    for theta, phi in ((0.3, 0.0), (1.1, -2.0), (2.6, 1.4)):
        gate = GateSpec(theta=theta, phi=phi)
        u = propagator(TRANSMON, drive_for_gate(gate, envelope("sin2", 40 * NS)), cfg)
        dark = dark_state(gate)
        out = u @ dark
        assert abs(abs(np.vdot(dark, out)) - 1.0) < 1e-8
        bright = bright_state(gate)
        out_b = u @ bright
        ov = np.vdot(bright, out_b)
        assert abs(abs(ov) - 1.0) < 1e-8
        assert abs(abs(np.angle(ov)) - math.pi) < 1e-6  # sign flip of the bright state


def test_amplitude_convergence_under_refinement():
    # doubling the per-cycle sampling changes output amplitudes below 1e-6:
    # measured to require a base of 160 samples per counter-rotating period in
    # the plateau regime and 320 in the short-pulse breakdown regime
    for kind, tau_ns, base in (("gaussian", 40.0, 160), ("square", 2.5, 320)):
        drive = drive_for_gate(NOT_GATE, envelope(kind, tau_ns * NS))
        coarse, fine = (
            propagator(TRANSMON, drive, PropagationConfig(steps_per_cycle=n)) @ INPUT_STATES["0"]
            for n in (base, 2 * base)
        )
        assert np.abs(coarse - fine).max() < 1e-6
