"""Property tests of the propagator.

Under the RWA a pi-area pulse of any shape and duration is the ideal gate; in
full mode every accepted pulse builds a unitary propagator that keeps the norm,
and its bits do not depend on what the thread's workspace held before. At zero
transition frequencies full mode is the RWA at twice the amplitude.
"""

import math
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from lambda_holo.dynamics import (
    CHUNK_STEPS,
    MIN_STEPS,
    TRANSMON,
    LambdaSystem,
    PropagationConfig,
    num_steps,
    propagator,
)
from lambda_holo.gates import INPUT_STATES, GateSpec, gate_outcome
from lambda_holo.pulses import ENVELOPE_KINDS, DriveSpec, envelope
from lambda_holo.qstate import NORM_TOL, UNITARY_TOL, unitarity_defect

RWA = PropagationConfig(mode="rwa")
ZERO = LambdaSystem(0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(ENVELOPE_KINDS),
    log10_tau_ns=st.floats(min_value=-140.0, max_value=3.0),
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    label=st.sampled_from(sorted(INPUT_STATES)),
)
def test_rwa_pulse_is_the_ideal_gate(kind, log10_tau_ns, theta, phi, label):
    gate = GateSpec(theta=theta, phi=phi)
    env = envelope(kind, 10.0**log10_tau_ns * 1e-9)
    out = gate_outcome(TRANSMON, gate, env, INPUT_STATES[label], RWA)
    assert abs(out.fidelity - 1.0) <= 1e-12
    assert out.excited_population <= 1e-24


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(ENVELOPE_KINDS),
    tau_ns=st.floats(min_value=1.0, max_value=40.0),
    scale=st.floats(min_value=0.0, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    label=st.sampled_from(sorted(INPUT_STATES)),
)
def test_full_propagator_is_unitary(kind, tau_ns, scale, theta, phi, label):
    sys = LambdaSystem(scale * TRANSMON.fe0, scale * TRANSMON.fe1)
    drive = DriveSpec.for_angles(theta, phi, envelope(kind, tau_ns * 1e-9))
    u = propagator(sys, drive, PropagationConfig())
    assert unitarity_defect(u) <= UNITARY_TOL
    assert abs(np.linalg.norm(u @ INPUT_STATES[label]) - 1.0) <= NORM_TOL


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(ENVELOPE_KINDS),
    log10_tau_ns=st.floats(min_value=-3.0, max_value=3.0),
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
    label=st.sampled_from(sorted(INPUT_STATES)),
)
def test_zero_frequency_full_is_rwa_at_twice_the_amplitude(kind, log10_tau_ns, theta, phi, label):
    # 1 + exp(-2i 0 t) = 2: the factors commute and multiply to exp(-i 2 (h/2) sum(a- + a+) K),
    # the RWA rotation at twice the amplitude up to the Gauss-Legendre residue of the area
    gate = GateSpec(theta=theta, phi=phi)
    env = envelope(kind, 10.0**log10_tau_ns * 1e-9)
    drive = DriveSpec.for_angles(gate.theta, gate.phi, env)
    full = propagator(ZERO, drive, PropagationConfig()) @ INPUT_STATES[label]
    n = num_steps(ZERO, env.tau, PropagationConfig(), env.time_scale)
    h = env.tau / n
    nodes = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3) / 6
    sampled = 0.5 * h * env.evaluate(((np.arange(n)[:, None] + nodes) * h).ravel()).sum()
    for amplitude, tol in (
        (2 * env.amplitude, 2 * abs(sampled - env.area) + 1e-12),
        (2 * env.amplitude * sampled / env.area, 1e-12),
    ):
        doubled = DriveSpec.for_angles(gate.theta, gate.phi, replace(env, amplitude=amplitude))
        rwa = propagator(ZERO, doubled, RWA) @ INPUT_STATES[label]
        assert np.abs(full - rwa).max() <= tol


SEAM_STEPS = [
    MIN_STEPS,
    CHUNK_STEPS - 1,
    CHUNK_STEPS,
    CHUNK_STEPS + 1,
    2 * CHUNK_STEPS - 1,
    2 * CHUNK_STEPS,
    2 * CHUNK_STEPS + 1,
    4 * CHUNK_STEPS + 1,
]
TAU = 40e-9


@settings(max_examples=30, deadline=None)
@given(
    builds=st.lists(
        st.tuples(
            st.sampled_from(SEAM_STEPS) | st.integers(MIN_STEPS, 4 * CHUNK_STEPS + 1),
            st.sampled_from(ENVELOPE_KINDS),
            st.floats(min_value=0.0, max_value=math.pi),
            st.floats(min_value=0.0, max_value=TAU),
        ),
        min_size=2,
        max_size=4,
    ),
    data=st.data(),
)
def test_full_propagator_does_not_depend_on_build_order(builds, data):
    # a workspace kept from an earlier, larger build must not leak into a later one
    cfg = PropagationConfig()
    jobs = []
    for n, kind, theta, start in builds:
        f = (n - 0.5) * 2 * math.pi / (cfg.steps_per_cycle * TAU * 2)
        sys = LambdaSystem(f, 0.9 * f)
        assert num_steps(sys, TAU, cfg) == n
        drive = DriveSpec.for_angles(theta, 0.3, envelope(kind, TAU))
        jobs.append((sys, drive, start))
    order = data.draw(st.permutations(range(len(jobs))))
    first = {i: propagator(jobs[i][0], jobs[i][1], cfg, jobs[i][2]) for i in order}
    for i in reversed(order):
        assert np.array_equal(propagator(jobs[i][0], jobs[i][1], cfg, jobs[i][2]), first[i])
