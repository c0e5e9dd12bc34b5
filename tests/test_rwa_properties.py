"""Property test of the RWA oracle: a pi-area pulse of any shape and duration is the ideal gate."""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_holo.dynamics import TRANSMON, PropagationConfig
from lambda_holo.gates import INPUT_STATES, GateSpec, drive_for_gate, gate_outcome
from lambda_holo.pulses import ENVELOPE_KINDS, envelope

RWA = PropagationConfig(mode="rwa")


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
    drive = drive_for_gate(gate, envelope(kind, 10.0**log10_tau_ns * 1e-9))
    out = gate_outcome(TRANSMON, gate, drive, INPUT_STATES[label], RWA)
    assert abs(out.fidelity - 1.0) <= 1e-12
    assert out.excited_population <= 1e-24
