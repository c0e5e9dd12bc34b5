import functools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_holo import dynamics, gates, sweeps
from lambda_holo.dynamics import LambdaSystem, PropagationConfig, TRANSMON
from lambda_holo.gates import (
    AVERAGE_INPUT_LABELS,
    HADAMARD_GATE,
    INPUT_STATES,
    NOT_GATE,
    GateSpec,
    gate_outcome,
)
from lambda_holo.pulses import envelope
from lambda_holo.sweeps import (
    SEQUENCE_LABELS,
    SweepPoint,
    TABLE1_FREQUENCIES,
    TABLE2_INPUT_LABELS,
    TABLE3_DURATIONS_NS,
    duration_average_sweep,
    duration_sweep,
    envelope_input_sweep,
    fig1_default_durations_ns,
    frequency_sweep,
    sequence_sweep,
)

COORD_KEYS = {"mode", "fe0_rad_s", "fe1_rad_s", "envelope", "width_param", "tau_ns", "input"}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0) | st.floats(min_value=0.0, max_value=1e-6),
        min_size=1,
        max_size=7,
    )
)
def test_mean_has_the_bits_of_np_mean(values):
    got = sweeps._mean(values)
    assert type(got) is float and got == float(np.mean(values))


def test_sweep_point_rejects_out_of_range_fidelity():
    with pytest.raises(ValueError):
        SweepPoint(coordinates={}, fidelity=1.1)
    with pytest.raises(ValueError):
        SweepPoint(coordinates={}, fidelity=-0.1)


def test_frequency_sweep_shape_and_coordinates():
    points = frequency_sweep(freqs=(1e6, 1e10))
    assert len(points) == 4  # 2 freqs x 2 gates
    for p in points:
        assert COORD_KEYS | {"gate", "theta_rad", "phi_rad"} <= set(p.coordinates)
        assert p.coordinates["fe0_rad_s"] == p.coordinates["fe1_rad_s"]
        assert 0.0 <= p.fidelity <= 1.0 + 1e-9
        assert p.excited_population is not None
        assert p.overlap_phase is not None


def test_frequency_sweep_deterministic():
    a = frequency_sweep(freqs=(1e6, 1e9))
    b = frequency_sweep(freqs=(1e6, 1e9))
    for x, y in zip(a, b):
        assert x.fidelity == y.fidelity
        assert x.coordinates == y.coordinates


def test_envelope_input_sweep_grid():
    points = envelope_input_sweep()
    assert len(points) == 15  # 5 kinds x 3 inputs
    got = {(p.coordinates["envelope"], p.coordinates["input"]) for p in points}
    assert len(got) == 15
    assert {i for _, i in got} == set(TABLE2_INPUT_LABELS)


def test_duration_sweep_grid():
    points = duration_sweep()
    assert len(points) == 20  # 5 kinds x 4 durations
    taus = {p.coordinates["tau_ns"] for p in points}
    assert taus == set(TABLE3_DURATIONS_NS)


def test_duration_average_sweep_labels():
    points = duration_average_sweep(durations_ns=(40.0, 100.0))
    assert len(points) == 4
    for p in points:
        assert p.coordinates["input"] == "avg"
        assert p.overlap_phase is None
        assert p.excited_population is not None


def test_fig1_grid_is_logarithmic():
    taus = fig1_default_durations_ns()
    assert len(taus) == 100
    assert taus[0] == pytest.approx(1.0)
    assert taus[-1] == pytest.approx(100.0)
    ratios = taus[1:] / taus[:-1]
    assert np.allclose(ratios, ratios[0])


def test_sequence_sweep_rwa_is_unity():
    cfg = PropagationConfig(mode="rwa")
    points = sequence_sweep(durations_ns=(25.0,), cfg=cfg)
    assert len(points) == 3
    labels = {p.coordinates["sequence"] for p in points}
    assert labels == set(SEQUENCE_LABELS)
    for p in points:
        assert abs(p.fidelity - 1.0) < 1e-6


def test_sequence_sweep_product_row_has_no_state_diagnostics():
    points = sequence_sweep(durations_ns=(30.0,))
    by_label = {p.coordinates["sequence"]: p for p in points}
    assert by_label["product"].excited_population is None
    assert by_label["hadamard_then_not"].excited_population is not None


def test_sweep_points_echo_system():
    points = envelope_input_sweep()
    p = points[0]
    assert p.coordinates["fe0_rad_s"] == TRANSMON.fe0
    assert p.coordinates["fe1_rad_s"] == TRANSMON.fe1
    assert p.coordinates["mode"] == "full"


@pytest.mark.parametrize("mode", ("full", "rwa"))
def test_gate_outcome_is_the_sweep_record(mode):
    # the library's single-point path and a one-row sweep give the same bits
    cfg = PropagationConfig(mode=mode)
    tau_ns, kind = 25.0, "sech"
    env = envelope(kind, tau_ns * 1e-9)
    for gate in (NOT_GATE, HADAMARD_GATE, GateSpec(theta=1.0472, phi=0.7854)):
        for label, psi in INPUT_STATES.items():
            out = gate_outcome(TRANSMON, gate, env, psi, cfg)
            (point,) = duration_sweep((tau_ns,), (kind,), gate=gate, input_label=label, cfg=cfg)
            rec = point.record()
            assert (out.fidelity, out.excited_population, out.overlap_phase) == (
                rec["fidelity"],
                rec["excited_population"],
                rec["overlap_phase"],
            ), (gate, label)


@pytest.mark.parametrize("mode", ("full", "rwa"))
def test_averaged_row_is_the_mean_of_its_single_input_rows(mode):
    # bit for bit, as np.mean averages: the rows share a propagator and outcome arithmetic
    cfg = PropagationConfig(mode=mode)
    durations = (1.0, 2.5, 7.3, 40.0, 63.0, 99.0)
    for gate in (NOT_GATE, HADAMARD_GATE):
        averaged = duration_average_sweep(durations, (gate,), cfg=cfg)
        single = [
            duration_sweep(durations, ("gaussian",), gate=gate, input_label=label, cfg=cfg)
            for label in AVERAGE_INPUT_LABELS
        ]
        for row, *rows in zip(averaged, *single, strict=True):
            assert {p.coordinates["tau_ns"] for p in rows} == {row.coordinates["tau_ns"]}
            assert row.fidelity == np.mean([p.fidelity for p in rows])
            assert row.excited_population == np.mean([p.excited_population for p in rows])


def test_record_layout():
    points = frequency_sweep(freqs=(1e8,))
    rec = points[0].record()
    keys = list(rec)
    coords = sorted(points[0].coordinates)
    assert keys == coords + ["fidelity", "excited_population", "overlap_phase"]


@pytest.fixture
def propagator_calls(monkeypatch):
    calls = []
    real = dynamics.propagator

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (dynamics, gates, sweeps):  # every module that may bind the name
        monkeypatch.setattr(module, "propagator", counting, raising=False)
    return calls


@pytest.mark.parametrize(
    "sweep, distinct",
    [
        (duration_average_sweep, 200),  # 2 gates x 100 durations, shared by 3 inputs
        (sequence_sweep, 76),  # NOT and Hadamard at pulse start 0 and tau, 19 durations
        (envelope_input_sweep, 5),  # one drive per envelope kind, shared by 3 inputs
    ],
)
def test_each_distinct_propagator_is_built_once(propagator_calls, sweep, distinct):
    sweep()
    assert len(propagator_calls) == distinct


def test_unknown_input_is_refused_before_propagating(propagator_calls):
    with pytest.raises(ValueError, match=r"unknown input 'z'; known inputs are \('0', '1'"):
        duration_sweep(input_label="z")
    assert propagator_calls == []


@pytest.mark.parametrize(
    "sweep, durations_ns",
    [
        (duration_sweep, (40.0, -1.0)),
        (sequence_sweep, (10.0, -1.0)),
        (duration_average_sweep, (10.0, math.nan)),
    ],
)
def test_bad_duration_is_refused_before_propagating(propagator_calls, sweep, durations_ns):
    # every row is laid out before any is evaluated, so a bad last duration builds nothing
    with pytest.raises(ValueError, match="pulse duration must be positive and finite"):
        sweep(durations_ns)
    assert propagator_calls == []


@pytest.mark.parametrize(
    "sweep, held",
    [
        (sequence_sweep, 4),  # NOT and Hadamard at pulse starts 0 and tau, per duration
        (duration_average_sweep, 1),  # each (gate, duration) row is a group of its own
    ],
)
def test_only_one_row_group_of_propagators_is_held(monkeypatch, sweep, held):
    # only consecutive rows of one system and envelope can share a propagator
    real, refs, alive = sweeps.propagator, [], []

    def tracked(*args, **kwargs):
        u = real(*args, **kwargs)
        refs.append(weakref.ref(u))
        alive.append(sum(r() is not None for r in refs))
        return u

    monkeypatch.setattr(sweeps, "propagator", tracked)
    sweep(cfg=PropagationConfig(mode="rwa"))
    assert 0 < max(alive) <= held


ORDER_CFGS = (PropagationConfig(), PropagationConfig(mode="rwa"))


def order_rows(cfg):
    """Single gates, both two-pulse orders (pulse starts 0 and tau) and a product, at a few ns."""
    terms = {
        "hadamard": ((HADAMARD_GATE,),),
        "not": ((NOT_GATE,),),
        "hadamard_then_not": ((HADAMARD_GATE, NOT_GATE),),
        "not_then_hadamard": ((NOT_GATE, HADAMARD_GATE),),
        "product": ((NOT_GATE,), (HADAMARD_GATE,)),
    }
    return [
        sweeps._row(sys, cfg, envelope(kind, tau_ns * 1e-9), tau_ns, t, inputs, sequence=label)
        for sys in (TRANSMON, LambdaSystem(1e9, 0.8e9))
        for kind, tau_ns in (("gaussian", 1.0), ("sech", 2.5))
        for label, t in terms.items()
        for inputs in (("x+",), AVERAGE_INPUT_LABELS)
    ]


def records_by_coordinates(points):
    """Each record's exact repr, keyed by its coordinates."""
    return {tuple(sorted(p.coordinates.items())): repr(p.record()) for p in points}


@functools.cache
def laid_out_records(cfg):
    return records_by_coordinates(sweeps._evaluate(order_rows(cfg), cfg))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_row_order_does_not_change_records(data):
    # the propagator cache and the reused per-thread workspace see the rows in a drawn
    # order; every record keeps its bits
    for cfg in data.draw(st.permutations(ORDER_CFGS)):
        rows = data.draw(st.permutations(order_rows(cfg)))
        assert records_by_coordinates(sweeps._evaluate(rows, cfg)) == laid_out_records(cfg)
