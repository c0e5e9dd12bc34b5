"""Exact vs rotating-wave dynamics of driven three-level lambda systems."""

from .qstate import NumericalContractError, state_vector
from .pulses import (
    DEFAULT_FWHM_FRACTION,
    DEFAULT_SECH_BETA,
    ENVELOPE_KINDS,
    DriveSpec,
    Envelope,
    envelope,
)
from .dynamics import (
    TRANSMON,
    LambdaSystem,
    PropagationConfig,
    propagator,
)
from .gates import (
    GATE_PRESETS,
    HADAMARD_GATE,
    INPUT_STATES,
    NOT_GATE,
    GateSpec,
    gate_outcome,
    ideal_gate,
)
from .sweeps import (
    SweepPoint,
    duration_average_sweep,
    duration_sweep,
    envelope_input_sweep,
    frequency_sweep,
    sequence_sweep,
)

__version__ = "0.1.0"
