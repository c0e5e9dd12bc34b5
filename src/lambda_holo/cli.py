"""Command-line front end: named sweep presets, custom runs, CSV/JSON emission.

Exit codes: 0 success, 1 numerical-contract violation, 2 configuration error.
Output files are deterministic: fixed column order (coordinates alphabetical,
then fidelity, then diagnostics), fixed number formats, '\\n' line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import dataclass

import numpy as np

from .dynamics import TRANSMON, LambdaSystem, PropagationConfig
from .gates import GATE_PRESETS, GateSpec, INPUT_STATES
from .pulses import DEFAULT_FWHM_FRACTION, DEFAULT_SECH_BETA, ENVELOPE_KINDS
from .qstate import NumericalContractError
from . import sweeps

FORMATS = ("csv", "json")

_GHZ_TO_RAD_S = 2.0 * math.pi * 1e9


@dataclass(frozen=True)
class RunConfig:
    """Resolved CLI options for one invocation."""

    command: str
    fe0: float = TRANSMON.fe0
    fe1: float = TRANSMON.fe1
    envelope: str = "gaussian"
    tau_ns: float = sweeps.DEFAULT_TAU_NS
    fwhm_fraction: float = DEFAULT_FWHM_FRACTION
    sech_beta: float = DEFAULT_SECH_BETA
    gate: str = "not"
    theta: float | None = None
    phi: float | None = None
    input_label: str = "0"
    mode: str = "full"
    steps_per_cycle: int = 40
    workers: int = 1
    output: str | None = None
    fmt: str = "csv"
    frequencies: tuple[float, ...] | None = None
    durations_ns: tuple[float, ...] | None = None
    tau_min_ns: float = 1.0
    tau_max_ns: float = 100.0
    points: int = 100


def _format_value(key: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if key == "fidelity":
        return f"{value:.6f}"
    if key.endswith("_rad_s"):
        return f"{value:.4e}"
    if key == "excited_population":
        return f"{value:.6e}"
    if key == "overlap_phase":
        return f"{value:.6f}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.6g}"


def render_csv(records: list[dict]) -> str:
    columns = list(records[0].keys())
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(_format_value(col, rec[col]) for col in columns))
    return "\n".join(lines) + "\n"


def render_json(records: list[dict]) -> str:
    return json.dumps(records, indent=2) + "\n"


def _emit(records: list[dict], cfg: RunConfig) -> None:
    text = render_csv(records) if cfg.fmt == "csv" else render_json(records)
    if cfg.output is None:
        _sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(records)} rows to {cfg.output}", file=_sys.stderr)


def _gate_spec(cfg: RunConfig) -> GateSpec:
    if cfg.gate in GATE_PRESETS:
        return GATE_PRESETS[cfg.gate]
    if cfg.gate == "custom":
        if cfg.theta is None or cfg.phi is None:
            raise ValueError("--gate custom requires --theta and --phi (radians)")
        return GateSpec(theta=cfg.theta, phi=cfg.phi, name="custom")
    raise ValueError(f"--gate must be one of {tuple(GATE_PRESETS)} or 'custom', got {cfg.gate!r}")


def run(cfg: RunConfig) -> int:
    """Execute the configured command and write its records; returns the exit status."""
    sys_ = LambdaSystem(fe0=cfg.fe0, fe1=cfg.fe1)
    prop = PropagationConfig(mode=cfg.mode, steps_per_cycle=cfg.steps_per_cycle)
    try:
        if cfg.command == "table1":
            points = sweeps.frequency_sweep(
                cfg.frequencies or sweeps.TABLE1_FREQUENCIES,
                tau_ns=cfg.tau_ns,
                kind=cfg.envelope,
                fwhm_fraction=cfg.fwhm_fraction,
                sech_beta=cfg.sech_beta,
                input_label=cfg.input_label,
                cfg=prop,
                workers=cfg.workers,
            )
        elif cfg.command == "table2":
            points = sweeps.envelope_input_sweep(
                sys=sys_,
                tau_ns=cfg.tau_ns,
                fwhm_fraction=cfg.fwhm_fraction,
                sech_beta=cfg.sech_beta,
                cfg=prop,
                workers=cfg.workers,
            )
        elif cfg.command == "table3":
            points = sweeps.duration_sweep(
                cfg.durations_ns or sweeps.TABLE3_DURATIONS_NS,
                sys=sys_,
                fwhm_fraction=cfg.fwhm_fraction,
                sech_beta=cfg.sech_beta,
                cfg=prop,
                workers=cfg.workers,
            )
        elif cfg.command == "fig1":
            durations = sweeps.fig1_default_durations_ns(
                points=cfg.points, lo=cfg.tau_min_ns, hi=cfg.tau_max_ns
            )
            points = sweeps.duration_average_sweep(
                durations,
                sys=sys_,
                kind=cfg.envelope,
                fwhm_fraction=cfg.fwhm_fraction,
                sech_beta=cfg.sech_beta,
                cfg=prop,
                workers=cfg.workers,
            )
        elif cfg.command == "fig2":
            points = sweeps.sequence_sweep(
                cfg.durations_ns,
                sys=sys_,
                kind=cfg.envelope,
                fwhm_fraction=cfg.fwhm_fraction,
                sech_beta=cfg.sech_beta,
                cfg=prop,
                workers=cfg.workers,
            )
        elif cfg.command == "run":
            gate = _gate_spec(cfg)
            points = sweeps.duration_sweep(
                (cfg.tau_ns,),
                (cfg.envelope,),
                sys=sys_,
                gate=gate,
                input_label=cfg.input_label,
                fwhm_fraction=cfg.fwhm_fraction,
                sech_beta=cfg.sech_beta,
                cfg=prop,
                workers=cfg.workers,
            )
        else:
            raise ValueError(f"unknown command {cfg.command!r}")
    except NumericalContractError as exc:
        print(f"numerical contract violated: {exc}", file=_sys.stderr)
        return 1
    if not points:
        raise ValueError("the sweep grid is empty; there are no rows to write")
    _emit([p.record() for p in points], cfg)
    return 0


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", dest="fmt", choices=FORMATS, default="csv")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="must be >= 1; points are evaluated in order in one process",
    )
    parser.add_argument(
        "--steps-per-cycle",
        type=int,
        default=40,
        help="integration samples per counter-rotating period",
    )
    parser.add_argument("--mode", choices=("full", "rwa"), default="full")


def _add_system_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fe0", type=float, default=None, help="|0>-|e> frequency (rad/s)")
    parser.add_argument("--fe1", type=float, default=None, help="|1>-|e> frequency (rad/s)")
    parser.add_argument("--fe0-ghz", type=float, default=None, help="|0>-|e> frequency (GHz)")
    parser.add_argument("--fe1-ghz", type=float, default=None, help="|1>-|e> frequency (GHz)")


def _add_pulse_options(parser: argparse.ArgumentParser, with_kind: bool = True) -> None:
    if with_kind:
        parser.add_argument("--envelope", choices=ENVELOPE_KINDS, default="gaussian")
    parser.add_argument("--tau-ns", type=float, default=sweeps.DEFAULT_TAU_NS)
    parser.add_argument("--fwhm-fraction", type=float, default=DEFAULT_FWHM_FRACTION)
    parser.add_argument("--sech-beta", type=float, default=DEFAULT_SECH_BETA)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-holo",
        description=(
            "Fidelity of holonomic single-qubit gates on a driven three-level "
            "lambda system, with and without the rotating wave approximation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="fidelity vs transition frequency (NOT and Hadamard)")
    p.add_argument("--frequencies", type=float, nargs="+", default=None, help="rad/s values")
    p.add_argument("--input", dest="input_label", choices=tuple(INPUT_STATES), default="0")
    _add_pulse_options(p, with_kind=True)
    _add_output_options(p)

    p = sub.add_parser("table2", help="envelope-shape x input-state fidelity grid")
    _add_system_options(p)
    _add_pulse_options(p, with_kind=False)
    _add_output_options(p)

    p = sub.add_parser("table3", help="envelope-shape x pulse-duration fidelity grid")
    p.add_argument("--durations-ns", type=float, nargs="+", default=None)
    _add_system_options(p)
    _add_pulse_options(p, with_kind=False)
    _add_output_options(p)

    p = sub.add_parser("fig1", help="input-averaged fidelity vs pulse duration")
    p.add_argument("--tau-min-ns", type=float, default=1.0)
    p.add_argument("--tau-max-ns", type=float, default=100.0)
    p.add_argument("--points", type=int, default=100)
    _add_system_options(p)
    p.add_argument("--envelope", choices=ENVELOPE_KINDS, default="gaussian")
    p.add_argument("--fwhm-fraction", type=float, default=DEFAULT_FWHM_FRACTION)
    p.add_argument("--sech-beta", type=float, default=DEFAULT_SECH_BETA)
    _add_output_options(p)

    p = sub.add_parser("fig2", help="Hadamard/NOT sequences vs product of fidelities")
    p.add_argument("--durations-ns", type=float, nargs="+", default=None)
    _add_system_options(p)
    p.add_argument("--envelope", choices=ENVELOPE_KINDS, default="gaussian")
    p.add_argument("--fwhm-fraction", type=float, default=DEFAULT_FWHM_FRACTION)
    p.add_argument("--sech-beta", type=float, default=DEFAULT_SECH_BETA)
    _add_output_options(p)

    p = sub.add_parser("run", help="single custom point")
    _add_system_options(p)
    _add_pulse_options(p, with_kind=True)
    p.add_argument("--gate", default="not", help="not | hadamard | custom")
    p.add_argument("--theta", type=float, default=None, help="radians, for --gate custom")
    p.add_argument("--phi", type=float, default=None, help="radians, for --gate custom")
    p.add_argument("--input", dest="input_label", choices=tuple(INPUT_STATES), default="0")
    _add_output_options(p)

    return parser


def _resolve_frequency(parser, rad_value, ghz_value, default, rad_key, ghz_key) -> float:
    if rad_value is not None and ghz_value is not None:
        parser.error(f"{rad_key} and {ghz_key} are mutually exclusive")
    if ghz_value is not None:
        return ghz_value * _GHZ_TO_RAD_S
    if rad_value is not None:
        return rad_value
    return default


def config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    get = lambda name, default=None: getattr(args, name, default)
    fe0 = _resolve_frequency(
        parser, get("fe0"), get("fe0_ghz"), TRANSMON.fe0, "--fe0", "--fe0-ghz"
    )
    fe1 = _resolve_frequency(
        parser, get("fe1"), get("fe1_ghz"), TRANSMON.fe1, "--fe1", "--fe1-ghz"
    )
    freqs = get("frequencies")
    durations = get("durations_ns")
    return RunConfig(
        command=args.command,
        fe0=fe0,
        fe1=fe1,
        envelope=get("envelope", "gaussian"),
        tau_ns=get("tau_ns", sweeps.DEFAULT_TAU_NS),
        fwhm_fraction=get("fwhm_fraction", DEFAULT_FWHM_FRACTION),
        sech_beta=get("sech_beta", DEFAULT_SECH_BETA),
        gate=get("gate", "not"),
        theta=get("theta"),
        phi=get("phi"),
        input_label=get("input_label", "0"),
        mode=get("mode", "full"),
        steps_per_cycle=get("steps_per_cycle", 40),
        workers=get("workers", 1),
        output=get("output"),
        fmt=get("fmt", "csv"),
        frequencies=tuple(freqs) if freqs else None,
        durations_ns=tuple(durations) if durations else None,
        tau_min_ns=get("tau_min_ns", 1.0),
        tau_max_ns=get("tau_max_ns", 100.0),
        points=get("points", 100),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(parser, args)
    try:
        return run(cfg)
    except ValueError as exc:
        parser.error(str(exc))  # exits with status 2


if __name__ == "__main__":
    raise SystemExit(main())
