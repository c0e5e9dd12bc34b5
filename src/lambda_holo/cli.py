"""Command-line front end: named sweep presets, custom runs, CSV/JSON emission.

Exit codes: 0 success, 1 numerical-contract violation, 2 configuration error,
141 stdout closed by its reader (a broken pipe, as under SIGPIPE).
Output files are deterministic: fixed column order (coordinates alphabetical,
then fidelity, then diagnostics), fixed number formats, '\\n' line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .dynamics import MODES, TRANSMON, LambdaSystem, PropagationConfig
from .gates import GATE_PRESETS, GateSpec, INPUT_STATES
from .pulses import DEFAULT_FWHM_FRACTION, DEFAULT_SECH_BETA, ENVELOPE_KINDS
from .qstate import NumericalContractError
from . import sweeps

FORMATS = ("csv", "json")

_GHZ_TO_RAD_S = 2.0 * math.pi * 1e9

# fig1 holds its rows in memory, about 1.3 KB each and two per point: the cap keeps that
# near 290 MB (peak RSS of `fig1 --mode rwa`: 35 MB at 2,000 points, 161 MB at 50,000)
MAX_FIG1_POINTS = 100_000


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
    mode: str = PropagationConfig.mode
    steps_per_cycle: int = PropagationConfig.steps_per_cycle
    workers: int = 1  # unread; bench/workloads.py passes it (ROADMAP item 1(a))
    output: str | None = None
    fmt: str = "csv"
    frequencies: tuple[float, ...] | None = None
    durations_ns: tuple[float, ...] | None = None
    tau_min_ns: float = 1.0
    tau_max_ns: float = 100.0
    points: int = 100


# CSV number formats by column; frequencies (*_rad_s) take .4e, other floats .6g
_FORMATS = {"fidelity": ".6f", "excited_population": ".6e", "overlap_phase": ".6f"}


def _format_value(key: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    text = format(value, _FORMATS.get(key, ".4e" if key.endswith("_rad_s") else ".6g"))
    # a rounding-level negative, such as an rwa overlap phase of -1e-17, prints unsigned
    return "0.000000" if text == "-0.000000" else text


def render_csv(records: list[dict]) -> str:
    columns = list(records[0].keys())
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(_format_value(col, rec[col]) for col in columns))
    return "\n".join(lines) + "\n"


def _json_value(v) -> str:
    """One scalar cell as json.dumps writes it."""
    if type(v) is float and math.isfinite(v):
        return float.__repr__(v)
    return encode_basestring_ascii(v) if type(v) is str else "null" if v is None else json.dumps(v)


def render_json(records: list[dict]) -> str:
    """json.dumps(records, indent=2) and a newline, for a non-empty list of flat records."""
    rows = (
        ",\n".join(f"    {encode_basestring_ascii(k)}: {_json_value(v)}" for k, v in r.items())
        for r in records
    )
    return "[\n  {\n" + "\n  },\n  {\n".join(rows) + "\n  }\n]\n"


def _emit(records: list[dict], cfg: RunConfig) -> int:
    """Write the records to --output or stdout; returns the exit status."""
    text = render_csv(records) if cfg.fmt == "csv" else render_json(records)
    try:
        if cfg.output is None:
            _sys.stdout.write(text)
            _sys.stdout.flush()
        else:
            with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        if cfg.output is not None:
            raise ValueError(f"cannot write --output {cfg.output!r}: {exc.strerror}") from exc
        # what stdout still buffers goes to devnull, so that the flush at exit reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141  # the reader has gone: end as a process killed by SIGPIPE would
        raise ValueError(f"cannot write to stdout: {exc.strerror}") from exc
    if cfg.output is not None:
        print(f"wrote {len(records)} rows to {cfg.output}", file=_sys.stderr)
    return 0


def _gate_spec(cfg: RunConfig) -> GateSpec:
    if cfg.gate == "custom":
        if cfg.theta is None or cfg.phi is None:
            raise ValueError("--gate custom requires --theta and --phi (radians)")
        return GateSpec(theta=cfg.theta, phi=cfg.phi, name="custom")
    if cfg.theta is not None or cfg.phi is not None:
        raise ValueError("--theta and --phi apply only to --gate custom")
    if cfg.gate in GATE_PRESETS:
        return GATE_PRESETS[cfg.gate]
    raise ValueError(f"--gate must be one of {tuple(GATE_PRESETS)} or 'custom', got {cfg.gate!r}")


def _fig1_durations_ns(cfg: RunConfig):
    for option, value in (("--tau-min-ns", cfg.tau_min_ns), ("--tau-max-ns", cfg.tau_max_ns)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{option} must be positive and finite, got {value!r}")
    if cfg.points < 0:
        raise ValueError(f"--points must be >= 0, got {cfg.points!r}")
    if cfg.points > MAX_FIG1_POINTS:
        raise ValueError(f"--points must be <= {MAX_FIG1_POINTS}, got {cfg.points!r}")
    return sweeps.fig1_default_durations_ns(points=cfg.points, lo=cfg.tau_min_ns, hi=cfg.tau_max_ns)


# command -> sweep call, given the config, its system and the keyword arguments all presets share
_PRESETS = {
    "table1": lambda c, sys_, kw: sweeps.frequency_sweep(
        sweeps.TABLE1_FREQUENCIES if c.frequencies is None else c.frequencies,
        tau_ns=c.tau_ns,
        kind=c.envelope,
        input_label=c.input_label,
        **kw,
    ),
    "table2": lambda c, sys_, kw: sweeps.envelope_input_sweep(sys=sys_, tau_ns=c.tau_ns, **kw),
    "table3": lambda c, sys_, kw: sweeps.duration_sweep(
        sweeps.TABLE3_DURATIONS_NS if c.durations_ns is None else c.durations_ns, sys=sys_, **kw
    ),
    "fig1": lambda c, sys_, kw: sweeps.duration_average_sweep(
        _fig1_durations_ns(c), sys=sys_, kind=c.envelope, **kw
    ),
    "fig2": lambda c, sys_, kw: sweeps.sequence_sweep(
        sweeps.FIG2_DURATIONS_NS if c.durations_ns is None else c.durations_ns,
        sys=sys_,
        kind=c.envelope,
        **kw,
    ),
    "run": lambda c, sys_, kw: sweeps.duration_sweep(
        (c.tau_ns,), (c.envelope,), sys=sys_, gate=_gate_spec(c), input_label=c.input_label, **kw
    ),
}


def run(cfg: RunConfig) -> int:
    """Execute the configured command and write its records; returns the exit status."""
    if cfg.command not in _PRESETS:
        raise ValueError(f"unknown command {cfg.command!r}")
    if cfg.fmt not in FORMATS:
        raise ValueError(f"--format must be one of {FORMATS}, got {cfg.fmt!r}")
    shared = dict(
        fwhm_fraction=cfg.fwhm_fraction,
        sech_beta=cfg.sech_beta,
        cfg=PropagationConfig(mode=cfg.mode, steps_per_cycle=cfg.steps_per_cycle),
    )
    sys_ = LambdaSystem(fe0=cfg.fe0, fe1=cfg.fe1)
    try:
        points = _PRESETS[cfg.command](cfg, sys_, shared)
    except NumericalContractError as exc:
        print(f"numerical contract violated: {exc}", file=_sys.stderr)
        return 1
    if not points:
        raise ValueError("the sweep grid is empty; there are no rows to write")
    return _emit([p.record() for p in points], cfg)


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", help="output path (default: stdout)")
    parser.add_argument("--format", dest="fmt", choices=FORMATS)
    parser.add_argument(
        "--steps-per-cycle",
        type=int,
        help=(
            "CF4 steps per counter-rotating period, two exponentials each; full mode only "
            "(rwa mode takes no steps), and a row does not echo it"
        ),
    )
    parser.add_argument("--mode", choices=MODES)


def _ghz(text: str) -> float:
    try:
        return float(text) * _GHZ_TO_RAD_S
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _add_system_options(parser: argparse.ArgumentParser) -> None:
    for name, level in (("fe0", "|0>"), ("fe1", "|1>")):
        what = f"{level}-|e> frequency"
        given_as = parser.add_mutually_exclusive_group()
        given_as.add_argument(f"--{name}", type=float, help=f"{what} (rad/s)")
        given_as.add_argument(
            f"--{name}-ghz", dest=name, type=_ghz, metavar="GHZ", help=f"{what} (GHz)"
        )


def _add_pulse_options(
    parser: argparse.ArgumentParser, with_kind: bool = True, with_tau: bool = True
) -> None:
    if with_kind:
        parser.add_argument("--envelope", choices=ENVELOPE_KINDS)
    if with_tau:
        parser.add_argument("--tau-ns", type=float)
    parser.add_argument("--fwhm-fraction", type=float)
    parser.add_argument("--sech-beta", type=float)


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
    p.add_argument("--frequencies", type=float, nargs="+", help="rad/s values")
    p.add_argument("--input", dest="input_label", choices=tuple(INPUT_STATES))
    _add_pulse_options(p)
    _add_output_options(p)

    p = sub.add_parser("table2", help="envelope-shape x input-state fidelity grid")
    _add_system_options(p)
    _add_pulse_options(p, with_kind=False)
    _add_output_options(p)

    p = sub.add_parser("table3", help="envelope-shape x pulse-duration fidelity grid")
    p.add_argument("--durations-ns", type=float, nargs="+")
    _add_system_options(p)
    _add_pulse_options(p, with_kind=False, with_tau=False)
    _add_output_options(p)

    p = sub.add_parser("fig1", help="input-averaged fidelity vs pulse duration")
    p.add_argument("--tau-min-ns", type=float)
    p.add_argument("--tau-max-ns", type=float)
    p.add_argument("--points", type=int)
    _add_system_options(p)
    _add_pulse_options(p, with_tau=False)
    _add_output_options(p)

    p = sub.add_parser("fig2", help="Hadamard/NOT sequences vs product of fidelities")
    p.add_argument("--durations-ns", type=float, nargs="+")
    _add_system_options(p)
    _add_pulse_options(p, with_tau=False)
    _add_output_options(p)

    p = sub.add_parser("run", help="single custom point")
    _add_system_options(p)
    _add_pulse_options(p)
    p.add_argument("--gate", help="not | hadamard | custom")
    p.add_argument("--theta", type=float, help="radians, for --gate custom")
    p.add_argument("--phi", type=float, help="radians, for --gate custom")
    p.add_argument("--input", dest="input_label", choices=tuple(INPUT_STATES))
    _add_output_options(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the options given on the command line; the rest keep its defaults.

    The parser sets no defaults of its own: an option left out parses as None.
    """
    given = {name: value for name, value in vars(args).items() if value is not None}
    for name in ("frequencies", "durations_ns"):
        if name in given:
            given[name] = tuple(given[name])
    return RunConfig(**given)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args)
    try:
        return run(cfg)
    except ValueError as exc:
        parser.error(str(exc))  # exits with status 2


if __name__ == "__main__":
    raise SystemExit(main())
