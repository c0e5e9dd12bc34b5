import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambda_holo
from lambda_holo import dynamics, sweeps
from lambda_holo.cli import (
    MAX_FIG1_POINTS,
    RunConfig,
    _format_value,
    build_parser,
    config_from_args,
    main,
    render_csv,
    render_json,
    run,
)
from lambda_holo.gates import GATE_PRESETS, INPUT_STATES
from lambda_holo.pulses import ENVELOPE_KINDS
from lambda_holo.sweeps import SEQUENCE_LABELS, SweepPoint

COMMANDS = ("table1", "table2", "table3", "fig1", "fig2", "run")


def run_cli(args, tmp_path, name="out.csv"):
    path = tmp_path / name
    code = main(args + ["-o", str(path)])
    return code, path.read_bytes()


def test_table1_row_count_and_format(tmp_path):
    code, data = run_cli(["table1"], tmp_path)
    assert code == 0
    lines = data.decode().split("\n")
    assert lines[-1] == ""  # trailing newline
    rows = [l for l in lines[:-1]]
    assert len(rows) == 13  # header + 6 freqs x 2 gates
    header = rows[0].split(",")
    assert header[-3:] == ["fidelity", "excited_population", "overlap_phase"]
    assert header[:-3] == sorted(header[:-3])
    fid_col = header.index("fidelity")
    fe0_col = header.index("fe0_rad_s")
    for row in rows[1:]:
        cells = row.split(",")
        assert len(cells[fid_col].split(".")[1]) == 6  # %.6f
        float(cells[fe0_col])
        assert "e" in cells[fe0_col]  # scientific notation


def test_table1_byte_identical_across_runs(tmp_path):
    _, a = run_cli(["table1"], tmp_path, "a.csv")
    _, b = run_cli(["table1"], tmp_path, "b.csv")
    assert a == b


def test_run_rwa_not_gate(tmp_path):
    code, data = run_cli(["run", "--mode", "rwa", "--gate", "not", "--input", "0"], tmp_path)
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert len(lines) == 2
    header, row = lines[0].split(","), lines[1].split(",")
    assert row[header.index("fidelity")] == "1.000000"
    assert row[header.index("mode")] == "rwa"


def test_fig1_row_count(tmp_path):
    code, data = run_cli(
        ["fig1", "--tau-min-ns", "30", "--tau-max-ns", "100", "--points", "5"], tmp_path
    )
    assert code == 0
    rows = data.decode().strip().split("\n")
    assert len(rows) == 11  # header + 2 gates x 5 durations


def test_fig2_row_count(tmp_path):
    code, data = run_cli(["fig2", "--durations-ns", "30", "60"], tmp_path)
    assert code == 0
    rows = data.decode().strip().split("\n")
    assert len(rows) == 7  # header + 2 durations x 3 curves


def test_table2_and_table3_row_counts(tmp_path):
    _, t2 = run_cli(["table2"], tmp_path, "t2.csv")
    assert len(t2.decode().strip().split("\n")) == 16
    _, t3 = run_cli(["table3", "--durations-ns", "40", "100"], tmp_path, "t3.csv")
    assert len(t3.decode().strip().split("\n")) == 11


def test_json_mirrors_csv_records(tmp_path):
    _, csv_data = run_cli(["table1", "--frequencies", "1e8"], tmp_path, "x.csv")
    code, json_path = main(
        ["table1", "--frequencies", "1e8", "--format", "json", "-o", str(tmp_path / "x.json")]
    ), tmp_path / "x.json"
    records = json.loads(json_path.read_text())
    assert len(records) == 2
    header = csv_data.decode().split("\n")[0].split(",")
    assert list(records[0]) == header
    assert records[0]["gate"] == "not"
    assert isinstance(records[0]["fidelity"], float)


def test_json_deterministic(tmp_path):
    main(["table1", "--frequencies", "1e7", "--format", "json", "-o", str(tmp_path / "a.json")])
    main(["table1", "--frequencies", "1e7", "--format", "json", "-o", str(tmp_path / "b.json")])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_ghz_flag_converts_to_rad_s(tmp_path):
    code, data = run_cli(
        ["run", "--fe0-ghz", "8.0865", "--fe1-ghz", "7.7322", "--mode", "rwa"], tmp_path
    )
    assert code == 0
    lines = data.decode().strip().split("\n")
    header, row = lines[0].split(","), lines[1].split(",")
    fe0 = float(row[header.index("fe0_rad_s")])
    assert fe0 == pytest.approx(2 * math.pi * 8.0865e9, rel=1e-4)


def test_stdout_when_no_output_path(capsys):
    code = main(["run", "--mode", "rwa"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("envelope,")
    assert "1.000000" in out


def run_cli_process(args, stdout):
    """Run the CLI in a fresh interpreter with the given stdout; returns (status, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(lambda_holo.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "lambda_holo.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
    )
    return proc.returncode, proc.stderr


def test_stdout_closed_by_its_reader_exits_141_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the CLI writes a byte
    try:
        code, err = run_cli_process(["run", "--mode", "rwa"], write_end)
    finally:
        os.close(write_end)
    assert code == 141
    assert "Traceback" not in err
    assert "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_write_failure_exits_2():
    with open("/dev/full", "w") as full:
        code, err = run_cli_process(["run", "--mode", "rwa"], full)
    assert code == 2
    assert "cannot write to stdout: No space left on device" in err
    assert "Traceback" not in err


def test_steps_per_cycle_beyond_float_range_exits_2():
    # an int that math.isfinite cannot convert is a configuration error, not a traceback
    code, err = run_cli_process(["run", "--steps-per-cycle", "1" + "0" * 400], subprocess.PIPE)
    assert code == 2
    assert "steps_per_cycle must be finite and >= 8" in err
    assert "Traceback" not in err


def test_unknown_flag_exits_2():
    # table3 takes its durations from --durations-ns, so it has no --tau-ns
    for args in (
        ["table1", "--frequency", "1e8"],
        ["table3", "--tau-ns", "5"],
        ["table1", "--workers", "4"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["table9"])
    assert exc.value.code == 2


def test_bad_gate_name_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--gate", "toffoli", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_custom_gate_requires_angles(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--gate", "custom", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    code, data = run_cli(
        ["run", "--gate", "custom", "--theta", "1.0", "--phi", "0.5", "--mode", "rwa"], tmp_path
    )
    assert code == 0
    lines = data.decode().strip().split("\n")
    header, row = lines[0].split(","), lines[1].split(",")
    assert row[header.index("gate")] == "custom"
    assert row[header.index("fidelity")] == "1.000000"


@pytest.mark.parametrize("gate", [None, "not", "hadamard"], ids=["default", "not", "hadamard"])
@pytest.mark.parametrize(
    "angles",
    [["--theta", "1"], ["--phi", "1"], ["--theta", "1", "--phi", "1"]],
    ids=["theta", "phi", "both"],
)
def test_angles_need_custom_gate(gate, angles, tmp_path, capsys):
    args = ["run", *angles] + ([] if gate is None else ["--gate", gate])
    with pytest.raises(SystemExit) as exc:
        main(args + ["-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--theta and --phi apply only to --gate custom" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
def test_unwritable_output_exits_2(target, tmp_path, capsys):
    # a path in a directory that does not exist, and a path that is a directory
    path = tmp_path / target
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mode", "rwa", "-o", str(path)])
    assert exc.value.code == 2
    assert f"cannot write --output {str(path)!r}" in capsys.readouterr().err


def test_conflicting_frequency_flags_exit_2(tmp_path):
    for name in ("fe0", "fe1"):
        argv = ["run", f"--{name}", "5e10", f"--{name}-ghz", "8.0", "-o", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("fmt", ("xml", "CSV"))
def test_unknown_format_is_refused(fmt, capsys):
    with pytest.raises(ValueError, match=f"--format must be one of .*, got '{fmt}'"):
        run(RunConfig(command="run", mode="rwa", fmt=fmt))
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ("run", "table1"))
def test_unknown_input_is_refused_before_propagating(command, monkeypatch):
    def no_propagator(*args, **kwargs):
        raise AssertionError("propagated an unknown input")

    monkeypatch.setattr(sweeps, "propagator", no_propagator)
    with pytest.raises(ValueError, match="unknown input 'z'"):
        run(RunConfig(command=command, input_label="z"))


def test_invalid_theta_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            ["run", "--gate", "custom", "--theta", "9.0", "--phi", "0.0",
             "-o", str(tmp_path / "x.csv")]
        )
    assert exc.value.code == 2


def test_empty_grid_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fig1", "--points", "0", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "grid is empty" in capsys.readouterr().err


def test_negative_points_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fig1", "--points", "-3", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "--points must be >= 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["100001", "1000000000000000"])
def test_too_many_points_exits_2_before_allocating(points, tmp_path, capsys, monkeypatch):
    def no_grid(**kwargs):
        raise AssertionError("the duration grid was built")

    monkeypatch.setattr(sweeps, "fig1_default_durations_ns", no_grid)
    with pytest.raises(SystemExit) as exc:
        main(["fig1", "--mode", "rwa", "--points", points, "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--points must be <= {MAX_FIG1_POINTS}, got {points}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_points_at_the_cap_reach_the_grid(monkeypatch):
    class GridBuilt(Exception):
        pass

    def grid(points, lo, hi):
        assert points == MAX_FIG1_POINTS
        raise GridBuilt

    monkeypatch.setattr(sweeps, "fig1_default_durations_ns", grid)
    with pytest.raises(GridBuilt):
        main(["fig1", "--mode", "rwa", "--points", str(MAX_FIG1_POINTS)])


def test_steep_sech_emits_no_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = run_cli(["run", "--envelope", "sech", "--sech-beta", "800"], tmp_path)
    assert code == 0
    assert data.decode().count("\n") == 2


@pytest.mark.parametrize("tau_ns", ["1e-305", "1e-160"])
def test_unrepresentable_duration_exits_2(tau_ns, tmp_path, capsys):
    # 1e-305 ns overflows the pi-normalised amplitude; at 1e-160 ns the amplitude is finite
    # but its square, the bound on a step weight's size, overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--tau-ns", tau_ns, "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert f"duration {float(tau_ns) * 1e-9!r} s is not representable" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_out_of_range_gaussian_width_exits_2(tmp_path, capsys):
    # a 40 ns pulse is representable; a FWHM of 1e300 times it is not
    with pytest.raises(SystemExit) as exc:
        main(["run", "--fwhm-fraction", "1e300", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "fwhm_fraction = 1e+300 of the duration" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("mode", ["full", "rwa"])
@pytest.mark.parametrize("kind", ENVELOPE_KINDS)
def test_overflowing_step_weight_exits_2(kind, mode, tmp_path, capsys):
    # at 1e-150 ns the amplitude (about 1e159 rad/s) is finite but a step weight's square is not
    args = ["run", "--tau-ns", "1e-150", "--envelope", kind, "--mode", mode]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(args + ["-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert f"duration {1e-150 * 1e-9!r} s is not representable" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("mode", ["full", "rwa"])
@pytest.mark.parametrize("kind", ENVELOPE_KINDS)
def test_shortest_representable_duration_runs(kind, mode, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run_cli(["run", "--tau-ns", "1e-140", "--envelope", kind, "--mode", mode], tmp_path)
    assert code == 0


@pytest.mark.parametrize(
    "option,value", [("--tau-min-ns", "0"), ("--tau-min-ns", "nan"), ("--tau-max-ns", "-5")]
)
def test_fig1_duration_bounds_must_be_positive(option, value, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["fig1", option, value, "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert f"{option} must be positive and finite" in capsys.readouterr().err


def test_unresolved_envelope_exits_1(tmp_path, capsys):
    # a Gaussian far narrower than one step samples to zero area: refused, not fidelity 0
    code = main(["run", "--fwhm-fraction", "1e-6", "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert "envelope is not resolved" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_unresolved_envelope_exits_1_before_stepping(tmp_path, capsys, monkeypatch):
    # 203,719 steps: the sampled area is refused before any of them is built
    def no_steps(*args, **kwargs):
        raise AssertionError("an unresolved envelope builds no steps")

    monkeypatch.setattr(dynamics, "_step_unitaries", no_steps)
    args = ["run", "--fe0", "2e12", "--fwhm-fraction", "1e-7"]
    code = main(args + ["-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert "203719 steps" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


UNBOUNDED_STEP_COUNTS = [
    ["--fe0", "1e308", "--fe1", "1e308"],
    ["--envelope", "square", "--tau-ns", "1e307"],
]


@pytest.mark.parametrize("options", UNBOUNDED_STEP_COUNTS, ids=["fe-1e308", "square-1e307"])
def test_unbounded_step_count_exits_1(options, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", *options, "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert "need a step count beyond floating-point range" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "fe0,count", [("1e14", "need 10185917 steps"), ("1e200", "need 1.019e+193 steps")]
)
def test_step_count_above_cap_exits_1(fe0, count, tmp_path, capsys):
    # finite counts that would take minutes to years to step through are refused up front
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--fe0", fe0, "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert f"{count}, above the cap MAX_STEPS = 5000000" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    code, _ = run_cli(["run", "--mode", "rwa", "--fe0", fe0], tmp_path)
    assert code == 0


@pytest.mark.parametrize("options", UNBOUNDED_STEP_COUNTS, ids=["fe-1e308", "square-1e307"])
def test_rwa_needs_no_step_count(options, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = run_cli(["run", "--mode", "rwa", *options], tmp_path)
    assert code == 0
    header, row = (line.split(",") for line in data.decode().strip().split("\n"))
    assert row[header.index("fidelity")] == "1.000000"


def test_rwa_needs_no_step_grid(tmp_path):
    # the same envelope that full mode refuses is one exact rotation under the RWA
    code, data = run_cli(["run", "--mode", "rwa", "--fwhm-fraction", "1e-6"], tmp_path)
    assert code == 0
    header, row = (line.split(",") for line in data.decode().strip().split("\n"))
    assert row[header.index("fidelity")] == "1.000000"


@pytest.mark.parametrize("command", ["table1", "table2", "table3"])
def test_rwa_tables_are_ideal_gates(command, tmp_path):
    code, data = run_cli([command, "--mode", "rwa"], tmp_path)
    assert code == 0
    header, *rows = (line.split(",") for line in data.decode().strip().split("\n"))
    assert rows
    for row in rows:
        assert row[header.index("mode")] == "rwa"
        assert row[header.index("fidelity")] == "1.000000"
        assert float(row[header.index("excited_population")]) <= 1e-28


@pytest.mark.parametrize("command", COMMANDS)
def test_run_config_is_the_only_source_of_defaults(command):
    parser = build_parser()
    args = parser.parse_args([command])
    assert {name for name, value in vars(args).items() if value is not None} == {"command"}
    assert config_from_args(args) == RunConfig(command=command)


# the coordinate columns of the sweeps, with the values they take
COORDINATE_VALUES = {
    "mode": st.sampled_from(("full", "rwa")),
    "envelope": st.sampled_from(ENVELOPE_KINDS),
    "input": st.sampled_from(sorted(INPUT_STATES) + ["avg"]),
    "gate": st.sampled_from(sorted(GATE_PRESETS) + ["custom"]),
    "sequence": st.sampled_from(SEQUENCE_LABELS),
    "fe0_rad_s": st.floats(0.0, 1e16),
    "fe1_rad_s": st.floats(0.0, 1e16),
    "width_param": st.floats(1e-6, 1e4),
    "tau_ns": st.floats(1e-6, 1e6),
    "theta_rad": st.floats(0.0, math.pi),
    "phi_rad": st.floats(-math.pi, math.pi),
}


def last_place(cell):
    """The unit in the last printed place of a decimal or scientific cell."""
    mantissa, _, exponent = cell.partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


@st.composite
def sweep_records(draw):
    # one column layout per file: single-gate rows carry the gate, sequence rows the label
    columns = ["mode", "fe0_rad_s", "fe1_rad_s", "envelope", "width_param", "tau_ns", "input"]
    columns += draw(st.sampled_from((["gate", "theta_rad", "phi_rad"], ["sequence"])))
    points = []
    for _ in range(draw(st.integers(1, 4))):
        points.append(
            SweepPoint(
                {c: draw(COORDINATE_VALUES[c]) for c in columns},
                fidelity=draw(st.floats(0.0, 1.0 + 1e-9)),
                excited_population=draw(st.none() | st.floats(0.0, 1.0)),
                overlap_phase=draw(st.none() | st.floats(-math.pi, math.pi)),
            )
        )
    return [p.record() for p in points]


@settings(max_examples=100, deadline=None)
@given(records=sweep_records())
def test_render_round_trip(records):
    assert render_json(records) == json.dumps(records, indent=2) + "\n"
    assert json.loads(render_json(records)) == records
    reader = csv.DictReader(io.StringIO(render_csv(records), newline=""))
    rows = list(reader)
    assert reader.fieldnames == list(records[0])
    assert len(rows) == len(records)
    for rec, row in zip(records, rows):
        for col, value in rec.items():
            cell = row[col]
            assert cell == _format_value(col, value)
            if isinstance(value, float):
                # printing rounds to the last printed place, and parsing is exact to an ulp
                slack = 2 * np.spacing(max(abs(value), abs(float(cell))))
                assert abs(float(cell) - value) <= 0.5 * last_place(cell) + slack


@pytest.mark.parametrize(
    "phase, cell", [(-1e-17, "0.000000"), (-4e-7, "0.000000"), (-6e-7, "-0.000001")]
)
def test_rounding_level_phase_prints_unsigned(phase, cell):
    # the rwa overlap phase is 0 in exact arithmetic; its residue's sign is not printed
    assert _format_value("overlap_phase", phase) == cell
    record = SweepPoint({"mode": "rwa"}, fidelity=1.0, overlap_phase=phase).record()
    assert render_csv([record]).splitlines()[1].endswith("," + cell)
    assert json.loads(render_json([record]))[0]["overlap_phase"] == phase  # JSON keeps the float
