import json
import math
import warnings

import pytest

from lambda_holo.cli import RunConfig, build_parser, config_from_args, main

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


def test_table1_byte_identical_across_runs_and_workers(tmp_path):
    _, a = run_cli(["table1"], tmp_path, "a.csv")
    _, b = run_cli(["table1"], tmp_path, "b.csv")
    _, c = run_cli(["table1", "--workers", "4"], tmp_path, "c.csv")
    assert a == b == c


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


def test_unknown_flag_exits_2():
    # table3 takes its durations from --durations-ns, so it has no --tau-ns
    for args in (["table1", "--frequency", "1e8"], ["table3", "--tau-ns", "5"]):
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


def test_conflicting_frequency_flags_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--fe0", "5e10", "--fe0-ghz", "8.0", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_invalid_theta_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(
            ["run", "--gate", "custom", "--theta", "9.0", "--phi", "0.0",
             "-o", str(tmp_path / "x.csv")]
        )
    assert exc.value.code == 2


def test_workers_below_one_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--workers", "0", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "workers must be >= 1" in capsys.readouterr().err


def test_fig2_byte_identical_across_workers(tmp_path):
    args = ["fig2", "--durations-ns", "10", "12"]
    _, a = run_cli(args, tmp_path, "a.csv")
    _, b = run_cli(args + ["--workers", "3"], tmp_path, "b.csv")
    assert a == b


def test_empty_grid_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fig1", "--points", "0", "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "grid is empty" in capsys.readouterr().err


def test_steep_sech_emits_no_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, data = run_cli(["run", "--envelope", "sech", "--sech-beta", "800"], tmp_path)
    assert code == 0
    assert data.decode().count("\n") == 2


@pytest.mark.parametrize("tau_ns", ["1e-305", "1e-160"])
def test_unrepresentable_duration_exits_2(tau_ns, tmp_path, capsys):
    # 1e-305 ns overflows the pi-normalised amplitude, 1e-160 ns underflows the Gaussian's sigma^2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--tau-ns", tau_ns, "-o", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert f"duration {float(tau_ns) * 1e-9!r} s is not representable" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


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


@pytest.mark.parametrize("command", COMMANDS)
def test_run_config_is_the_only_source_of_defaults(command):
    parser = build_parser()
    args = parser.parse_args([command])
    assert {name for name, value in vars(args).items() if value is not None} == {"command"}
    assert config_from_args(parser, args) == RunConfig(command=command)
