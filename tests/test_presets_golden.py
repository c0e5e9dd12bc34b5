"""Every CLI preset's default CSV, in both modes, compared byte for byte with tests/golden/.

The full-mode golden of a preset is tests/golden/<preset>.csv and the RWA one
tests/golden/<preset>_rwa.csv. A change that is meant to move a printed digit
regenerates the file with `lambda-holo <preset> [--mode rwa] -o <golden>` and
says why. The JSON of every preset is pinned to the bytes of the standard
library's indenting encoder.
"""

import json
from pathlib import Path

import pytest

from lambda_holo.cli import main, render_json

GOLDEN = Path(__file__).parent / "golden"
PRESETS = ("table1", "table2", "table3", "fig1", "fig2", "run")
CASES = [(preset, "full", preset) for preset in PRESETS] + [
    (preset, "rwa", f"{preset}_rwa") for preset in PRESETS
]


@pytest.mark.parametrize("preset, mode, golden", CASES, ids=[case[2] for case in CASES])
def test_default_csv_matches_golden(preset, mode, golden, tmp_path):
    out = tmp_path / f"{golden}.csv"
    assert main([preset, "--mode", mode, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{golden}.csv").read_bytes()


@pytest.mark.parametrize("preset, mode, golden", CASES, ids=[case[2] for case in CASES])
def test_json_is_the_standard_encoding(preset, mode, golden, tmp_path):
    # string, float and None cells (fig2's product rows print null); floats round-trip
    # through json.loads, so the parsed records are the ones the CLI rendered
    out = tmp_path / f"{golden}.json"
    assert main([preset, "--mode", mode, "--format", "json", "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    records = json.loads(text)
    assert render_json(records) == text == json.dumps(records, indent=2) + "\n"
