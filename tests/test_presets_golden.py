"""Every CLI preset's default CSV, compared byte for byte with tests/golden/.

A change that is meant to move a printed digit regenerates the file with
`lambda-holo <preset> -o tests/golden/<preset>.csv` and says why.
"""

from pathlib import Path

import pytest

from lambda_holo.cli import main

GOLDEN = Path(__file__).parent / "golden"
PRESETS = ("table1", "table2", "table3", "fig1", "fig2", "run")


@pytest.mark.parametrize("preset", PRESETS)
def test_default_csv_matches_golden(preset, tmp_path):
    out = tmp_path / f"{preset}.csv"
    assert main([preset, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{preset}.csv").read_bytes()
