"""The README's library examples run as written, in order, on one namespace."""

import re
from pathlib import Path

import numpy as np

from lambda_holo import TRANSMON
from oracles import sequence_propagator

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_library_examples_run():
    first, second = python_blocks()
    ns: dict = {}
    exec(compile(first, f"{README}:python block 1", "exec"), ns)
    assert 0.0 <= ns["fid"] <= 1.0
    # the second block composes the pulses in `drives` on `sys`, with the first block's cfg
    drive = ns["drive"]
    ns.update(sys=TRANSMON, drives=[drive, drive])
    exec(compile(second, f"{README}:python block 2", "exec"), ns)
    want = sequence_propagator(TRANSMON, [drive, drive], ns["cfg"])
    assert np.array_equal(ns["u"], want)
