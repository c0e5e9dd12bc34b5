"""The README's examples run as written: the library blocks in order on one namespace, and
every `lambda-holo` command line."""

import re
import shlex
from pathlib import Path

import numpy as np

from lambda_holo import TRANSMON
from lambda_holo.cli import main
from oracles import sequence_propagator

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def cli_examples() -> list[list[str]]:
    """The arguments of every `lambda-holo` line in the README's sh blocks."""
    lines = [line for block in blocks("sh") for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("lambda-holo ")]


def test_readme_library_examples_run():
    first, second = blocks("python")
    ns: dict = {}
    exec(compile(first, f"{README}:python block 1", "exec"), ns)
    assert 0.0 <= ns["fid"] <= 1.0
    # the second block composes the pulses in `drives` on `sys`, with the first block's cfg
    drive = ns["drive"]
    ns.update(sys=TRANSMON, drives=[drive, drive])
    exec(compile(second, f"{README}:python block 2", "exec"), ns)
    want = sequence_propagator(TRANSMON, [drive, drive], ns["cfg"])
    assert np.array_equal(ns["u"], want)


def test_readme_cli_examples_run(tmp_path):
    examples = cli_examples()
    assert examples
    for i, args in enumerate(examples):
        # write into tmp_path: to the file the example names, or one per example
        if "-o" in args:
            at = args.index("-o") + 1
            args[at] = str(tmp_path / args[at])
        else:
            args += ["-o", str(tmp_path / f"example{i}.csv")]
        assert main(args) == 0, args
