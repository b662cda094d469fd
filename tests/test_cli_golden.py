"""Byte-for-byte CLI output on a fixed set of calls.

``data/cli_golden.json`` holds, for each argv, the exit code, stdout,
stderr and any file written through ``--output`` (``{tmp}`` in the argv
stands for a fresh directory).  The calls cover pinned sweeps in CSV and
JSON, both figures, report, ppt, simulate, validate (with and without the
leakage warning) and every exit-2 and exit-1 path.  argparse's own
messages are part of the recording, so the terminal width is pinned to the
80 columns it was recorded at.
"""

import json
import pathlib

import pytest

from qillum.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["calls"], ids=lambda case: " ".join(case["argv"]))
def test_output_is_byte_identical(case, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in case["argv"]])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
    written = {path.name: path.read_bytes().decode() for path in tmp_path.iterdir()}
    assert written == case["files"]
