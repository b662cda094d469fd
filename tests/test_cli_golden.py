"""Byte-for-byte CLI output on a fixed set of calls.

``data/cli_golden.json`` holds, for each argv, the exit code, stdout,
stderr and any file written through ``--output`` (``{tmp}`` in the argv
stands for a fresh directory).  The calls cover pinned sweeps in CSV and
JSON, both figures, report, ppt, simulate, validate (with and without the
leakage warning) and every exit-2 and exit-1 path.  argparse's own
messages are part of the recording, so the terminal width is pinned to the
80 columns it was recorded at.  ``record_golden.py`` re-records named calls
after a deliberate output change.
"""

import json
import pathlib

import pytest
import record_golden

from qillum.cli import main

GOLDEN = json.loads(record_golden.GOLDEN.read_text())


def _replay(case, capsys, tmp_path):
    """Run ``case``'s call in a fresh ``tmp_path``; assert its recorded bytes."""
    tmp_path.mkdir(exist_ok=True)
    try:
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in case["argv"]])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
    written = {path.name: path.read_bytes().decode() for path in tmp_path.iterdir()}
    assert written == case["files"]


@pytest.mark.parametrize("case", GOLDEN["calls"], ids=lambda case: " ".join(case["argv"]))
def test_output_is_byte_identical(case, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    _replay(case, capsys, tmp_path)


def test_calls_in_one_process_carry_nothing_to_the_next(capsys, monkeypatch, tmp_path):
    # main reuses each command's parser: every call, after any other, prints its recording
    monkeypatch.setenv("COLUMNS", "80")
    calls = [*GOLDEN["calls"], *reversed(GOLDEN["calls"])]
    # among them, a good report right after one that argparse exits on
    assert any(a["argv"][:1] == b["argv"][:1] == ["report"] and (a["code"], b["code"]) == (2, 0)
               for a, b in zip(calls, calls[1:]))
    for i, case in enumerate(calls):
        _replay(case, capsys, tmp_path / str(i))


# a call that writes through --output and one that argparse exits on
_REPLAYED = [" ".join(next(case["argv"] for case in GOLDEN["calls"] if case["files"])),
             " ".join(next(case["argv"] for case in GOLDEN["calls"] if case["code"] == 2))]


@pytest.mark.parametrize("ids", [[], _REPLAYED], ids=["none named", "two replayed"])
def test_record_golden_rewrites_the_file_in_its_own_format(ids, tmp_path):
    copy = tmp_path / "cli_golden.json"
    copy.write_bytes(record_golden.GOLDEN.read_bytes())
    record_golden.record(ids, GOLDEN["recorded_with"], copy)
    assert copy.read_bytes() == record_golden.GOLDEN.read_bytes()


def test_record_golden_refuses_a_call_not_in_the_file(tmp_path):
    copy = tmp_path / "cli_golden.json"
    copy.write_bytes(record_golden.GOLDEN.read_bytes())
    with pytest.raises(ValueError, match="not a recorded call"):
        record_golden.record(["validate --dim 9"], "text", copy)
    assert copy.read_bytes() == record_golden.GOLDEN.read_bytes()
