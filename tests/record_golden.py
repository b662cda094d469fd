"""Re-record named calls of ``data/cli_golden.json`` after a deliberate output change.

    PYTHONPATH=src python tests/record_golden.py --recorded-with TEXT ID [ID ...]

An ID is a call's argv joined by spaces, as ``test_cli_golden.py`` names
its cases (``"validate --dim 8"``).  Each named call is replayed exactly as
the test replays it: ``COLUMNS=80``, ``{tmp}`` standing for a fresh
directory and a ``SystemExit`` code taken as the exit code.  Only the named
entries and ``recorded_with`` are rewritten; an ID that is not in the file
is refused.  The file keeps its own layout (one-space indent, each argv on
one line), so with no ID named it is written back byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import tempfile

from qillum.cli import main as qillum_main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"


def replay(argv: list[str]) -> dict:
    """Exit code, stdout, stderr and ``--output`` files of one call, as the test sees them."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = qillum_main([arg.replace("{tmp}", tmp) for arg in argv])
            except SystemExit as exc:
                code = exc.code
            files = {path.name: path.read_bytes().decode()
                     for path in sorted(pathlib.Path(tmp).iterdir())}
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def dumps(doc: dict) -> str:
    """``json.dumps(indent=1, ensure_ascii=False)`` with each argv list kept on one line."""
    marks = [f"\0argv {i}" for i in range(len(doc["calls"]))]
    text = json.dumps({**doc, "calls": [{**call, "argv": mark}
                                        for call, mark in zip(doc["calls"], marks)]},
                      indent=1, ensure_ascii=False)
    for call, mark in zip(doc["calls"], marks):
        text = text.replace(json.dumps(mark), json.dumps(call["argv"], ensure_ascii=False), 1)
    return text + "\n"


def record(ids: list[str], recorded_with: str | None, path: pathlib.Path = GOLDEN) -> None:
    """Replay the calls named by ``ids`` and rewrite their entries in ``path``."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    calls = {" ".join(call["argv"]): call for call in doc["calls"]}
    unknown = [ident for ident in ids if ident not in calls]
    if unknown:
        raise ValueError(f"not a recorded call in {path.name}: {unknown}")
    if ids:
        if not recorded_with:
            raise ValueError("re-recording a call needs the new recorded_with text")
        for ident in ids:
            calls[ident].update(replay(calls[ident]["argv"]))
        doc["recorded_with"] = recorded_with
    path.write_text(dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", metavar="ID", help="a call's argv joined by spaces")
    parser.add_argument("--recorded-with", metavar="TEXT",
                        help="the new recorded_with text (needed when an ID is named)")
    args = parser.parse_args()
    try:
        record(args.ids, args.recorded_with)
    except ValueError as exc:
        parser.error(str(exc))
