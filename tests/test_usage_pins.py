"""Help and usage pins: stdout, stderr and exit code of ``main(argv)`` at
``COLUMNS=80`` for every help screen, the version line and the usage errors.

The CLI builds its argparse parsers anew on each call; these pins keep what
a user sees fixed while that construction changes.  argparse lays out help
and error text differently between Python versions, so the pins hold for the
minor version that wrote them and are skipped under any other.  To re-pin a
deliberate change, run ``PYTHONPATH=src python tests/test_usage_pins.py >
tests/usage_pins.json`` and say in CHANGES.md why the text moved.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from fracsym.cli import main

COMMANDS = ("classify", "reduce", "verify", "frac-deriv", "report")

ARGVS = [
    [], ["--help"], ["-h"], ["--version"], ["bogus"],
    *([command, "--help"] for command in COMMANDS),
    ["classify", "--truncation", "5"],
    ["verify"],
    ["classify", "--zeta", "2"],
    ["classify", "--m", "x"],
    ["classify", "--alpha"],
    ["--alpha", "1/2", "classify", "--case", "1.2"],
    ["classify", "classify"],
    ["classify", "--version"],
    ["classify", "--xi-t", "-t"],
    ["--", "classify"],
    ["report"],
    ["frac-deriv", "--expr", "t"],
    ["reduce", "--generator-index", "x"],
    ["classify", "--case", "9.9"],
    # an unknown option first: the root parser hands the command its flags
    ["--bogus", "verify"],
    ["--bogus", "classify", "--help"],
]

PIN_FILE = pathlib.Path(__file__).with_name("usage_pins.json")
PYTHON = f"{sys.version_info[0]}.{sys.version_info[1]}"


def run(argv):
    """stdout, stderr and exit code of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:   # --help and --version exit from argparse
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def read_pins():
    return json.loads(PIN_FILE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pins():
    doc = read_pins()
    if doc["python"] != PYTHON:
        pytest.skip(f"pinned under Python {doc['python']}")
    return doc["pins"]


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_help_and_usage_bytes_are_pinned(argv, pins, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv) == pins[" ".join(argv)]


def test_every_argv_is_pinned():
    assert set(read_pins()["pins"]) == {" ".join(argv) for argv in ARGVS}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    pins = {" ".join(argv): run(argv) for argv in ARGVS}
    json.dump({"python": PYTHON, "pins": pins}, sys.stdout, indent=1,
              ensure_ascii=False)
    print()
