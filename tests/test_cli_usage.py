"""Help text and usage errors of ``helly``, byte for byte.

``cli_usage_golden.json`` holds, for each argv below and at two terminal
widths, the exit code, stdout and stderr of ``main(argv)``. None of these
argv lists names an instance file that is read: each ends in help or a
usage error. argparse wraps its text to ``COLUMNS``, so the test pins it.
The golden was recorded under CPython 3.11; other versions word some
argparse messages differently. Rewrite it with
``PYTHONPATH=src python tests/test_cli_usage.py``, and only for a change
that means to alter what the CLI prints.

The other tests count the ``ArgumentParser``s a call builds: one for a
well-formed command, the whole tree of eight for help and usage errors.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib

import pytest

from helly.cli import main
from helly.instances import dumps_disks, dumps_linear, tetrahedral_system, venn_triple

GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_usage_golden.json"
COLUMNS = (80, 30)
ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["linear"],
    ["linear", "-h"],
    ["linear", "bogus"],
    ["linear", "certify"],
    ["linear", "certify", "-h"],
    ["linear", "sample", "-h"],
    ["linear", "sample", "p"],
    ["disks"],
    ["disks", "-h"],
    ["disks", "check", "-h"],
    ["disks", "svg", "-h"],
    ["disks", "svg", "p"],
    ["disks", "check", "p", "--precision", "x"],
    ["disks", "svg", "p", "--out", "o", "--precision", "3"],
    ["linear", "certify", "p", "extra"],
    ["linear", "certify", "p", "--format", "xml"],
    ["linear", "certify", "--bogus", "p"],
    ["linear", "certify", "p", "--form", "xml"],
    ["--format", "json", "linear", "certify", "p"],
    ["linear", "--format", "json", "certify", "p"],
    ["gen"],
    ["gen", "-h"],
    ["gen", "nope"],
    ["gen", "tetrahedron", "--n", "x"],
    ["gen", "tetrahedron", "extra"],
    ["linear", "check", "p"],
    ["disks", "certify", "p"],
]


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _key(columns: int, argv) -> str:
    return f"{columns}: helly {' '.join(argv)}".rstrip()


CASES = [(columns, argv) for columns in COLUMNS for argv in ARGVS]


@pytest.mark.parametrize("columns, argv", CASES, ids=[_key(c, a) for c, a in CASES])
def test_help_and_usage_errors_match_the_golden(columns, argv, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    monkeypatch.setenv("COLUMNS", str(columns))
    assert _run(argv) == golden[_key(columns, argv)]


def _count_parsers(monkeypatch) -> list:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def test_a_well_formed_command_builds_one_parser(tmp_path, monkeypatch):
    linear, disks = tmp_path / "t.json", tmp_path / "v.json"
    linear.write_text(dumps_linear(tetrahedral_system()))
    disks.write_text(dumps_disks(venn_triple()))
    built = _count_parsers(monkeypatch)
    for argv, code in (
        (["linear", "certify", str(linear)], 1),
        (["linear", "sample", str(linear), "--size", "3", "--trials", "5"], 0),
        (["disks", "check", str(disks), "--format", "json"], 1),
        (["disks", "svg", str(disks), "--out", str(tmp_path / "v.svg")], 0),
        (["gen", "tetrahedron"], 0),
    ):
        built.clear()
        assert main(argv) == code
        assert built == [" ".join(("helly", *argv[: 1 if argv[0] == "gen" else 2]))]


@pytest.mark.parametrize(
    "argv, parsers",
    [(["-h"], 8), (["linear"], 8), (["linear", "certify", "p", "extra"], 1 + 8)],
    ids=["top-help", "no-command", "leftover-words"],
)
def test_help_and_usage_errors_build_the_whole_tree(argv, parsers, monkeypatch):
    built = _count_parsers(monkeypatch)
    with pytest.raises(SystemExit):
        main(argv)
    assert len(built) == parsers


if __name__ == "__main__":
    records = {}
    for columns, argv in CASES:
        os.environ["COLUMNS"] = str(columns)
        records[_key(columns, argv)] = _run(argv)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
