import os

import pytest

from greencell.csvio import (
    atomic_write_text,
    format_value,
    header_lines,
    write_csv,
    write_manifest,
)

from oracles import read_csv


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(3) == "3"
    assert format_value(0.1) == "0.1"
    # repr keeps floats round-trippable digit for digit
    assert float(format_value(1.0 / 3.0)) == 1.0 / 3.0
    assert format_value("power_law") == "power_law"


def test_header_lines_layout():
    lines = header_lines("1.2", "abc123", 7, "greencell sweep cfg.json")
    assert lines == [
        "# tool_version: 1.2",
        "# config_hash: abc123",
        "# seed: 7",
        "# command: greencell sweep cfg.json",
    ]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    rows = [
        {"a": 1.5, "b": True, "name": "x"},
        {"a": -2.0, "b": False, "name": "y"},
    ]
    write_csv(path, header_lines("0.1", "deadbeef", 0, "cmd"), ["a", "b", "name"], rows)
    meta, fields, parsed = read_csv(path)
    assert meta == {"tool_version": "0.1", "config_hash": "deadbeef",
                    "seed": "0", "command": "cmd"}
    assert fields == ["a", "b", "name"]
    assert parsed == [
        {"a": "1.5", "b": "true", "name": "x"},
        {"a": "-2.0", "b": "false", "name": "y"},
    ]


def test_atomic_write_replaces_and_cleans_up(tmp_path):
    path = tmp_path / "file.txt"
    path.write_text("old")
    atomic_write_text(path, "new")
    assert path.read_text() == "new"
    assert os.listdir(tmp_path) == ["file.txt"]  # no stray temp files


def test_atomic_write_failure_leaves_target(tmp_path):
    path = tmp_path / "file.txt"
    path.write_text("old")

    class Explodes:
        def __str__(self):
            raise RuntimeError("no text for you")

    with pytest.raises(TypeError):
        atomic_write_text(path, Explodes())
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["file.txt"]


def test_manifest_round_trip(tmp_path):
    import json

    path = tmp_path / "run.manifest.json"
    manifest = {
        "command": "greencell analyze cfg.json",
        "config_hash": "ff00",
        "seed": 3,
        "outputs": ["/tmp/a.csv"],
        "wall_clock_s": 1.25,
        "tool_version": "0.1",
    }
    write_manifest(path, manifest)
    data = json.loads(path.read_text())
    assert data == {
        "command": "greencell analyze cfg.json",
        "config_hash": "ff00",
        "seed": 3,
        "outputs": ["/tmp/a.csv"],
        "wall_clock_s": 1.25,
        "tool_version": "0.1",
    }
