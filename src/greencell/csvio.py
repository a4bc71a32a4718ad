"""CSV and manifest writing with reproducibility headers; shared column helpers.

Every CSV starts with `#` comment lines carrying the tool version, the
config hash, the seed, and the command line, so any output file can be
traced back to the exact run that produced it.  Writes are atomic
(temp file in the target directory, then rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def indexed(stem: str, values) -> dict:
    """Columns ``stem_0``, ``stem_1``, ... holding ``values`` as floats."""
    return {f"{stem}_{i}": float(v) for i, v in enumerate(values)}


def metric_columns(m, names) -> dict:
    """Fields ``names`` of the metrics ``m``, each NaN when ``m`` is None."""
    return {name: math.nan if m is None else getattr(m, name) for name in names}


def header_lines(version: str, config_hash: str, seed: int, command: str) -> list[str]:
    return [
        f"# tool_version: {version}",
        f"# config_hash: {config_hash}",
        f"# seed: {seed}",
        f"# command: {command}",
    ]


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str | os.PathLike, headers: list[str],
              fieldnames: list[str], rows: list[dict]) -> None:
    lines = list(headers)
    lines.append(",".join(fieldnames))
    for row in rows:
        lines.append(",".join(format_value(row[name]) for name in fieldnames))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_manifest(path: str | os.PathLike, manifest: dict) -> None:
    atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
