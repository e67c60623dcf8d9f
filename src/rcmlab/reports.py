"""Deterministic CSV and JSON report emission.

CSV uses RFC-4180-style quoting, '.' decimals, and LF line endings; JSON is
sorted-key with a trailing newline.  Reports never embed timestamps, so
re-running with identical config and seed reproduces files byte for byte; a
separate run metadata file carries the wall-clock time.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path


def _plain(value):
    return value.item() if hasattr(value, "item") else value  # numpy scalar


def write_csv(path: str | Path, fieldnames, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _format_cell(row.get(k)) for k in fieldnames})
    return path


def _format_cell(value):
    value = _plain(value)
    if isinstance(value, float):
        return repr(value)
    return value


def write_json(path: str | Path, payload) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return _plain(obj)


def write_run_meta(
    out_dir: str | Path, command: str, config_hash: str, runtimes: dict | None = None
) -> Path:
    """Wall-clock metadata, deliberately outside the deterministic payloads:
    the time, and the seconds each named stage took (``runtime_s.<name>``)."""
    path = Path(out_dir) / "run_meta.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"command: {command}\nconfig_hash: {config_hash}\n")
        fh.write(f"unix_time: {time.time():.3f}\n")
        for name, seconds in (runtimes or {}).items():
            fh.write(f"runtime_s.{name}: {seconds:.3f}\n")
    return path
