"""On-disk formats: energy-ledger CSV, map snapshots, and event logs.

Snapshot layout: one JSON header line (utf-8, '\\n'-terminated) with keys
nx, ny, q, t, target, endianness ("little"), followed by the raw map values
as little-endian float64, row-major, node index varying slower than the
component index.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict

import numpy as np

from .action import LEDGER_COLUMNS, EnergyLedger, EnergyRecord
from .errors import GridError, SnapshotError
from .grid import empty_map
from .singular import SingularEvent


def write_ledger_csv(ledger: EnergyLedger, path: str):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(LEDGER_COLUMNS)
        for rec in ledger.records:
            w.writerow([repr(v) for v in rec.row()])


def read_ledger_csv(path: str) -> EnergyLedger:
    """SnapshotError, naming the file and the line, for a wrong header, a
    row that is not one float per column, or a t that EnergyLedger.append
    refuses (not finite, or not above the previous row's)."""
    ledger = EnergyLedger()
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header != LEDGER_COLUMNS:
            raise SnapshotError(f"unexpected ledger columns in {path}: {header}")
        for row in r:
            try:
                vals = dict(zip(LEDGER_COLUMNS, map(float, row), strict=True))
            except ValueError as e:
                raise SnapshotError(f"{path}, line {r.line_num}: not "
                                    f"{len(LEDGER_COLUMNS)} floats ({e})") from e
            try:
                ledger.append(EnergyRecord(**vals))
            except GridError as e:
                raise SnapshotError(f"{path}, line {r.line_num}: {e}") from e
    return ledger


def write_snapshot(path: str, values: np.ndarray, t: float, target_name: str):
    """SnapshotError, before the file is opened, for values that are not a
    map with nx, ny and q at least 1, or a t that read_snapshot would refuse
    (not finite)."""
    if values.ndim != 3 or min(values.shape) < 1:
        raise SnapshotError(f"snapshot values must be (nx, ny, q), each at "
                            f"least 1, got {values.shape}")
    if not math.isfinite(t):
        raise SnapshotError(f"snapshot {path}: t must be finite, got {t!r}")
    nx, ny, q = values.shape
    header = {"nx": nx, "ny": ny, "q": q, "t": float(t),
              "target": target_name, "endianness": "little"}
    with open(path, "wb") as f:
        f.write((json.dumps(header) + "\n").encode("utf-8"))
        # the row-major copy's own buffer: no second copy through bytes
        f.write(np.ascontiguousarray(values, dtype="<f8").data)


def read_snapshot(path: str):
    """Returns (values, header_dict); values is a component-major map.
    SnapshotError, naming the file, for a header that is not JSON, lacks a
    key, has a non-positive size or a non-finite t, or for a payload of the
    wrong length."""
    with open(path, "rb") as f:
        line = f.readline()
        try:
            header = json.loads(line.decode("utf-8"))
            nx, ny, q = (int(header[key]) for key in ("nx", "ny", "q"))
            header["t"] = float(header["t"])
        except (ValueError, KeyError, TypeError) as e:
            raise SnapshotError(f"bad snapshot header in {path} "
                                f"({type(e).__name__}: {e})") from e
        if (header.get("endianness") != "little" or min(nx, ny, q) < 1
                or not math.isfinite(header["t"])):
            raise SnapshotError(f"bad snapshot header in {path}: {header}")
        raw = f.read()
    expected = nx * ny * q * 8
    if len(raw) != expected:
        raise SnapshotError(f"snapshot {path} truncated: expected {expected} "
                            f"payload bytes at offset {len(line)}, got {len(raw)}")
    # one copy from the file's row-major bytes into a component-major map,
    # the layout the stencils read contiguously
    values = empty_map((nx, ny, q))
    values[...] = np.frombuffer(raw, dtype="<f8").reshape(nx, ny, q)
    return values, header


def write_events_jsonl(events, path: str):
    with open(path, "w") as f:
        for ev in events:
            f.write(json.dumps(asdict(ev)) + "\n")


def read_events_jsonl(path: str):
    """SnapshotError, naming the file and the line, for a line that is not
    one event's JSON object."""
    events = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(SingularEvent(**json.loads(line)))
            except (ValueError, TypeError) as e:
                raise SnapshotError(f"{path}, line {n}: bad event ({e})") from e
    return events


def write_run_outputs(state, out_dir: str):
    """Ledger, final snapshot, and events for a completed flow state."""
    os.makedirs(out_dir, exist_ok=True)
    write_ledger_csv(state.ledger, os.path.join(out_dir, "run_ledger.csv"))
    write_snapshot(os.path.join(out_dir, "run_final.snap"),
                   state.u.values, state.t, state.target.name)
    write_events_jsonl(state.events, os.path.join(out_dir, "run_events.jsonl"))
