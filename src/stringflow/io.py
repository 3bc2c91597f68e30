"""On-disk formats: energy-ledger CSV, map snapshots, and event logs.

Snapshot layout: one JSON header line (utf-8, '\\n'-terminated) with keys
nx, ny, q, t, target, endianness ("little"), followed by the raw map values
as little-endian float64, row-major, node index varying slower than the
component index.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .action import LEDGER_COLUMNS, EnergyLedger, EnergyRecord
from .errors import SnapshotError
from .grid import empty_map
from .singular import SingularEvent


def write_ledger_csv(ledger: EnergyLedger, path: str):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(LEDGER_COLUMNS)
        for rec in ledger.records:
            w.writerow([repr(v) for v in rec.row()])


def read_ledger_csv(path: str) -> EnergyLedger:
    """SnapshotError, naming the file and the line, for a wrong header or a
    row that is not one float per column."""
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
            ledger.append(EnergyRecord(**vals))
    return ledger


def write_snapshot(path: str, values: np.ndarray, t: float, target_name: str):
    if values.ndim != 3:
        raise SnapshotError(f"snapshot values must be (nx, ny, q), got {values.shape}")
    nx, ny, q = values.shape
    header = {"nx": nx, "ny": ny, "q": q, "t": float(t),
              "target": target_name, "endianness": "little"}
    with open(path, "wb") as f:
        f.write((json.dumps(header) + "\n").encode("utf-8"))
        # the row-major copy's own buffer: no second copy through bytes
        f.write(np.ascontiguousarray(values, dtype="<f8").data)


def read_snapshot(path: str):
    """Returns (values, header_dict); values is a component-major map."""
    with open(path, "rb") as f:
        line = f.readline()
        try:
            header = json.loads(line.decode("utf-8"))
            nx, ny, q = (int(header[key]) for key in ("nx", "ny", "q"))
            header["t"] = float(header["t"])
        except (ValueError, KeyError, TypeError) as e:
            raise SnapshotError(f"bad snapshot header in {path} "
                                f"({type(e).__name__}: {e})") from e
        if header.get("endianness") != "little" or min(nx, ny, q) < 1:
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
            f.write(json.dumps(ev.to_dict()) + "\n")


def read_events_jsonl(path: str):
    events = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            events.append(SingularEvent(t=d["t"], ix=d["ix"], iy=d["iy"],
                                        R=d["R"], local_energy=d["local_energy"],
                                        kind=d["kind"]))
    return events


# aliases matching the external-interface naming
export_csv = write_ledger_csv
export_snapshot = write_snapshot


def write_run_outputs(state, out_dir: str, prefix: str = "run"):
    """Ledger, final snapshot, and events for a completed flow state."""
    os.makedirs(out_dir, exist_ok=True)
    write_ledger_csv(state.ledger, os.path.join(out_dir, f"{prefix}_ledger.csv"))
    write_snapshot(os.path.join(out_dir, f"{prefix}_final.snap"),
                   state.u.values, state.t, state.target.name)
    write_events_jsonl(state.events, os.path.join(out_dir, f"{prefix}_events.jsonl"))
