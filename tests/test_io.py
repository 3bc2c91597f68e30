import json
import math
import re

import numpy as np
import pytest

import stringflow as sf
from stringflow.errors import SnapshotError
from stringflow.grid import component_first
from stringflow.singular import SingularEvent


@pytest.fixture
def run_state():
    g = sf.build_grid(16, 16)
    tgt = sf.make_target("sphere", 4)
    u0 = sf.random_smooth_map(g, tgt, seed=0, amplitude=0.2)
    return sf.run(u0, g, tgt, sf.zero_background(4),
                  sf.FlowConfig(t_end=0.02, record_every=5))


def test_ledger_roundtrip_exact(run_state, tmp_path):
    p = tmp_path / "ledger.csv"
    sf.write_ledger_csv(run_state.ledger, str(p))
    back = sf.read_ledger_csv(str(p))
    assert len(back) == len(run_state.ledger)
    a = run_state.ledger.as_array()
    b = back.as_array()
    assert np.array_equal(a, b)  # repr() round-trips float64 exactly


def test_slotted_ledger_rows_round_trip_unchanged(run_state, tmp_path):
    # rows carry slots, not a dict each; a CSV written from the rows read
    # back is the file itself, byte for byte
    rec = run_state.ledger.records[0]
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.extra = 1.0
    p, q = tmp_path / "a.csv", tmp_path / "b.csv"
    sf.write_ledger_csv(run_state.ledger, str(p))
    back = sf.read_ledger_csv(str(p))
    assert back.records == run_state.ledger.records
    sf.write_ledger_csv(back, str(q))
    assert q.read_bytes() == p.read_bytes()


def test_ledger_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,energy\n0,1\n")
    with pytest.raises(SnapshotError):
        sf.read_ledger_csv(str(p))


@pytest.mark.parametrize("t", ["nan", "inf", "{t1}", "-1.0"],
                         ids=["nan", "inf", "repeated", "decreasing"])
def test_ledger_rejects_a_time_that_is_not_finite_and_increasing(run_state,
                                                                 tmp_path, t):
    # a SnapshotError naming the file and the CSV line, not the GridError of
    # EnergyLedger.append or a NaN row that later compares as a time
    p = tmp_path / "ledger.csv"
    sf.write_ledger_csv(run_state.ledger, str(p))
    lines = p.read_text().splitlines()
    cells = lines[2].split(",")
    cells[0] = t.format(t1=lines[1].split(",", 1)[0])
    lines[2] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotError, match=re.escape(f"{p}, line 3: t=")):
        sf.read_ledger_csv(str(p))


def test_snapshot_roundtrip_bitwise(run_state, tmp_path):
    p = tmp_path / "m.snap"
    sf.write_snapshot(str(p), run_state.u.values, run_state.t, "sphere")
    vals, header = sf.read_snapshot(str(p))
    assert vals.tobytes() == run_state.u.values.tobytes()
    # read back component-major, the layout the stencils read contiguously,
    # and written again byte for byte
    assert component_first(vals).flags.c_contiguous
    p2 = tmp_path / "again.snap"
    sf.write_snapshot(str(p2), vals, run_state.t, "sphere")
    assert p2.read_bytes() == p.read_bytes()
    assert header["t"] == run_state.t
    assert header["target"] == "sphere"
    assert header["endianness"] == "little"


def test_snapshot_header_is_json_line(run_state, tmp_path):
    p = tmp_path / "m.snap"
    sf.write_snapshot(str(p), run_state.u.values, 0.5, "sphere")
    with open(p, "rb") as f:
        header = json.loads(f.readline())
    assert header["nx"] == 16 and header["ny"] == 16 and header["q"] == 4


def test_snapshot_truncation_detected(run_state, tmp_path):
    p = tmp_path / "m.snap"
    sf.write_snapshot(str(p), run_state.u.values, 0.0, "sphere")
    data = p.read_bytes()
    p.write_bytes(data[:-17])
    with pytest.raises(SnapshotError, match="truncated"):
        sf.read_snapshot(str(p))


def test_snapshot_writer_refuses_a_time_the_reader_refuses(run_state,
                                                            tmp_path):
    # a NaN t would be written as "t": NaN, which read_snapshot refuses
    p = tmp_path / "m.snap"
    with pytest.raises(SnapshotError, match=re.escape(f"{p}: t must be "
                                                       "finite, got nan")):
        sf.write_snapshot(str(p), run_state.u.values, math.nan, "sphere")
    assert not p.exists()


@pytest.mark.parametrize("shape", [(4, 4, 0), (0, 4, 4), (4, 0, 4)])
def test_snapshot_writer_refuses_an_empty_axis(tmp_path, shape):
    # read_snapshot refuses a header with nx, ny or q below 1, so the
    # writer refuses such values before it opens the file
    p = tmp_path / "m.snap"
    with pytest.raises(SnapshotError, match=re.escape(f"got {shape}")):
        sf.write_snapshot(str(p), np.zeros(shape), 0.0, "sphere")
    assert not p.exists()


def test_snapshot_bad_header_detected(tmp_path):
    p = tmp_path / "m.snap"
    p.write_bytes(b"not json\n" + b"\x00" * 64)
    with pytest.raises(SnapshotError):
        sf.read_snapshot(str(p))


def test_events_roundtrip(tmp_path):
    evs = [SingularEvent(t=0.1, ix=3, iy=4, R=0.5, local_energy=0.7,
                         kind="concentration"),
           SingularEvent(t=0.2, ix=1, iy=2, R=0.5, local_energy=0.1,
                         kind="stiffness")]
    p = tmp_path / "ev.jsonl"
    sf.write_events_jsonl(evs, str(p))
    back = sf.read_events_jsonl(str(p))
    assert back == evs
    # one JSON line per event, keys in the order t, ix, iy, R,
    # local_energy, kind
    assert p.read_text() == "".join(
        json.dumps({"t": e.t, "ix": e.ix, "iy": e.iy, "R": e.R,
                    "local_energy": e.local_energy, "kind": e.kind}) + "\n"
        for e in evs)


@pytest.mark.parametrize("bad", [
    "not json",
    '{"t": 0.1, "ix": 3}',
    '{"t": 0.1, "ix": 3, "iy": 4, "R": 0.5, "local_energy": 0.7, '
    '"kind": "concentration", "dt": 1.0}',
    "[0.1, 3, 4, 0.5, 0.7]",
], ids=["not-json", "missing-key", "unknown-key", "not-an-object"])
def test_events_reader_names_the_bad_line(tmp_path, bad):
    good = ('{"t": 0.1, "ix": 3, "iy": 4, "R": 0.5, "local_energy": 0.7, '
            '"kind": "concentration"}')
    p = tmp_path / "ev.jsonl"
    p.write_text(good + "\n\n" + bad + "\n")
    with pytest.raises(SnapshotError,
                       match=re.escape(f"{p}, line 3: bad event")):
        sf.read_events_jsonl(str(p))


def test_write_run_outputs(run_state, tmp_path):
    out = tmp_path / "out"
    sf.write_run_outputs(run_state, str(out))
    assert (out / "run_ledger.csv").exists()
    assert (out / "run_final.snap").exists()
    assert (out / "run_events.jsonl").exists()
