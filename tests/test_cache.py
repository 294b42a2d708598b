"""Binary kernel cache: roundtrips, listing, bit-exact verification."""

import struct

import numpy as np
import pytest

from harnack.cache import MAX_KILLED_STEPS, KernelCache, decode, encode_free, encode_green, encode_killed
from harnack.green import green_solve
from harnack.kernel import free_field, iter_killed_vectors
from harnack.lattice import make_ball


def test_free_record_roundtrip(tmp_path):
    cache = KernelCache(tmp_path)
    field = free_field(2, 7)
    path = cache.put_free(2, 7, field)
    assert path.name == "free-d2-n7.zdk"
    rec = decode(path.read_bytes())
    assert rec.kind == 0 and rec.dimension == 2 and rec.n == 7
    assert np.array_equal(rec.values, field)


def test_killed_and_green_roundtrips(tmp_path):
    cache = KernelCache(tmp_path)
    B = make_ball((1, -1), 2)
    *_, (_, block) = iter_killed_vectors(B, [B.index_of((1, 0))], 3)
    vec = block[:, 0]
    kp = cache.put_killed(B.center, B.radius, (1, 0), 3, vec)
    krec = decode(kp.read_bytes())
    assert krec.kind == 1 and np.array_equal(krec.values, vec)
    table = green_solve(B)
    gp = cache.put_green(B.center, B.radius, table)
    grec = decode(gp.read_bytes())
    assert grec.kind == 2 and np.array_equal(grec.values, table)


def test_encode_decode_inverse():
    field = free_field(1, 5)
    rec = decode(encode_free(1, 5, field))
    assert np.array_equal(rec.values, field)
    B = make_ball((0,), 2)
    *_, (_, block) = iter_killed_vectors(B, [B.index_of((0,))], 2)
    vec = block[:, 0]
    rec = decode(encode_killed((0,), 2, (0,), 2, vec))
    assert np.array_equal(rec.values, vec)
    rec = decode(encode_green((0,), 2, green_solve(B)))
    assert np.array_equal(rec.values, green_solve(B))


def test_decode_rejects_bad_magic_and_truncation():
    blob = encode_free(1, 3, free_field(1, 3))
    with pytest.raises(ValueError):
        decode(b"XXXX" + blob[4:])
    with pytest.raises(Exception):
        decode(blob[:-5])


def test_list_entries_is_sorted_and_typed(tmp_path):
    cache = KernelCache(tmp_path)
    for n in (3, 1, 2):
        cache.put_free(1, n, free_field(1, n))
    cache.put_green((0,), 1, green_solve(make_ball((0,), 1)))
    entries = cache.list_entries()
    assert [e["file"] for e in entries] == sorted(e["file"] for e in entries)
    assert {e["kind"] for e in entries} == {"free", "green"}


def test_verify_detects_any_corruption(tmp_path):
    cache = KernelCache(tmp_path)
    for n in range(6):
        cache.put_free(2, n, free_field(2, n))
    assert cache.verify(fraction=1.0, seed=0)["ok"]
    victim = sorted(tmp_path.glob("*.zdk"))[2]
    blob = victim.read_bytes()
    # flip one payload byte
    victim.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
    summary = cache.verify(fraction=1.0, seed=0)
    assert not summary["ok"]
    assert summary["mismatches"] == [victim.name]
    # truncation is reported as corruption of the same file, not a crash
    victim.write_bytes(blob[:-3])
    summary = cache.verify(fraction=1.0, seed=0)
    assert not summary["ok"] and victim.name in summary["mismatches"]


def test_verify_sampling_is_seeded(tmp_path):
    cache = KernelCache(tmp_path)
    for n in range(10):
        cache.put_free(1, n, free_field(1, n))
    a = cache.verify(fraction=0.3, seed=1)
    b = cache.verify(fraction=0.3, seed=1)
    assert a == b
    assert a["checked"] == 3


def test_clear_removes_everything(tmp_path):
    cache = KernelCache(tmp_path)
    cache.put_free(1, 1, free_field(1, 1))
    cache.put_free(1, 2, free_field(1, 2))
    assert cache.clear() == 2
    assert cache.list_entries() == []
    assert cache.verify(fraction=0.01, seed=0)["total"] == 0


def test_truncated_file_is_a_named_error(tmp_path, capsys):
    from harnack.cli import EXIT_AUDIT_FAILURE, main

    cache = KernelCache(tmp_path)
    path = cache.put_free(1, 5, free_field(1, 5))
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(ValueError, match=path.name):
        cache.list_entries()
    assert main(["cache", "list", "--cache-dir", str(tmp_path)]) == EXIT_AUDIT_FAILURE
    err = capsys.readouterr().err
    assert path.name in err and "Traceback" not in err


def test_green_payload_must_be_the_square_table_of_its_ball(tmp_path):
    cache = KernelCache(tmp_path)
    table = green_solve(make_ball((0,), 2))
    path = cache.put_green((0,), 2, table)
    blob = path.read_bytes()
    for bad in (blob[:-8], blob + bytes(8), blob[: len(blob) - 8 * table.size]):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=path.name):
            cache.list_entries()  # the one file, named in the error
    # a square payload of the wrong ball size is rejected too
    other = green_solve(make_ball((0,), 1))
    path.write_bytes(blob[: len(blob) - 8 * table.size] + other.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="does not hold"):
        cache.list_entries()


# --- one layout rule: what the writers refuse, the reader rejects ----------

BAD_WRITES = {
    "free-payload-shape": (encode_free, "put_free", (1, 2, np.zeros(4))),
    "free-payload-2d": (encode_free, "put_free", (1, 2, np.zeros((5, 1)))),
    "free-dimension-0": (encode_free, "put_free", (0, 2, np.zeros(()))),
    "free-dimension-65": (encode_free, "put_free", (65, 0, np.zeros(1))),
    "green-dimension-4": (encode_green, "put_green", ((0, 0, 0, 0), 1, np.zeros((9, 9)))),
    "free-negative-steps": (encode_free, "put_free", (1, -1, np.zeros(0))),
    "killed-payload-shape": (encode_killed, "put_killed", ((0, 0), 2, (1, 0), 1, np.zeros(12))),
    "killed-start-dimension": (encode_killed, "put_killed", ((0, 0), 2, (0, 0, 0), 1, np.zeros(13))),
    "killed-start-outside": (encode_killed, "put_killed", ((0, 0), 2, (2, 1), 1, np.zeros(13))),
    "killed-negative-radius": (encode_killed, "put_killed", ((0,), -1, (0,), 1, np.zeros(0))),
    "killed-negative-steps": (encode_killed, "put_killed", ((0, 0), 2, (1, 0), -1, np.zeros(13))),
    "killed-steps-beyond-cap": (encode_killed, "put_killed", ((0,), 1, (0,), MAX_KILLED_STEPS + 1, np.zeros(3))),
    "killed-coordinate-beyond-i64": (encode_killed, "put_killed", ((2**63,), 0, (2**63,), 0, np.zeros(1))),
    "green-payload-shape": (encode_green, "put_green", ((0,), 2, np.zeros((3, 3)))),
    "green-payload-flat": (encode_green, "put_green", ((0, 0), 1, np.zeros(25))),
    "green-dimension-0": (encode_green, "put_green", ((), 1, np.zeros((1, 1)))),
    "green-negative-radius": (encode_green, "put_green", ((0,), -1, np.zeros((0, 0)))),
}


@pytest.mark.parametrize("case", sorted(BAD_WRITES))
def test_writers_refuse_what_the_reader_rejects(case, tmp_path):
    encode, put, args = BAD_WRITES[case]
    with pytest.raises(ValueError):
        encode(*args)
    cache = KernelCache(tmp_path / "cache")
    with pytest.raises(ValueError):
        getattr(cache, put)(*args)
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


def test_every_valid_kind_round_trips_bytes_and_arrays(tmp_path):
    B = make_ball((1, -1), 2)
    *_, (_, block) = iter_killed_vectors(B, [B.index_of((2, -1))], 3)
    records = [
        (encode_free, "put_free", (1, 2, np.zeros(5))),
        (encode_free, "put_free", (3, 2, free_field(3, 2))),
        (encode_killed, "put_killed", ((0, 0), 2, (1, 0), 1, np.zeros(13))),
        (encode_killed, "put_killed", (B.center, 2, (2, -1), 3, block[:, 0])),
        (encode_killed, "put_killed", ((5,), 0, (5,), 0, np.ones(1))),
        (encode_green, "put_green", ((0, 0), 1, np.zeros((5, 5)))),
        (encode_green, "put_green", (B.center, 2, green_solve(B))),
    ]
    cache = KernelCache(tmp_path)
    for encode, put, args in records:
        blob = encode(*args)
        assert getattr(cache, put)(*args).read_bytes() == blob
        rec = decode(blob)
        assert np.array_equal(rec.values, args[-1]) and rec.values.shape == np.shape(args[-1])
        if rec.kind == 0:
            again = encode_free(rec.dimension, rec.n, rec.values)
        elif rec.kind == 1:
            again = encode_killed(rec.center, rec.radius, rec.start, rec.n, rec.values)
        else:
            again = encode_green(rec.center, rec.radius, rec.values)
        assert again == blob
    assert [e["kind"] for e in cache.list_entries()] == ["free", "free", "green", "green", "killed", "killed", "killed"]


def test_killed_step_cap_is_itself_a_valid_step_count():
    blob = encode_killed((0,), 1, (0,), MAX_KILLED_STEPS, np.zeros(3))
    assert len(blob) == 68 and decode(blob).n == MAX_KILLED_STEPS


def _raw(d: int, kind: int, n: int, ints=(), values: int = 0) -> bytes:
    """A ZDK1 file packed by hand, past the writers' checks."""
    return struct.pack(f"<4sIIq{len(ints)}q", b"ZDK1", d, kind, n, *ints) + bytes(8 * values)


BAD_READS = {
    "unknown-kind": _raw(1, 3, 0, (0, 0), 1),
    "dimension-0": _raw(0, 0, 0, (), 1),
    "dimension-65": _raw(65, 0, 0, (), 1),
    "dimension-4": _raw(4, 2, 0, (1, 0, 0, 0, 0), 81),  # B((0, 0, 0, 0), 1): 9 points
    "negative-steps": _raw(1, 0, -1, (), 0),
    "negative-radius": _raw(1, 2, 0, (-1, 0), 0),
    "header-shorter-than-its-integers": _raw(2, 2, 0, (1, 0)),
    "killed-start-outside-its-ball": _raw(1, 1, 0, (1, 0, 2), 3),
    "killed-steps-2^40": _raw(1, 1, 1 << 40, (1, 0, 0), 3),  # 68 bytes naming a walk of 2^40 steps
}


@pytest.mark.parametrize("case", sorted(BAD_READS))
def test_decode_rejects_each_malformed_header(case, tmp_path, capsys):
    from harnack.cli import EXIT_AUDIT_FAILURE, main

    with pytest.raises(ValueError):
        decode(BAD_READS[case])
    KernelCache(tmp_path).put_free(1, 1, free_field(1, 1))
    (tmp_path / f"{case}.zdk").write_bytes(BAD_READS[case])
    assert main(["cache", "list", "--cache-dir", str(tmp_path)]) == EXIT_AUDIT_FAILURE
    captured = capsys.readouterr()
    assert f"{case}.zdk" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
