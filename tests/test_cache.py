"""Binary kernel cache: roundtrips, listing, bit-exact verification."""

import numpy as np
import pytest

from harnack.cache import KernelCache, decode, encode_free, encode_green, encode_killed
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
    table = green_solve(B).values
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
    rec = decode(encode_green((0,), 2, green_solve(B).values))
    assert np.array_equal(rec.values, green_solve(B).values)


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
    cache.put_green((0,), 1, green_solve(make_ball((0,), 1)).values)
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
    table = green_solve(make_ball((0,), 2)).values
    path = cache.put_green((0,), 2, table)
    blob = path.read_bytes()
    for bad in (blob[:-8], blob + bytes(8), blob[: len(blob) - 8 * table.size]):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=path.name):
            cache.list_entries()  # the one file, named in the error
    # a square payload of the wrong ball size is rejected too
    other = green_solve(make_ball((0,), 1)).values
    path.write_bytes(blob[: len(blob) - 8 * table.size] + other.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="does not hold"):
        cache.list_entries()
