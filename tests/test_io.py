"""File-format tests: TNS1/MSK1 byte layout, atomicity, CSV ingestion."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from tensorfill.errors import InputError
from tensorfill.io import (
    MASK_MAGIC,
    TENSOR_MAGIC,
    ingest_csv,
    read_mask,
    read_tensor,
    write_mask,
    write_tensor,
)


def test_tensor_file_byte_layout(tmp_path):
    """Header magic + LE dims, then float64 values first-index-fastest."""
    path = tmp_path / "t.tns"
    x = np.array([[[1.5, -2.0]]])
    write_tensor(path, x)
    expected = struct.pack("<4s3Q", TENSOR_MAGIC, 1, 1, 2) + struct.pack("<2d", 1.5, -2.0)
    assert path.read_bytes() == expected


def test_tensor_fortran_value_order(tmp_path):
    path = tmp_path / "t.tns"
    x = np.arange(8.0).reshape((2, 2, 2))
    write_tensor(path, x)
    body = path.read_bytes()[28:]
    values = struct.unpack("<8d", body)
    assert values == (
        x[0, 0, 0], x[1, 0, 0], x[0, 1, 0], x[1, 1, 0],
        x[0, 0, 1], x[1, 0, 1], x[0, 1, 1], x[1, 1, 1],
    )


def test_mask_file_byte_layout(tmp_path):
    path = tmp_path / "m.msk"
    mask = np.array([[[1.0, 0.0]]])
    write_mask(path, mask)
    assert path.read_bytes() == struct.pack("<4s3Q", MASK_MAGIC, 1, 1, 2) + b"\x01\x00"


def test_tensor_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "t.tns"
    for _ in range(5):
        x = rng.normal(size=(4, 3, 6))
        write_tensor(path, x)
        np.testing.assert_array_equal(read_tensor(path), x)
        first = path.read_bytes()
        write_tensor(path, read_tensor(path))
        assert path.read_bytes() == first


def test_mask_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "m.msk"
    mask = (rng.uniform(size=(5, 2, 7)) < 0.5).astype(float)
    write_mask(path, mask)
    np.testing.assert_array_equal(read_mask(path), mask)


# Peak traced memory of one read, in float64 tensors of the read's shape:
# the file's bytes, one float64 copy of the body and the checks' bool
# temporaries (isfinite for a tensor, three for a mask).  Slicing the body
# before converting it gave 3.13 and 1.63.
READ_PEAKS = [(read_tensor, write_tensor, 2.2), (read_mask, write_mask, 1.55)]


@pytest.mark.parametrize("read, write, tensors", READ_PEAKS)
def test_read_copies_the_file_body_once(tmp_path, read, write, tensors):
    path = tmp_path / "x.bin"
    dims = (60, 50, 40)
    write(path, (np.random.default_rng(7).uniform(size=dims) < 0.5).astype(float))
    tracemalloc.start()
    try:
        x = read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == dims and x.dtype == np.float64 and x.flags.writeable
    # the values live in an array of their own, not in the file's bytes
    assert (x if x.base is None else x.base).flags.owndata
    assert peak <= tensors * x.nbytes


def test_tensor_file_size_formula(tmp_path):
    path = tmp_path / "t.tns"
    write_tensor(path, np.zeros((12, 24, 7)))
    assert path.stat().st_size == 4 + 24 + 8 * 12 * 24 * 7 == 16156


def test_read_tensor_rejects_bad_magic(tmp_path):
    path = tmp_path / "t.tns"
    path.write_bytes(struct.pack("<4s3Q", b"XXXX", 1, 1, 1) + struct.pack("<d", 0.0))
    with pytest.raises(InputError, match="magic"):
        read_tensor(path)


def test_read_tensor_rejects_truncated_body(tmp_path):
    path = tmp_path / "t.tns"
    path.write_bytes(struct.pack("<4s3Q", TENSOR_MAGIC, 2, 2, 2) + b"\x00" * 10)
    with pytest.raises(InputError, match="value bytes"):
        read_tensor(path)


def test_read_tensor_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "t.tns"
    path.write_bytes(
        struct.pack("<4s3Q", TENSOR_MAGIC, 1, 1, 1) + struct.pack("<d", float("inf"))
    )
    with pytest.raises(InputError, match="non-finite"):
        read_tensor(path)


def test_read_mask_rejects_non_binary_byte(tmp_path):
    path = tmp_path / "m.msk"
    path.write_bytes(struct.pack("<4s3Q", MASK_MAGIC, 1, 1, 1) + b"\x02")
    with pytest.raises(InputError, match="0 or 1"):
        read_mask(path)


def test_failed_write_leaves_target_and_directory_clean(tmp_path):
    path = tmp_path / "t.tns"
    write_tensor(path, np.ones((2, 2, 2)))
    before = path.read_bytes()
    bad = np.ones((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(InputError):
        write_tensor(path, bad)
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["t.tns"]


def test_ingest_matches_mode0_unfolding(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,3,4\n5,6,7,8\n")
    tensor, mask = ingest_csv(path, (2, 2, 2))
    from tensorfill.tensor import unfold

    np.testing.assert_array_equal(
        unfold(tensor, 0), np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    )
    assert mask.sum() == 8


def test_ingest_blank_cell_becomes_missing(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,,4\n5,6,7,8\n")
    tensor, mask = ingest_csv(path, (2, 2, 2))
    assert mask[0, 0, 1] == 0.0
    assert tensor[0, 0, 1] == 0.0
    assert mask.sum() == 7


def test_ingest_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(InputError):
        ingest_csv(path, (2, 2, 2))


def test_ingest_rejects_non_numeric_with_location(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,3,4\n5,oops,7,8\n")
    with pytest.raises(InputError, match="row 2.*column 2"):
        ingest_csv(path, (2, 2, 2))


def test_ingest_rejects_wrong_row_count(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,3,4\n")
    with pytest.raises(InputError):
        ingest_csv(path, (2, 2, 2))
