"""File-format tests: TNS1/MSK1 byte layout, atomicity, CSV ingestion."""

import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tensorfill.errors import InputError, UsageError
from tensorfill.io import (
    MASK_MAGIC,
    TENSOR_MAGIC,
    atomic_write_bytes,
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
    """A float, an integer and a bool mask write the same MSK1 bytes."""
    path = tmp_path / "m.msk"
    for dtype in (np.float64, np.int64, np.bool_):
        write_mask(path, np.array([[[1, 0]]], dtype=dtype))
        assert path.read_bytes() == (
            struct.pack("<4s3Q", MASK_MAGIC, 1, 1, 2) + b"\x01\x00")


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
    mask = rng.uniform(size=(5, 2, 7)) < 0.5
    write_mask(path, mask.astype(float))
    first = path.read_bytes()
    back = read_mask(path)
    assert back.dtype == np.bool_
    np.testing.assert_array_equal(back, mask)
    write_mask(path, back)
    assert path.read_bytes() == first


# Peak traced memory of one read, in bytes per entry, and the dtype it
# returns.  A tensor read holds the file's bytes, one float64 copy of the
# body and isfinite's bool temporary: at most 2.2 float64 tensors.  A mask
# read holds the file's bytes, the bool copy and the bool temporary of the
# 0/1 check: 3.08 bytes per entry.  Slicing the body before converting it
# gave 3.13 float64 tensors.
READ_PEAKS = [(read_tensor, write_tensor, np.float64, 2.2 * 8),
              (read_mask, write_mask, np.bool_, 3.25)]


@pytest.mark.parametrize("read, write, dtype, bytes_per_entry", READ_PEAKS)
def test_read_copies_the_file_body_once(tmp_path, read, write, dtype,
                                        bytes_per_entry):
    path = tmp_path / "x.bin"
    dims = (60, 50, 40)
    write(path, (np.random.default_rng(7).uniform(size=dims) < 0.5).astype(float))
    tracemalloc.start()
    try:
        x = read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == dims and x.dtype == dtype and x.flags.writeable
    # the values live in an array of their own, not in the file's bytes
    assert (x if x.base is None else x.base).flags.owndata
    assert peak <= bytes_per_entry * x.size


def test_tensor_file_size_formula(tmp_path):
    path = tmp_path / "t.tns"
    write_tensor(path, np.zeros((12, 24, 7)))
    assert path.stat().st_size == 4 + 24 + 8 * 12 * 24 * 7 == 16156


# Each reader, with its magic, the bytes of one entry and the word its
# body-length message uses.
READERS = {"TNS1": (read_tensor, TENSOR_MAGIC, 8, "value"),
           "MSK1": (read_mask, MASK_MAGIC, 1, "mask")}


def _malformed(magic, size, word):
    """Malformed files of one format: case -> (file bytes, the message
    after "<path>: ")."""
    head = struct.Struct("<4s3Q").pack
    return {
        "truncated-header": (magic + b"\x01" * 10, "truncated header (14 bytes)"),
        "bad-magic": (head(b"XXXX", 1, 1, 1) + b"\x00" * size,
                      f"bad magic b'XXXX', expected {magic.decode()}"),
        "zero-dimension": (head(magic, 2, 0, 2), "zero dimension in header (2,0,2)"),
        "short-body": (head(magic, 2, 2, 2) + b"\x00" * 3,
                       f"expected {8 * size} {word} bytes, found 3"),
    }


@pytest.mark.parametrize("case", ["truncated-header", "bad-magic",
                                  "zero-dimension", "short-body"])
@pytest.mark.parametrize("fmt", READERS)
def test_read_rejects_malformed_file(tmp_path, fmt, case):
    """Both formats go through one reader, with the same checks and
    messages: the header, then the body's length."""
    read, magic, size, word = READERS[fmt]
    content, message = _malformed(magic, size, word)[case]
    path = tmp_path / "x.bin"
    path.write_bytes(content)
    with pytest.raises(InputError) as info:
        read(path)
    assert str(info.value) == f"{path}: {message}"


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


def test_write_onto_a_directory_is_input_error_and_leaves_no_temp(tmp_path):
    """The rename onto a directory fails after the temp file is written;
    the write raises InputError and removes its temp file."""
    target = tmp_path / "d"
    target.mkdir()
    with pytest.raises(InputError, match=f"^cannot write {target}: "):
        atomic_write_bytes(target, b"payload")
    assert os.listdir(tmp_path) == ["d"]
    assert os.listdir(target) == []


WRITE_UNDER_UMASK = """
    import os
    import numpy as np
    from tensorfill.cli import _write_json
    from tensorfill.io import write_mask, write_tensor

    os.umask(0o027)
    write_tensor("t.tns", np.ones((2, 2, 2)))
    write_mask("m.msk", np.ones((2, 2, 2), dtype=bool))
    _write_json("r.json", {"mape": None})
"""


def test_written_files_take_their_mode_from_the_umask(tmp_path):
    """TNS1, MSK1 and JSON files get mode 0o666 less the umask, as a plain
    open() would give them, and no temp file is left behind."""
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", textwrap.dedent(WRITE_UNDER_UMASK)],
                   cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                   check=True, timeout=120)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"t.tns": 0o640, "m.msk": 0o640, "r.json": 0o640}


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
    assert mask.dtype == np.bool_
    assert not mask[0, 0, 1]
    assert tensor[0, 0, 1] == 0.0
    assert mask.sum() == 7


def test_ingest_reads_an_empty_line_as_one_blank_cell(tmp_path):
    """In a one-column grid an empty line is a missing value, not a line to
    skip."""
    path = tmp_path / "d.csv"
    path.write_text("1\n\n3\n")
    tensor, mask = ingest_csv(path, (3, 1, 1))
    np.testing.assert_array_equal(tensor.ravel(), [1.0, 0.0, 3.0])
    np.testing.assert_array_equal(mask.ravel(), [True, False, True])


def test_ingest_rejects_an_empty_line_in_a_wider_grid(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n\n3,4\n")
    with pytest.raises(InputError, match=r"expected 2 rows, found 3 \(row 2 is empty\)"):
        ingest_csv(path, (2, 2, 1))


def test_ingest_skips_a_utf8_byte_order_mark(tmp_path):
    """Spreadsheet exports often start with a byte-order mark; it is not
    part of the first cell."""
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
    tensor, mask = ingest_csv(path, (2, 1, 2))
    np.testing.assert_array_equal(tensor[:, 0, :], [[1.0, 2.0], [3.0, 4.0]])
    assert mask.all()


def test_ingest_of_a_directory_is_input_error(tmp_path):
    with pytest.raises(InputError, match=f"^cannot read {tmp_path}: "):
        ingest_csv(tmp_path, (1, 1, 1))


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


@pytest.mark.parametrize("dims", [(2, 2), (2, True, 4), (2, -2, -2), "2,2,2"])
def test_ingest_rejects_bad_dims(tmp_path, dims):
    path = tmp_path / "d.csv"
    path.write_text("1,2,3,4\n5,6,7,8\n")
    with pytest.raises(UsageError, match="dims"):
        ingest_csv(path, dims)
