"""File formats: TNS1 tensors, MSK1 masks, and CSV ingestion.

Both binary formats share a 28-byte header: a 4-byte magic string followed by
three unsigned 64-bit little-endian dimensions (n1, n2, n3).  TNS1 stores
n1*n2*n3 IEEE-754 float64 little-endian values; MSK1 stores one byte (0 or 1)
per entry.  Values are laid out with the first index varying fastest, i.e.
element (i1, i2, i3) lives at linear offset i1 + n1*i2 + n1*n2*i3.

All writers are atomic: content goes to a temporary file in the destination
directory, is fsynced, then renamed over the target.
"""

import csv
import os
import struct
import tempfile

import numpy as np

from .errors import InputError
from .tensor import check_mask, check_tensor

TENSOR_MAGIC = b"TNS1"
MASK_MAGIC = b"MSK1"
_HEADER = struct.Struct("<4s3Q")


def atomic_write_bytes(path, payload):
    """Write ``payload`` to ``path`` via a temp file in the same directory.

    Raises InputError when the file cannot be written, for example because
    its directory does not exist; no temp file is left behind.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tensorfill-")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _read_header(raw, magic, path):
    if len(raw) < _HEADER.size:
        raise InputError(f"{path}: truncated header ({len(raw)} bytes)")
    got, n1, n2, n3 = _HEADER.unpack_from(raw)
    if got != magic:
        raise InputError(
            f"{path}: bad magic {got!r}, expected {magic.decode()}"
        )
    if min(n1, n2, n3) == 0:
        raise InputError(f"{path}: zero dimension in header ({n1},{n2},{n3})")
    return (n1, n2, n3)


def _read_file(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def write_tensor(path, x):
    """Serialize a third-order tensor to a TNS1 file."""
    x = check_tensor(x)
    header = _HEADER.pack(TENSOR_MAGIC, *x.shape)
    atomic_write_bytes(path, header + x.astype("<f8").tobytes(order="F"))


def read_tensor(path):
    """Read a TNS1 file back into a float64 array of shape (n1, n2, n3)."""
    raw = _read_file(path)
    dims = _read_header(raw, TENSOR_MAGIC, path)
    count = dims[0] * dims[1] * dims[2]
    found = len(raw) - _HEADER.size
    if found != 8 * count:
        raise InputError(f"{path}: expected {8 * count} value bytes, found {found}")
    # one owning, writable copy of the body, read in place from the file bytes
    values = np.frombuffer(raw, "<f8", count, _HEADER.size).astype(np.float64)
    return check_tensor(values.reshape(dims, order="F"), f"{path}: tensor")


def write_mask(path, mask):
    """Serialize a binary mask to an MSK1 file."""
    mask = check_mask(mask)
    header = _HEADER.pack(MASK_MAGIC, *mask.shape)
    body = mask.astype(np.uint8).tobytes(order="F")
    atomic_write_bytes(path, header + body)


def read_mask(path):
    """Read an MSK1 file back into a float64 array of 0s and 1s."""
    raw = _read_file(path)
    dims = _read_header(raw, MASK_MAGIC, path)
    count = dims[0] * dims[1] * dims[2]
    found = len(raw) - _HEADER.size
    if found != count:
        raise InputError(f"{path}: expected {count} mask bytes, found {found}")
    # a view of the file bytes; check_mask makes the one float64 copy
    flags = np.frombuffer(raw, np.uint8, count, _HEADER.size)
    return check_mask(flags.reshape(dims, order="F"), name=f"{path}: mask")


def ingest_csv(path, dims):
    """Parse an n1-row, (n2*n3)-column CSV into a tensor and observation mask.

    Column j (0-based) of row i1 maps to entry (i1, j % n2, j // n2), so the
    mode-0 unfolding of the result equals the CSV grid.  Blank cells become
    unobserved: mask 0 and value 0.  Raises InputError on a file that is not
    UTF-8 CSV, on a row count or row width that does not match ``dims``
    (both checked before the tensor is allocated), and on non-numeric
    cells, reporting the 1-based row and column.
    """
    n1, n2, n3 = dims
    ncols = n2 * n3
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path} is not a UTF-8 CSV file: {exc}") from exc
    # check the shape against the rows read before allocating it
    if len(rows) != n1:
        raise InputError(f"{path}: expected {n1} rows, found {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise InputError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {ncols}"
            )
    values = np.zeros((n1, ncols))
    flags = np.ones((n1, ncols))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            text = cell.strip()
            if text == "":
                flags[i, j] = 0.0
                continue
            try:
                values[i, j] = float(text)
            except ValueError as exc:
                raise InputError(
                    f"{path}: non-numeric cell at row {i + 1}, column {j + 1}: "
                    f"{cell!r}"
                ) from exc
    tensor = check_tensor(values.reshape((n1, n2, n3), order="F"), f"{path}: tensor")
    mask = flags.reshape((n1, n2, n3), order="F")
    return tensor, mask
