"""File formats: TNS1 tensors, MSK1 masks, and CSV ingestion.

Both binary formats share a 28-byte header: a 4-byte magic string followed by
three unsigned 64-bit little-endian dimensions (n1, n2, n3).  TNS1 stores
n1*n2*n3 IEEE-754 float64 little-endian values; MSK1 stores one byte (0 or 1)
per entry.  Values are laid out with the first index varying fastest, i.e.
element (i1, i2, i3) lives at linear offset i1 + n1*i2 + n1*n2*i3.  One
reader and one writer serve both formats; a read raises InputError on a bad
header or body length, and on any entry the tensor or mask checks reject.

All writers are atomic: content goes to a temporary file in the destination
directory, is fsynced, then renamed over the target.  The file gets mode
0o666 less the process umask, as ``open`` would give it.
"""

import csv
import os
import struct

import numpy as np

from .errors import InputError
from .tensor import check_dims, check_mask, check_tensor

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
    name = os.path.join(directory, f".tensorfill-{os.urandom(8).hex()}")
    tmp = None
    try:
        # O_EXCL never opens an existing file, and the mode lets the kernel
        # apply the umask, which tempfile.mkstemp's fixed 0o600 does not
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
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


def _read(path, magic, dtype, label):
    """Return the body of the ``magic`` file at ``path`` as a read-only,
    Fortran-ordered ``dtype`` view of its bytes, after checking the header
    and that the body holds one ``label`` item per entry."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise InputError(f"{path}: truncated header ({len(raw)} bytes)")
    got, n1, n2, n3 = _HEADER.unpack_from(raw)
    if got != magic:
        raise InputError(f"{path}: bad magic {got!r}, expected {magic.decode()}")
    if min(n1, n2, n3) == 0:
        raise InputError(f"{path}: zero dimension in header ({n1},{n2},{n3})")
    count = n1 * n2 * n3
    size = np.dtype(dtype).itemsize * count
    found = len(raw) - _HEADER.size
    if found != size:
        raise InputError(f"{path}: expected {size} {label} bytes, found {found}")
    return np.frombuffer(raw, dtype, count, _HEADER.size).reshape(
        (n1, n2, n3), order="F")


def _write(path, magic, arr):
    """Write the checked tensor or mask ``arr`` after a ``magic`` header."""
    atomic_write_bytes(path, _HEADER.pack(magic, *arr.shape) + arr.tobytes(order="F"))


def write_tensor(path, x):
    """Serialize a third-order tensor to a TNS1 file."""
    _write(path, TENSOR_MAGIC, check_tensor(x).astype("<f8"))


def read_tensor(path):
    """Read a TNS1 file back into a float64 array of shape (n1, n2, n3)."""
    # one owning, writable copy of the body, read in place from the file bytes
    values = _read(path, TENSOR_MAGIC, "<f8", "value").astype(np.float64)
    return check_tensor(values, f"{path}: tensor")


def write_mask(path, mask):
    """Serialize a mask to an MSK1 file: a bool's bytes are the 0s and 1s."""
    _write(path, MASK_MAGIC, check_mask(mask))


def read_mask(path):
    """Read an MSK1 file back into a bool array, True where observed."""
    # check_mask makes the one bool copy of the file bytes
    return check_mask(_read(path, MASK_MAGIC, np.uint8, "mask"), name=f"{path}: mask")


def ingest_csv(path, dims):
    """Parse an n1-row, (n2*n3)-column CSV into a tensor and observation mask.

    Column j (0-based) of row i1 maps to entry (i1, j % n2, j // n2), so the
    mode-0 unfolding of the result equals the CSV grid.  Every line is a
    row, and an empty line is one blank cell.  Blank cells become
    unobserved: mask False and value 0.  A leading UTF-8 byte-order mark,
    as spreadsheet exports often write, is skipped.  Raises UsageError
    unless ``dims`` passes :func:`tensor.check_dims`, and InputError on a
    file that is not UTF-8 CSV, on a row count or row width that does not
    match ``dims`` (both checked before the tensor is allocated; a wrong
    row count names the first empty line, which an empty line in a wider
    grid adds), and on non-numeric cells, reporting the 1-based row and
    column.
    """
    n1, n2, n3 = check_dims(dims)
    ncols = n2 * n3
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [r or [""] for r in csv.reader(fh)]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path} is not a UTF-8 CSV file: {exc}") from exc
    # check the shape against the rows read before allocating it
    if len(rows) != n1:
        empty = next((i + 1 for i, r in enumerate(rows) if r == [""]), None)
        raise InputError(f"{path}: expected {n1} rows, found {len(rows)}"
                         + (f" (row {empty} is empty)" if empty else ""))
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise InputError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {ncols}"
            )
    values = np.zeros((n1, ncols))
    flags = np.ones((n1, ncols), dtype=bool)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            text = cell.strip()
            if text == "":
                flags[i, j] = False
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
