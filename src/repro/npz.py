"""The one on-disk format for everything the index store writes.

A blob is an ``np.savez_compressed`` archive: the named numeric arrays
plus a ``header`` member, a JSON object carrying ``format_version``, a
``what`` tag naming the payload ("hnsw", "segmenter") and its scalar
fields. Blobs load with ``allow_pickle=False``, so a bad file can fail
but never run code; the zip container CRC-checks every member.
"""
from __future__ import annotations

import io
import json
import zipfile
import zlib

import numpy as np

FORMAT_VERSION = 1
_HEADER = "header"


def pack(what: str, header: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize ``arrays`` plus a JSON ``header`` tagged with ``what``."""
    meta = {**header, "format_version": FORMAT_VERSION, "what": what}
    buf = io.BytesIO()
    np.savez_compressed(
        buf, **{_HEADER: np.frombuffer(json.dumps(meta).encode(), np.uint8)}, **arrays
    )
    return buf.getvalue()


def unpack(blob: bytes, what: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of :func:`pack`; ``ValueError`` on anything but a ``what`` blob."""
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as z:
            arrays = {k: z[k] for k in z.files}
        header = json.loads(arrays.pop(_HEADER).tobytes())
    except (OSError, ValueError, KeyError, AttributeError, TypeError, EOFError,
            zipfile.BadZipFile, zlib.error) as e:
        raise ValueError(f"not a {what} blob: {e}") from e
    if not isinstance(header, dict) or header.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported {what} format version")
    if header.get("what") != what:
        raise ValueError(f"expected a {what} blob, got {header.get('what')!r}")
    return header, arrays
