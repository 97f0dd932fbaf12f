"""Flat binary container for sampled fields, with a JSON sidecar.

Layout of a ``.field`` file (little-endian throughout):

    offset  size  content
    0       8     magic ``b"FFIELD\\x00\\x01"``  (last byte = format version)
    8       4     int32  d            spatial dimension
    12      4     int32  N            points per axis
    16      8     float64 L           box side length
    24      4     int32  ncomp        leading component count (1 = scalar)
    28      4     int32  dtype code   0 = complex64, 1 = complex128
    32      ...   samples, shape (ncomp, N, ..., N), C order

A sidecar ``<path>.json`` carries units and free-form provenance; it is
advisory and never needed to reload the samples.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .grid import GridSpec, ScalarField, SpinorField, VectorField

MAGIC = b"FFIELD\x00\x01"
_DTYPES = {0: np.complex64, 1: np.complex128}


def write_field(path, field, units: str = "", provenance: dict | None = None,
                single: bool = False) -> None:
    """Write any field type; ``single`` stores complex64 samples."""
    path = Path(path)
    g = field.grid
    data = np.asarray(field.data)
    if data.ndim == g.d:
        data = data[None]
    ncomp = data.shape[0]
    code = 0 if single else 1
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<ii", g.d, g.N))
        fh.write(struct.pack("<d", g.L))
        fh.write(struct.pack("<ii", ncomp, code))
        fh.write(np.ascontiguousarray(data.astype(_DTYPES[code])).tobytes())
    sidecar = {
        "units": units,
        "kind": type(field).__name__,
        "provenance": provenance or {},
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2))


def read_field(path):
    """Load a field file; the ncomp header picks the field type back."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a field container (bad magic)")
    d, N = struct.unpack_from("<ii", raw, 8)
    (L,) = struct.unpack_from("<d", raw, 16)
    ncomp, code = struct.unpack_from("<ii", raw, 24)
    if code not in _DTYPES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    grid = GridSpec(d=d, N=N, L=L)
    shape = (ncomp,) + grid.shape
    data = np.frombuffer(raw, dtype=_DTYPES[code], offset=32).reshape(shape)
    data = data.astype(np.complex128)
    kind = None
    side = path.with_suffix(path.suffix + ".json")
    if side.exists():
        kind = json.loads(side.read_text()).get("kind")
    if ncomp == 1 and kind != "SpinorField":
        return ScalarField(grid, data[0])
    if ncomp == d and kind != "SpinorField":
        return VectorField(grid, data)
    return SpinorField(grid, data)
