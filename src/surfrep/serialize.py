"""Canonical JSON encoding of inputs, points and reports.

Complex matrices are written as nested rows of [re, im] pairs, floats
with Python's shortest round-trip repr, keys sorted, two-space indent.
Identical results therefore serialize to identical bytes, which the
determinism tests compare directly after blanking the timing field of
the run manifest (the only part of an output that may differ between
repeated runs).

Non-finite floats (infinite spectral gaps at full-rank decisions, the
infinite decay slope of an exact family) are encoded as the strings
"inf", "-inf", "nan": strict JSON has no spelling for them and silently
emitting Infinity would produce unparseable output.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from .presentation import Representation, SurfaceData

TOOL_VERSION = "0.1.0"


def encode_matrix(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def decode_matrix(data) -> np.ndarray:
    return np.array([[complex(x[0], x[1]) for x in row] for row in data])


def encode_values(values) -> list:
    """A list of algebra/group elements, e.g. cocycle values per generator."""
    return [encode_matrix(m) for m in values]


def decode_values(data) -> np.ndarray:
    return np.array([decode_matrix(m) for m in data])


def point_to_dict(rho: Representation) -> dict:
    return {
        "surface": rho.surface.to_dict(),
        "images": encode_values(rho.images),
    }


def point_from_dict(d: dict) -> Representation:
    surface = SurfaceData.from_dict(d["surface"])
    try:
        images = tuple(decode_matrix(m) for m in d["images"])
    except (TypeError, IndexError) as e:
        raise ValueError(f"images must be matrices of [re, im] pairs: {e}") from e
    return Representation(surface, images)


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(payload: dict) -> str:
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


class Stopwatch:
    def __init__(self):
        self.t0 = time.perf_counter()

    def timings(self) -> dict:
        return {"seconds": time.perf_counter() - self.t0}
