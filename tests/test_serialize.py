"""JSON wire format: matrix encoding and canonical text."""

import json

import numpy as np
import pytest

from surfrep.corpus import witness_representation
from surfrep.serialize import (
    canonical_json,
    decode_matrix,
    decode_values,
    encode_matrix,
    encode_values,
    point_from_dict,
    point_to_dict,
)
from surfrep.unitary import haar_unitary, skew_project


def test_matrix_roundtrip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    enc = encode_matrix(m)
    assert isinstance(enc[0][0], list) and len(enc[0][0]) == 2
    assert np.array_equal(decode_matrix(enc), m)


def test_values_roundtrip(rng):
    vals = np.stack([
        skew_project(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        for _ in range(3)
    ])
    assert np.array_equal(decode_values(encode_values(vals)), vals)


def test_point_roundtrip():
    rho = witness_representation(1, 2, 2, np.random.default_rng(0))
    doc = point_to_dict(rho)
    assert set(doc) == {"surface", "images"}
    back = point_from_dict(doc)
    back.validate()
    assert back.surface.genus == 1
    for a, b in zip(back.images, rho.images):
        assert np.array_equal(a, b)


def test_canonical_json_is_stable_and_sorted():
    text = canonical_json({"b": 1.5, "a": [1e-17, 2.0]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text)["a"][0] == 1e-17
    # byte-identical on repeated encoding
    assert canonical_json(json.loads(text)) == text


def test_canonical_json_floats_roundtrip_exactly(rng):
    xs = list(rng.standard_normal(50))
    back = json.loads(canonical_json({"xs": xs}))["xs"]
    assert all(a == b for a, b in zip(back, xs))


def test_non_finite_values_become_strings():
    doc = json.loads(canonical_json({"gap": float("inf"), "bad": float("nan"),
                                     "neg": float("-inf")}))
    assert doc == {"gap": "inf", "bad": "nan", "neg": "-inf"}


def test_numpy_scalars_are_cast():
    doc = json.loads(canonical_json({
        "i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True),
    }))
    assert doc == {"i": 3, "f": 0.5, "b": True}
