"""Checkpoint container: every malformed blob is a DataError."""

import json
import struct

import numpy as np
import pytest

from ccm.checkpoint import MAGIC, load_arrays
from ccm.errors import DataError

GOOD = {"name": "w", "dtype": "float32", "shape": [2, 3], "offset": 0, "nbytes": 24}


def blob(records, payload=bytes(24), header_excess=0):
    header = json.dumps({"format_version": 1, "meta": {}, "records": records}).encode()
    return MAGIC + struct.pack("<I", len(header) + header_excess) + header + payload


def without(key):
    return [{k: v for k, v in GOOD.items() if k != key}]


@pytest.mark.parametrize("data", [
    pytest.param(MAGIC + b"\x01", id="shorter-than-preamble"),
    pytest.param(blob([], payload=b"", header_excess=5), id="header-past-end"),
    *(pytest.param(blob(without(key)), id=f"no-{key}") for key in GOOD),
    pytest.param(blob([dict(GOOD, nbytes=20)], payload=bytes(20)), id="nbytes-vs-shape"),
    pytest.param(blob([dict(GOOD, offset=-4)]), id="negative-offset"),
    pytest.param(blob([dict(GOOD, shape=[2, "3"])]), id="non-integer-dim"),
    pytest.param(blob([GOOD, GOOD], payload=bytes(48)), id="duplicate-name"),
    pytest.param(blob([dict(GOOD, offset=8)]), id="overruns-payload"),
])
def test_malformed_blob_is_data_error(tmp_path, data):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(data)
    with pytest.raises(DataError):
        load_arrays(path)


def test_hand_built_blob_loads(tmp_path):
    path = tmp_path / "good.ckpt"
    path.write_bytes(blob([GOOD], payload=np.arange(6, dtype="<f4").tobytes()))
    arrays, meta = load_arrays(path)
    np.testing.assert_array_equal(arrays["w"], np.arange(6).reshape(2, 3))
    assert meta == {}
