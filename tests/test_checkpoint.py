"""Checkpoint container: every malformed blob is a DataError, and saved
model and adapter files fuzzed by truncation, bit flips and retyped header
fields raise nothing else."""

import json
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccm.model
from ccm.checkpoint import MAGIC, load_arrays
from ccm.errors import DataError
from ccm.lora import AdapterSet
from ccm.model import ModelConfig, ToyLM

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


# ---------------------------------------------------------------------------
# saved model and adapter checkpoints, fuzzed: only ever a DataError

FUZZ = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, vocab_size=16,
                   max_layout=32)
FUZZ_MODEL = ToyLM.init(FUZZ, seed=1)


def _saved_blobs() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        FUZZ_MODEL.save(Path(tmp) / "model.ckpt")
        AdapterSet.init(FUZZ_MODEL, rank=2, comp_len=2, seed=1).save(
            Path(tmp) / "adapters.ckpt")
        return {kind: (Path(tmp) / f"{kind}.ckpt").read_bytes()
                for kind in ("model", "adapters")}


BLOBS = _saved_blobs()


def load_blob(kind: str, data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.ckpt"
        path.write_bytes(data)
        if kind == "model":
            ToyLM.load(path)
        else:
            AdapterSet.load(path, FUZZ_MODEL)


def split_blob(data: bytes) -> tuple[dict, bytes]:
    (header_len,) = struct.unpack("<I", data[8:12])
    return json.loads(data[12:12 + header_len]), data[12 + header_len:]


def join_blob(header: dict, payload: bytes) -> bytes:
    raw = json.dumps(header, sort_keys=True).encode()
    return MAGIC + struct.pack("<I", len(raw)) + raw + payload


def test_saved_checkpoints_load_and_carry_a_checksum():
    for kind, data in BLOBS.items():
        header, payload = split_blob(data)
        assert header["crc32"] == zlib.crc32(payload)
        load_blob(kind, data)
        del header["crc32"]  # a file without a checksum still loads
        load_blob(kind, join_blob(header, payload))


def test_a_payload_bit_flip_fails_the_checksum(tmp_path):
    data = bytearray(BLOBS["model"])
    data[-5] ^= 0x10  # inside the last float: still a well-formed array
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match="checksum"):
        load_arrays(path)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(BLOBS)), data=st.data())
def test_truncated_checkpoint_is_data_error(kind, data):
    blob_bytes = BLOBS[kind]
    cut = data.draw(st.integers(0, len(blob_bytes) - 1))
    with pytest.raises(DataError):
        load_blob(kind, blob_bytes[:cut])


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(BLOBS)), in_payload=st.booleans(), data=st.data())
def test_bit_flipped_checkpoint_raises_only_data_error(kind, in_payload, data):
    # a flip in the payload is always caught; one in the header may still
    # leave a loadable file (a digit of a float), but never another error
    blob_bytes = BLOBS[kind]
    start = len(blob_bytes) - len(split_blob(blob_bytes)[1])
    at = data.draw(st.integers(start, len(blob_bytes) - 1) if in_payload
                   else st.integers(0, start - 1))
    flipped = bytearray(blob_bytes)
    flipped[at] ^= 1 << data.draw(st.integers(0, 7))
    if in_payload:
        with pytest.raises(DataError):
            load_blob(kind, bytes(flipped))
    else:
        try:
            load_blob(kind, bytes(flipped))
        except DataError:
            pass


def header_paths(header: dict) -> list[tuple]:
    """Every field of a header, top-level, meta (and config) and records."""
    paths = [(key,) for key in header]
    paths += [("meta", key) for key in header["meta"]]
    paths += [("meta", "config", key) for key in header["meta"].get("config", {})]
    paths += [("records", i, key) for i, rec in enumerate(header["records"])
              for key in rec]
    return paths


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 100), st.floats(-1e3, 1e3),
    st.sampled_from([float("nan"), float("inf")]), st.text(max_size=4),
    st.lists(st.integers(-1, 4), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(BLOBS)), value=JSON_VALUES, data=st.data())
def test_retyped_header_field_raises_only_data_error(kind, value, data):
    header, payload = split_blob(BLOBS[kind])
    *parents, key = data.draw(st.sampled_from(header_paths(header)))
    target = header
    for step in parents:
        target = target[step]
    target[key] = value
    try:
        load_blob(kind, join_blob(header, payload))
    except DataError:
        pass


def test_an_adapter_rank_past_the_records_fails_before_allocating():
    # the records are checked against the rank before adapters of that rank
    # are built, so a huge rank is a DataError, not a MemoryError
    header, payload = split_blob(BLOBS["adapters"])
    header["meta"]["rank"] = 10**12
    with pytest.raises(DataError, match="records missing, unexpected or misshapen"):
        load_blob("adapters", join_blob(header, payload))


def test_a_layer_count_past_the_records_fails_before_the_table(monkeypatch):
    # every layer owns records, so a header claiming more layers than the
    # file has records is rejected before a table that size is built
    header, payload = split_blob(BLOBS["model"])
    header["meta"]["config"]["n_layers"] = 20_000
    built = []
    monkeypatch.setattr(ccm.model, "param_shapes",
                        lambda config: built.append(config) or {})
    with pytest.raises(DataError, match="20000 layers"):
        load_blob("model", join_blob(header, payload))
    assert built == []
