"""Binary checkpoint format: round trips, versioning, corruption handling."""

import os
import stat
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpfuse import checkpoint
from vpfuse.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    write_atomic,
)
from vpfuse.cli import main
from vpfuse.config import default_config
from vpfuse.model import FusionModel
from vpfuse.tasks import batch_stream, generate_sample, make_batch, spec_from_config
from vpfuse.training import TrainConfig, train


def small_cfg():
    return default_config().replace(train__batch=4)


def with_config_blob(raw: bytes, blob: bytes) -> bytes:
    """Checkpoint bytes ``raw`` with the config blob replaced by ``blob`` and
    the checksum recomputed, so the loader gets past it to the blob."""
    (old_len,) = struct.unpack_from("<Q", raw, 8)
    body = raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + old_len:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def tensor_entries(raw: bytes):
    """The offset, header length, value count and name of each entry of the
    tensor table."""
    (blob_len,) = struct.unpack_from("<Q", raw, 8)
    (count,) = struct.unpack_from("<Q", raw, 16 + blob_len)
    pos = 24 + blob_len
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        (rank,) = struct.unpack_from("<I", raw, pos + 4 + name_len + 1)
        head = 4 + name_len + 1 + 4 + 8 * rank
        dims = struct.unpack_from(f"<{rank}Q", raw, pos + head - 8 * rank)
        size = int(np.prod(dims))
        yield pos, head, size, raw[pos + 4:pos + 4 + name_len].decode()
        pos += head + 8 * size


def header_offsets(raw: bytes) -> list[int]:
    """Offset of every byte that is not a tensor value: magic, version, the
    config blob and its length, the tensor count, each tensor's header and
    the checksum."""
    (blob_len,) = struct.unpack_from("<Q", raw, 8)
    end = 24 + blob_len
    offsets = list(range(end))
    for pos, head, size, _ in tensor_entries(raw):
        offsets += range(pos, pos + head)
        end = pos + head + 8 * size
    assert end == len(raw) - 4
    return offsets + list(range(end, len(raw)))


def with_tensor_repeated(raw: bytes, name: str, value: float) -> bytes:
    """Checkpoint bytes ``raw`` with tensor ``name`` listed once more at the
    end of the table, every value ``value``, and the checksum recomputed."""
    (blob_len,) = struct.unpack_from("<Q", raw, 8)
    (count,) = struct.unpack_from("<Q", raw, 16 + blob_len)
    pos, head, size = next((p, h, s) for p, h, s, n in tensor_entries(raw) if n == name)
    repeat = raw[pos:pos + head] + np.full(size, value, dtype="<f8").tobytes()
    body = (raw[:16 + blob_len] + struct.pack("<Q", count + 1) + raw[24 + blob_len:-4]
            + repeat)
    return body + struct.pack("<I", zlib.crc32(body))


def test_save_load_save_is_byte_identical(tmp_path):
    model = FusionModel(small_cfg(), seed=3)
    p1 = tmp_path / "a.octo"
    p2 = tmp_path / "b.octo"
    save_checkpoint(model, p1, stage="pretrain")
    loaded, _, stage = load_checkpoint(p1)
    assert stage == "pretrain"
    save_checkpoint(loaded, p2, stage=stage)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_save_leaves_no_file(tmp_path, monkeypatch):
    # A save that stops before its rename leaves neither the checkpoint nor
    # its temporary file.
    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        save_checkpoint(FusionModel(small_cfg(), seed=0), tmp_path / "model.octo")
    assert os.listdir(tmp_path) == []


def test_written_file_mode_follows_umask(tmp_path, file_mode):
    # As open() would create it: 0o666 less the umask.
    for name, data in (("a.txt", "text\n"), ("b.bin", b"\x00\x01")):
        write_atomic(tmp_path / name, data)
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == file_mode
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.bin"]


def test_parameters_roundtrip_bitwise(tmp_path):
    model = FusionModel(small_cfg(), seed=3)
    path = tmp_path / "m.octo"
    save_checkpoint(model, path, stage="tune")
    loaded, cfg, _ = load_checkpoint(path)
    assert cfg["train.batch"] == 4
    for name, p in model.named_parameters().items():
        assert loaded.named_parameters()[name].data.tobytes() == p.data.tobytes(), name


def test_magic_checked(tmp_path):
    path = tmp_path / "bad.octo"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_checked(tmp_path):
    model = FusionModel(small_cfg(), seed=0)
    path = tmp_path / "v.octo"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncation_detected(tmp_path):
    model = FusionModel(small_cfg(), seed=0)
    path = tmp_path / "t.octo"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_shape_mismatch_detected(tmp_path):
    # a checkpoint whose embedded config disagrees with its tensor dims
    model = FusionModel(small_cfg(), seed=0)
    path = tmp_path / "s.octo"
    save_checkpoint(model, path)
    blob = model.cfg.replace(router__hidden=16).serialize().encode()
    path.write_bytes(with_config_blob(path.read_bytes(), blob))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)


def test_repeated_tensor_name_rejected(tmp_path):
    # Otherwise the last copy would silently win.
    path = tmp_path / "r.octo"
    save_checkpoint(FusionModel(small_cfg(), seed=0), path)
    path.write_bytes(with_tensor_repeated(path.read_bytes(), "decoder.block0.attn.bk", 7.0))
    with pytest.raises(CheckpointError, match="'decoder.block0.attn.bk' is listed twice"):
        load_checkpoint(path)


def test_resume_stage2_forward_matches_bitwise(tmp_path):
    cfg = small_cfg()
    model = FusionModel(cfg, seed=5)
    tc = TrainConfig(stage="pretrain", steps=4, batch_size=4, lr=3e-3, seed=5)
    train(model, batch_stream(cfg, "pretrain", 5), tc)

    batch = make_batch([generate_sample(spec_from_config(cfg, "motion"), i)
                        for i in range(2)])
    logits_before, _ = model.forward(batch)

    path = tmp_path / "stage1.octo"
    save_checkpoint(model, path, stage="pretrain")
    resumed, _, stage = load_checkpoint(path)
    assert stage == "pretrain"
    logits_after, _ = resumed.forward(batch)
    assert logits_after.data.tobytes() == logits_before.data.tobytes()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.octo"
    save_checkpoint(FusionModel(small_cfg(), seed=0), path, stage="tune")
    raw = path.read_bytes()
    return path, raw, header_offsets(raw)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_corrupt_checkpoint_loads_or_raises_checkpoint_error(saved, data):
    # Every truncation and every changed byte raises: the CRC covers the
    # whole file.  Header bytes are drawn most often, because a flip there
    # that got past the CRC could load with a different config.
    path, raw, headers = saved
    if data.draw(st.booleans(), label="truncate"):
        corrupt = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        pos = data.draw(st.one_of(st.sampled_from(headers),
                                  st.integers(0, len(raw) - 1)), label="offset")
        mask = data.draw(st.integers(1, 255), label="xor")
        corrupt = raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1:]
    path.write_bytes(corrupt)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_flipped_tensor_value_fails_checksum(tmp_path):
    path = tmp_path / "f.octo"
    save_checkpoint(FusionModel(small_cfg(), seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) - 12] ^= 1  # last bit of the last tensor value's low byte
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_version_1_file_rejected(tmp_path):
    # A version-1 file was a version-2 file without the trailing CRC; the
    # format no longer reads it.
    path = tmp_path / "v1.octo"
    save_checkpoint(FusionModel(small_cfg(), seed=3), path, stage="tune")
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:-4])
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


@pytest.mark.parametrize("junk, message", [(b"\xff", "UTF-8"),
                                            (b"video.grid = 15\n", "config")])
def test_bad_config_blob_is_checkpoint_error(tmp_path, junk, message):
    path = tmp_path / "c.octo"
    save_checkpoint(FusionModel(small_cfg(), seed=0), path)
    path.write_bytes(with_config_blob(path.read_bytes(), junk))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("lines, key", [
    (["img.separator = false", "stc.blocks = 1"], "img.separator"),
    (["stc.blocks = 1"], "stc.blocks"),
])
def test_checkpoint_with_a_removed_key_is_rejected(tmp_path, capsys, lines, key):
    # A checkpoint written while img.separator and stc.blocks were config
    # keys names them in its config blob; the blob no longer parses.
    path = tmp_path / "old.octo"
    save_checkpoint(FusionModel(small_cfg(), seed=0), path, stage="pretrain")
    text = small_cfg().serialize()
    blob = "\n".join(sorted(text.splitlines() + lines)) + "\n# stage: pretrain\n"
    path.write_bytes(with_config_blob(path.read_bytes(), blob.encode()))
    with pytest.raises(CheckpointError, match=f"unknown key '{key}'"):
        load_checkpoint(path)
    out = tmp_path / "ev"
    assert main(["eval", "--ckpt", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith(f"unknown key '{key}'\n")
    assert not out.exists()
