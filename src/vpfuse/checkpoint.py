"""Binary checkpoint format.

Layout (all integers little-endian):

    magic   4 bytes  "OCTO"
    u32     version (currently 2)
    u64     config blob length, then that many bytes of UTF-8 config text
    u64     tensor count
    per tensor, sorted by name:
        u32     name length, then name bytes (UTF-8)
        u8      dtype code (0 = float64 little-endian)
        u32     rank
        u64[rank] dims
        raw row-major float64 values
    u32     zlib.crc32 of every byte before it

The config blob is the canonical config serialization plus a trailing
`# stage: <name>` comment recording which training stage produced the file.
Round-trips are bitwise: saving a loaded model with the stage that
`load_checkpoint` returned yields identical bytes, because parsing a
canonical serialization and serializing it again gives the same text.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Optional

import numpy as np

from .config import Config, parse_config
from .model import FusionModel

MAGIC = b"OCTO"
VERSION = 2
DTYPE_F64 = 0
_STAGE_PREFIX = "# stage: "


class CheckpointError(ValueError):
    """Bad magic, version or checksum, truncation, undecodable or invalid
    config or tensor names, or mismatch against the config."""


def _config_blob(cfg: Config, stage: Optional[str]) -> str:
    text = cfg.serialize()
    if stage is not None:
        text += f"{_STAGE_PREFIX}{stage}\n"
    return text


def save_checkpoint(model: FusionModel, path, stage: Optional[str] = None) -> None:
    """Write the model's parameters and config; bitwise deterministic."""
    blob = _config_blob(model.cfg, stage).encode("utf-8")
    params = model.named_parameters()
    names = sorted(params)
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<Q", len(blob))
    out += blob
    out += struct.pack("<Q", len(names))
    for name in names:
        t = params[name]
        nb = name.encode("utf-8")
        out += struct.pack("<I", len(nb))
        out += nb
        out += struct.pack("<B", DTYPE_F64)
        out += struct.pack("<I", t.data.ndim)
        out += struct.pack(f"<{t.data.ndim}Q", *t.data.shape)
        out += np.ascontiguousarray(t.data, dtype="<f8").tobytes()
    out += struct.pack("<I", zlib.crc32(out))
    write_atomic(Path(path), out)


def write_atomic(path: Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) through a temporary file beside
    ``path`` and a rename, so that ``path`` is whole or absent.

    The temporary file is created with mode 0o666 less the umask, as
    ``open`` would create ``path``; ``mkstemp`` would make it 0o600."""
    tmp = path.parent / f".tmp-{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError(f"truncated checkpoint: wanted {n} bytes at "
                                  f"offset {self.pos}, file has {len(self.raw)}")
        chunk = self.raw[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        vals = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return vals[0] if len(vals) == 1 else vals

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{what} is not valid UTF-8: {exc}") from exc


def load_checkpoint(path) -> tuple[FusionModel, Config, Optional[str]]:
    """Rebuild the model from a checkpoint; every parameter comes from disk."""
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = reader.unpack("<I")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    body, crc = reader.raw[:-4], reader.raw[-4:]
    if struct.pack("<I", zlib.crc32(body)) != crc:
        raise CheckpointError("checksum mismatch: checkpoint is corrupt or truncated")
    reader.raw = body
    blob_len = reader.unpack("<Q")
    blob = reader.text(blob_len, "config blob")
    stage = None
    for line in blob.splitlines():
        if line.startswith(_STAGE_PREFIX):
            stage = line[len(_STAGE_PREFIX):].strip()
    try:
        cfg = parse_config(blob)
        model = FusionModel(cfg, seed=cfg["train.seed"])
    except ValueError as exc:
        raise CheckpointError(f"invalid config blob: {exc}") from exc
    params = model.named_parameters()
    expected = set(params)

    count = reader.unpack("<Q")
    seen = set()
    for _ in range(count):
        name_len = reader.unpack("<I")
        name = reader.text(name_len, "tensor name")
        dtype = reader.unpack("<B")
        if dtype != DTYPE_F64:
            raise CheckpointError(f"unknown dtype code {dtype} for tensor {name!r}")
        rank = reader.unpack("<I")
        dims: tuple[int, ...] = ()
        if rank:
            dims = tuple(int(d) for d in struct.unpack(f"<{rank}Q", reader.take(8 * rank)))
        if name not in expected:
            raise CheckpointError(f"tensor {name!r} not part of the configured model")
        if name in seen:
            raise CheckpointError(f"tensor {name!r} is listed twice")
        target = params[name]
        if dims != target.data.shape:
            raise CheckpointError(f"tensor {name!r} has shape {dims}, config "
                                  f"expects {target.data.shape}")
        n_values = int(np.prod(dims)) if rank else 1
        raw = reader.take(8 * n_values)
        target.data = np.frombuffer(raw, dtype="<f8").reshape(target.data.shape).copy()
        seen.add(name)
    if reader.pos != len(reader.raw):
        raise CheckpointError(f"{len(reader.raw) - reader.pos} trailing bytes "
                              "after the tensor table")
    missing = expected - seen
    if missing:
        raise CheckpointError(f"checkpoint is missing tensors: {sorted(missing)[:5]}")
    return model, cfg, stage
