"""Wire formats: byte-level serialization of keys and ciphertexts.

The protocol transcripts estimate message sizes analytically (2 bytes
per modulus bit); this module provides the *actual* wire format so
deployments, tests, and byte-accounting agree:

* public keys as JSON (modulus + key size),
* private keys as JSON (p, q — only ever stored at the data provider),
* encrypted tensors as a framed binary blob: a fixed header (magic,
  version, payload kind, key size, exponent, rank, dims) followed by
  fixed-width big-endian ciphertexts (``2 * key_size / 8`` bytes each).

Frame versions:

* **v1** (historical): scalar tensors only — magic, version, key size,
  exponent, rank.  Still parsed for backward compatibility.
* **v2** (current): adds a payload-kind byte after the version, and for
  lane-packed tensors an extended header carrying the lane geometry
  (lanes, magnitude bits, guard bits, occupied batch lanes) so a
  :class:`~repro.crypto.tensor.PackedEncryptedTensor` can cross a wire
  and be rebuilt — packer and all — on the other side.  Folded tensors
  (:class:`~repro.crypto.tensor.FoldedTensor`, always flat) carry, in
  place of the rank byte and dimension words, a 5-byte lane header:
  lanes, magnitude bits, guard bits, and the empty lanes of the last
  cell, from which the logical length ``N = cells * lanes - empty``
  follows.  A rank-1 scalar frame and a folded frame therefore have
  the same 19-byte overhead.  A folded lane-packed batch
  (``FoldedTensor.batch`` > 1) is its own kind: the same header with
  the empty *positions* of the last cell, plus one byte for the batch
  and four for the cell count (24 bytes of overhead).  Its geometry
  must be exactly the one :func:`~repro.crypto.tensor.batch_folder`
  derives for that batch, so a corrupted lane field cannot parse into
  a misaligned tensor, and its body must hold exactly the declared
  cells, so a frame cut at a ciphertext boundary cannot parse into a
  shorter tensor.

All parsers validate framing and raise :class:`EncodingError` on
malformed input rather than producing garbage tensors.
"""

from __future__ import annotations

import json
import struct
from typing import Tuple

from ..errors import EncodingError, KeyMismatchError
from .encoding import LanePacker
from .paillier import (
    EncryptedNumber,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from .tensor import (
    EncryptedTensor,
    FoldedTensor,
    PackedEncryptedTensor,
    batch_folder,
)

#: Frame magic for encrypted-tensor blobs.
_MAGIC = b"PPST"
#: Current frame version.  v1 frames (scalar only, no kind byte) are
#: still parsed; v2 is what the writers emit.
_VERSION = 2
_V1 = 1
_HEADER_V1 = struct.Struct(">4sBIiB")   # magic, ver, key_size, exp, rank
_PREFIX_V2 = struct.Struct(">4sBBIi")   # magic, ver, kind, key_size,
#                                         exponent
_HEADER_V2 = struct.Struct(">4sBBIiB")  # the prefix, then rank
#: v2 lane-geometry extension (packed frames only): lanes, mag_bits,
#: guard_bits, batch.
_LANES_V2 = struct.Struct(">HHHH")
#: v2 folded-frame lane header (after the prefix, instead of rank and
#: dims): lanes, mag_bits, guard_bits, empty lanes of the last cell.
_FOLD_V2 = struct.Struct(">BHBB")
#: v2 folded-batch header: the folded fields (the last one counting
#: empty positions), then the batch and the number of cells.
_FOLD_BATCH_V2 = struct.Struct(">BHBBBI")

#: v2 payload kinds.
KIND_SCALAR = 0
KIND_PACKED = 1
KIND_FOLDED = 2
KIND_FOLDED_BATCH = 3
_KINDS = (KIND_SCALAR, KIND_PACKED, KIND_FOLDED, KIND_FOLDED_BATCH)


def public_key_to_json(key: PaillierPublicKey) -> str:
    """Serialize a public key (safe to share)."""
    return json.dumps({
        "kind": "paillier-public",
        "key_size": key.key_size,
        "n": hex(key.n),
    })


def public_key_from_json(text: str) -> PaillierPublicKey:
    data = _load_key_json(text, "paillier-public")
    return PaillierPublicKey(n=int(data["n"], 16),
                             key_size=int(data["key_size"]))


def private_key_to_json(key: PaillierPrivateKey) -> str:
    """Serialize a private key (data-provider side only!)."""
    return json.dumps({
        "kind": "paillier-private",
        "key_size": key.public_key.key_size,
        "p": hex(key.p),
        "q": hex(key.q),
    })


def private_key_from_json(text: str) -> PaillierPrivateKey:
    data = _load_key_json(text, "paillier-private")
    p, q = int(data["p"], 16), int(data["q"], 16)
    public = PaillierPublicKey(n=p * q,
                               key_size=int(data["key_size"]))
    return PaillierPrivateKey(public_key=public, p=p, q=q)


def _load_key_json(text: str, expected_kind: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EncodingError(f"malformed key JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") != expected_kind:
        raise EncodingError(
            f"expected a {expected_kind} key, got "
            f"{data.get('kind') if isinstance(data, dict) else data!r}"
        )
    return data


def ciphertext_bytes(key_size: int) -> int:
    """Fixed wire width of one ciphertext (an element of Z_{n^2})."""
    return 2 * key_size // 8


def tensor_frame_bytes(
    key_size: int, rank: int, size: int,
    packed: bool = False, version: int = _VERSION,
    folded: bool = False, batched: bool = False,
) -> int:
    """Exact byte length of a tensor frame, computed analytically.

    ``len(any_tensor_to_bytes(t)) == tensor_frame_bytes(...)`` by
    construction — the frame is a fixed header plus ``4 * rank`` dim
    words plus ``size`` fixed-width ciphertexts (a folded frame: the
    prefix plus its lane header plus ``size`` folded ciphertexts;
    ``rank`` is ignored; ``batched`` for a folded lane-packed batch)
    — so byte accounting can use real wire sizes without serializing
    anything.
    """
    if packed and folded:
        raise EncodingError("a frame is either packed or folded")
    if version == _V1:
        if packed or folded:
            raise EncodingError(
                "v1 frames carry scalar tensors only"
            )
        header = _HEADER_V1.size
    elif version != _VERSION:
        raise EncodingError(f"unsupported wire version {version}")
    elif folded:
        lanes = _FOLD_BATCH_V2 if batched else _FOLD_V2
        return (_PREFIX_V2.size + lanes.size
                + size * ciphertext_bytes(key_size))
    else:
        header = _HEADER_V2.size + (_LANES_V2.size if packed else 0)
    return header + 4 * rank + size * ciphertext_bytes(key_size)


def frame_bytes(tensor) -> int:
    """Exact framed wire size of any tensor flavour (what
    :func:`any_tensor_to_bytes` would emit)."""
    return tensor_frame_bytes(
        tensor.public_key.key_size,
        rank=len(tensor.shape),
        size=len(tensor.cells()),
        packed=isinstance(tensor, PackedEncryptedTensor),
        folded=isinstance(tensor, FoldedTensor),
        batched=isinstance(tensor, FoldedTensor) and tensor.batch > 1,
    )


def _pack_dims(shape: Tuple[int, ...]) -> bytes:
    if len(shape) > 255:
        raise EncodingError("tensor rank exceeds the wire format's 255")
    return b"".join(struct.pack(">I", dim) for dim in shape)


def _pack_cells(cells, key_size: int) -> bytes:
    width = ciphertext_bytes(key_size)
    return b"".join(
        cell.ciphertext.to_bytes(width, "big") for cell in cells
    )


def tensor_to_bytes(tensor: EncryptedTensor,
                    version: int = _VERSION) -> bytes:
    """Serialize a scalar encrypted tensor to the framed binary format.

    Emits a v2 frame by default; ``version=1`` writes the historical
    layout (for interop/regression tests).
    """
    key_size = tensor.public_key.key_size
    dims = _pack_dims(tensor.shape)
    if version == _V1:
        header = _HEADER_V1.pack(_MAGIC, _V1, key_size,
                                 tensor.exponent, len(tensor.shape))
    elif version == _VERSION:
        header = _HEADER_V2.pack(_MAGIC, _VERSION, KIND_SCALAR,
                                 key_size, tensor.exponent,
                                 len(tensor.shape))
    else:
        raise EncodingError(f"unsupported wire version {version}")
    return header + dims + _pack_cells(tensor.cells(), key_size)


def packed_tensor_to_bytes(tensor: PackedEncryptedTensor) -> bytes:
    """Serialize a lane-packed tensor (v2 frame with lane geometry)."""
    key_size = tensor.public_key.key_size
    packer = tensor.packer
    for field, value in (("lanes", packer.lanes),
                         ("mag_bits", packer.mag_bits),
                         ("guard_bits", packer.guard_bits),
                         ("batch", tensor.batch)):
        if not 0 <= value <= 0xFFFF:
            raise EncodingError(
                f"packed-frame {field} {value} exceeds the wire "
                "format's 16-bit field"
            )
    header = _HEADER_V2.pack(_MAGIC, _VERSION, KIND_PACKED, key_size,
                             tensor.exponent, len(tensor.shape))
    lanes = _LANES_V2.pack(packer.lanes, packer.mag_bits,
                           packer.guard_bits, tensor.batch)
    return (header + lanes + _pack_dims(tensor.shape)
            + _pack_cells(tensor.cells(), key_size))


def _parse_header(blob: bytes) -> tuple[int, int, int, int, int]:
    """Common header parse -> (version, kind, key_size, exponent,
    offset-of-next-field).  Scalar and packed frames continue with the
    rank byte (:func:`_parse_rank`), folded frames with their lane
    header."""
    if len(blob) < _PREFIX_V2.size:
        raise EncodingError("blob shorter than the frame header")
    magic, version = struct.unpack(">4sB", blob[:5])
    if magic != _MAGIC:
        raise EncodingError(f"bad magic {magic!r}")
    if version == _V1:
        _, _, key_size, exponent = struct.unpack(
            ">4sBIi", blob[:_HEADER_V1.size - 1]
        )
        return _V1, KIND_SCALAR, key_size, exponent, _HEADER_V1.size - 1
    if version == _VERSION:
        _, _, kind, key_size, exponent = _PREFIX_V2.unpack(
            blob[:_PREFIX_V2.size]
        )
        if kind not in _KINDS:
            raise EncodingError(f"unknown v2 payload kind {kind}")
        return version, kind, key_size, exponent, _PREFIX_V2.size
    raise EncodingError(f"unsupported wire version {version}")


def _parse_rank(blob: bytes, offset: int) -> tuple[int, int]:
    if offset >= len(blob):
        raise EncodingError("blob shorter than the frame header")
    return blob[offset], offset + 1


def frame_kind(blob: bytes) -> int:
    """Peek a frame's payload kind (:data:`KIND_SCALAR` /
    :data:`KIND_PACKED` / :data:`KIND_FOLDED` /
    :data:`KIND_FOLDED_BATCH`) without parsing the body."""
    return _parse_header(blob)[1]


def _parse_dims(blob: bytes, offset: int,
                rank: int) -> tuple[Tuple[int, ...], int]:
    dims: Tuple[int, ...] = ()
    for _ in range(rank):
        if offset + 4 > len(blob):
            raise EncodingError("truncated dimension list")
        (dim,) = struct.unpack(">I", blob[offset:offset + 4])
        dims += (dim,)
        offset += 4
    return dims, offset


def _parse_cells(blob: bytes, offset: int, dims: Tuple[int, ...],
                 public_key: PaillierPublicKey) -> list[EncryptedNumber]:
    size = 1
    for dim in dims:
        size *= dim
    width = ciphertext_bytes(public_key.key_size)
    expected = offset + size * width
    if len(blob) != expected:
        raise EncodingError(
            f"body length {len(blob) - offset} != expected "
            f"{size * width}"
        )
    cells = []
    for index in range(size):
        start = offset + index * width
        value = int.from_bytes(blob[start:start + width], "big")
        if not 0 < value < public_key.n_squared:
            raise EncodingError(
                f"ciphertext {index} out of range for the modulus"
            )
        cells.append(EncryptedNumber(public_key, value))
    return cells


def _check_key(key_size: int, public_key: PaillierPublicKey) -> None:
    if key_size != public_key.key_size:
        raise KeyMismatchError(
            f"frame was written for a {key_size}-bit key, reader has "
            f"{public_key.key_size}-bit"
        )


def tensor_from_bytes(
    blob: bytes, public_key: PaillierPublicKey
) -> EncryptedTensor:
    """Parse a framed blob (v1 or v2 scalar) into an encrypted tensor.

    Raises:
        EncodingError: on bad framing, truncation, trailing bytes, or
            a packed frame (parse those with
            :func:`packed_tensor_from_bytes`).
        KeyMismatchError: when the frame's key size differs from the
            supplied public key's.
    """
    _, kind, key_size, exponent, offset = _parse_header(blob)
    if kind != KIND_SCALAR:
        raise EncodingError(
            "frame carries a lane-packed or folded tensor; parse it "
            "with any_tensor_from_bytes"
        )
    _check_key(key_size, public_key)
    rank, offset = _parse_rank(blob, offset)
    dims, offset = _parse_dims(blob, offset, rank)
    cells = _parse_cells(blob, offset, dims, public_key)
    return EncryptedTensor(public_key, cells, dims, exponent)


def packed_tensor_from_bytes(
    blob: bytes, public_key: PaillierPublicKey
) -> PackedEncryptedTensor:
    """Parse a v2 packed frame back into a lane-packed tensor.

    The packer is rebuilt from the frame's lane geometry; its capacity
    constraint re-validates against the supplied key, so a frame whose
    geometry cannot fit the key fails here rather than producing
    garbage lanes.
    """
    _, kind, key_size, exponent, offset = _parse_header(blob)
    if kind != KIND_PACKED:
        raise EncodingError(
            "frame carries a scalar or folded tensor; parse it with "
            "any_tensor_from_bytes"
        )
    _check_key(key_size, public_key)
    rank, offset = _parse_rank(blob, offset)
    if offset + _LANES_V2.size > len(blob):
        raise EncodingError("truncated lane-geometry header")
    lanes, mag_bits, guard_bits, batch = _LANES_V2.unpack(
        blob[offset:offset + _LANES_V2.size]
    )
    offset += _LANES_V2.size
    packer = LanePacker(public_key, lanes=lanes, mag_bits=mag_bits,
                        guard_bits=guard_bits)
    if not 1 <= batch <= lanes:
        raise EncodingError(
            f"frame batch {batch} out of range [1, {lanes}]"
        )
    dims, offset = _parse_dims(blob, offset, rank)
    cells = _parse_cells(blob, offset, dims, public_key)
    return PackedEncryptedTensor(public_key, cells, dims, packer,
                                 batch, exponent)


def folded_tensor_to_bytes(tensor: FoldedTensor) -> bytes:
    """Serialize a folded tensor (v2 frame with its lane header;
    :data:`KIND_FOLDED_BATCH` with the batch byte for a folded
    batch)."""
    packer = tensor.packer
    batch = tensor.batch
    cells = len(tensor.cells())
    empty = cells * (packer.lanes // batch) - tensor.size
    for field, value, limit in (("lanes", packer.lanes, 0xFF),
                                ("mag_bits", packer.mag_bits, 0xFFFF),
                                ("guard_bits", packer.guard_bits, 0xFF),
                                ("batch", batch, 0xFF),
                                ("cells", cells, 0xFFFFFFFF)):
        if not 0 <= value <= limit:
            raise EncodingError(
                f"folded-frame {field} {value} exceeds the wire "
                "format's field"
            )
    key_size = tensor.public_key.key_size
    kind = KIND_FOLDED if batch == 1 else KIND_FOLDED_BATCH
    header = _PREFIX_V2.pack(_MAGIC, _VERSION, kind, key_size,
                             tensor.exponent)
    lanes = (_FOLD_V2.pack(packer.lanes, packer.mag_bits,
                           packer.guard_bits, empty) if batch == 1
             else _FOLD_BATCH_V2.pack(packer.lanes, packer.mag_bits,
                                      packer.guard_bits, empty, batch,
                                      cells))
    return header + lanes + _pack_cells(tensor.cells(), key_size)


def folded_tensor_from_bytes(
    blob: bytes, public_key: PaillierPublicKey
) -> FoldedTensor:
    """Parse a v2 folded or folded-batch frame back into a folded
    tensor.

    Strict: the geometry must fit the key (the rebuilt packer's
    capacity check), the body must be whole ciphertexts, at least one,
    and the last cell must hold at least one position.  A batch must
    have two or more samples, exactly the folding geometry
    :func:`~repro.crypto.tensor.batch_folder` gives its lane packer,
    and exactly the cells its header declares.
    """
    _, kind, key_size, exponent, offset = _parse_header(blob)
    if kind not in (KIND_FOLDED, KIND_FOLDED_BATCH):
        raise EncodingError(
            "frame carries a scalar or packed tensor; parse it with "
            "any_tensor_from_bytes"
        )
    _check_key(key_size, public_key)
    fields = _FOLD_V2 if kind == KIND_FOLDED else _FOLD_BATCH_V2
    if offset + fields.size > len(blob):
        raise EncodingError("truncated folded lane header")
    lanes, mag_bits, guard_bits, empty, *batch = fields.unpack(
        blob[offset:offset + fields.size]
    )
    batch, declared = batch if batch else (1, None)
    offset += fields.size
    packer = LanePacker(public_key, lanes=lanes, mag_bits=mag_bits,
                        guard_bits=guard_bits)
    if kind == KIND_FOLDED_BATCH and (
            batch < 2 or lanes % batch
            or packer != batch_folder(LanePacker(
                public_key, lanes=batch, mag_bits=mag_bits,
                guard_bits=guard_bits))):
        raise EncodingError(
            f"{lanes} folded lanes are not the folding geometry of a "
            f"{batch}-sample batch of {packer.lane_bits}-bit lanes"
        )
    per_cell = lanes // batch
    width = ciphertext_bytes(public_key.key_size)
    cells, rest = divmod(len(blob) - offset, width)
    if rest:
        raise EncodingError(
            f"folded body of {len(blob) - offset} bytes is not whole "
            f"{width}-byte ciphertexts"
        )
    if declared is not None and cells != declared:
        raise EncodingError(
            f"folded-batch body holds {cells} cells, its header "
            f"declares {declared}"
        )
    if cells < 1 or empty >= per_cell:
        raise EncodingError(
            f"{cells} folded cells with {empty} empty positions of "
            f"{per_cell} imply no valid logical length"
        )
    length = cells * per_cell - empty
    parsed = _parse_cells(blob, offset, (cells,), public_key)
    return FoldedTensor(public_key, parsed, length, packer, exponent,
                        batch=batch)


def any_tensor_to_bytes(
    tensor: EncryptedTensor | PackedEncryptedTensor | FoldedTensor,
) -> bytes:
    """Serialize any tensor flavour (dispatch on type)."""
    if isinstance(tensor, PackedEncryptedTensor):
        return packed_tensor_to_bytes(tensor)
    if isinstance(tensor, FoldedTensor):
        return folded_tensor_to_bytes(tensor)
    return tensor_to_bytes(tensor)


def any_tensor_from_bytes(
    blob: bytes, public_key: PaillierPublicKey
) -> EncryptedTensor | PackedEncryptedTensor | FoldedTensor:
    """Parse any tensor flavour (dispatch on the frame kind)."""
    kind = frame_kind(blob)
    if kind == KIND_PACKED:
        return packed_tensor_from_bytes(blob, public_key)
    if kind in (KIND_FOLDED, KIND_FOLDED_BATCH):
        return folded_tensor_from_bytes(blob, public_key)
    return tensor_from_bytes(blob, public_key)
