"""Wire formats: byte-level serialization of keys and ciphertexts.

The protocol transcripts estimate message sizes analytically (2 bytes
per modulus bit); this module provides the *actual* wire format so
deployments, tests, and byte-accounting agree:

* public keys as JSON (modulus + key size),
* private keys as JSON (p, q — only ever stored at the data provider),
* encrypted tensors as a framed binary blob: a fixed header (magic,
  version, payload kind, key size, exponent, rank, dims) followed by
  fixed-width big-endian ciphertexts (``2 * key_size / 8`` bytes each).

Frames carry a payload-kind byte after the version, and lane-packed
tensors an extended header carrying the lane geometry (lanes,
magnitude bits, guard bits, occupied batch lanes) so a
:class:`~repro.crypto.tensor.PackedEncryptedTensor` can cross a wire
and be rebuilt — packer and all — on the other side.  A scalar tensor
with a certified bound (a linear stage's output,
:attr:`~repro.crypto.tensor.EncryptedTensor.bound_bits`) is its own
kind: the scalar header plus a 2-byte bound before the dimension
words (21 bytes of overhead at rank 1, against 19), so the key holder
that parses it can fold the cells in lanes of that width.

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
from .tensor import EncryptedTensor, PackedEncryptedTensor

#: Frame magic for encrypted-tensor blobs.
_MAGIC = b"PPST"
#: Frame version: the only one written and parsed.
_VERSION = 2
_PREFIX_V2 = struct.Struct(">4sBBIi")   # magic, ver, kind, key_size,
#                                         exponent
_HEADER_V2 = struct.Struct(">4sBBIiB")  # the prefix, then rank
#: v2 lane-geometry extension (packed frames only): lanes, mag_bits,
#: guard_bits, batch.
_LANES_V2 = struct.Struct(">HHHH")
#: v2 bounded-frame extension (after the rank byte): the certified bit
#: length of the values.
_BOUND_V2 = struct.Struct(">H")

#: v2 payload kinds (2 and 3, the retired folded kinds, are refused).
KIND_SCALAR = 0
KIND_PACKED = 1
KIND_BOUNDED = 4
_KINDS = (KIND_SCALAR, KIND_PACKED, KIND_BOUNDED)


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
    packed: bool = False, bounded: bool = False,
) -> int:
    """Exact byte length of a tensor frame, computed analytically.

    ``len(any_tensor_to_bytes(t)) == tensor_frame_bytes(...)`` by
    construction — the frame is a fixed header (``packed``: plus the
    lane geometry; ``bounded``: plus the certified bound) plus ``4 *
    rank`` dim words plus ``size`` fixed-width ciphertexts — so byte
    accounting can use real wire sizes without serializing anything.
    """
    if packed and bounded:
        raise EncodingError("a frame is either packed or bounded")
    header = _HEADER_V2.size + (_LANES_V2.size if packed else 0) \
        + (_BOUND_V2.size if bounded else 0)
    return header + 4 * rank + size * ciphertext_bytes(key_size)


def frame_bytes(tensor) -> int:
    """Exact framed wire size of any tensor flavour (what
    :func:`any_tensor_to_bytes` would emit)."""
    packed = isinstance(tensor, PackedEncryptedTensor)
    return tensor_frame_bytes(
        tensor.public_key.key_size,
        rank=len(tensor.shape),
        size=len(tensor.cells()),
        packed=packed,
        bounded=not packed and tensor.bound_bits is not None,
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


def tensor_to_bytes(tensor: EncryptedTensor) -> bytes:
    """Serialize a scalar encrypted tensor to the framed binary
    format (:data:`KIND_BOUNDED` when it carries a certified bound)."""
    key_size = tensor.public_key.key_size
    dims = _pack_dims(tensor.shape)
    bits = tensor.bound_bits
    if bits is not None and not 1 <= bits <= 0xFFFF:
        raise EncodingError(
            f"bound_bits {bits} exceeds the wire format's 16-bit field"
        )
    kind = KIND_SCALAR if bits is None else KIND_BOUNDED
    header = _HEADER_V2.pack(_MAGIC, _VERSION, kind, key_size,
                             tensor.exponent, len(tensor.shape))
    if bits is not None:
        header += _BOUND_V2.pack(bits)
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


def _parse_header(blob: bytes) -> tuple[int, int, int, int]:
    """Common header parse -> (kind, key_size, exponent,
    offset-of-next-field).  Scalar and packed frames continue with the
    rank byte (:func:`_parse_rank`)."""
    if len(blob) < _PREFIX_V2.size:
        raise EncodingError("blob shorter than the frame header")
    magic, version, kind, key_size, exponent = _PREFIX_V2.unpack(
        blob[:_PREFIX_V2.size]
    )
    if magic != _MAGIC:
        raise EncodingError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise EncodingError(f"unsupported wire version {version}")
    if kind not in _KINDS:
        raise EncodingError(f"unknown v2 payload kind {kind}")
    return kind, key_size, exponent, _PREFIX_V2.size


def _parse_rank(blob: bytes, offset: int) -> tuple[int, int]:
    if offset >= len(blob):
        raise EncodingError("blob shorter than the frame header")
    return blob[offset], offset + 1


def frame_kind(blob: bytes) -> int:
    """Peek a frame's payload kind (:data:`KIND_SCALAR` /
    :data:`KIND_PACKED` / :data:`KIND_BOUNDED`) without parsing the
    body."""
    return _parse_header(blob)[0]


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
    """Parse a scalar or bounded frame into an encrypted tensor.

    Raises:
        EncodingError: on bad framing, truncation, trailing bytes, a
            bound of 0 or one the key could not hold, or a packed
            frame (parse those with :func:`packed_tensor_from_bytes`).
        KeyMismatchError: when the frame's key size differs from the
            supplied public key's.
    """
    kind, key_size, exponent, offset = _parse_header(blob)
    if kind not in (KIND_SCALAR, KIND_BOUNDED):
        raise EncodingError(
            "frame carries a lane-packed tensor; parse it with "
            "any_tensor_from_bytes"
        )
    _check_key(key_size, public_key)
    rank, offset = _parse_rank(blob, offset)
    bits = None
    if kind == KIND_BOUNDED:
        if offset + _BOUND_V2.size > len(blob):
            raise EncodingError("truncated bound header")
        (bits,) = _BOUND_V2.unpack(blob[offset:offset + _BOUND_V2.size])
        offset += _BOUND_V2.size
        # No signed value of this key reaches 2^|n|.
        if not 1 <= bits <= public_key.n.bit_length():
            raise EncodingError(
                f"certified bound of {bits} bits does not fit a "
                f"{public_key.key_size}-bit key"
            )
    dims, offset = _parse_dims(blob, offset, rank)
    cells = _parse_cells(blob, offset, dims, public_key)
    return EncryptedTensor(public_key, cells, dims, exponent, bits)


def packed_tensor_from_bytes(
    blob: bytes, public_key: PaillierPublicKey
) -> PackedEncryptedTensor:
    """Parse a v2 packed frame back into a lane-packed tensor.

    The packer is rebuilt from the frame's lane geometry; its capacity
    constraint re-validates against the supplied key, so a frame whose
    geometry cannot fit the key fails here rather than producing
    garbage lanes.
    """
    kind, key_size, exponent, offset = _parse_header(blob)
    if kind != KIND_PACKED:
        raise EncodingError(
            "frame carries a scalar tensor; parse it with "
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


def any_tensor_to_bytes(
    tensor: EncryptedTensor | PackedEncryptedTensor,
) -> bytes:
    """Serialize any tensor flavour (dispatch on type)."""
    if isinstance(tensor, PackedEncryptedTensor):
        return packed_tensor_to_bytes(tensor)
    return tensor_to_bytes(tensor)


def any_tensor_from_bytes(
    blob: bytes, public_key: PaillierPublicKey
) -> EncryptedTensor | PackedEncryptedTensor:
    """Parse any tensor flavour (dispatch on the frame kind)."""
    if frame_kind(blob) == KIND_PACKED:
        return packed_tensor_from_bytes(blob, public_key)
    return tensor_from_bytes(blob, public_key)
