"""Cryptographic substrate: Paillier PHE, encodings, encrypted tensors.

The paper (Section III-B) protects linear operations with Paillier's
partially homomorphic encryption.  This subpackage implements the full
cryptosystem from scratch — key generation over probable primes, the
``g = n + 1`` encryption optimization, CRT-accelerated decryption — plus
the signed/fixed-point encodings needed to push neural-network values
through a cryptosystem that only understands residues mod ``n``, and a
tensor wrapper that lifts the homomorphic operations to whole arrays.
"""

from .math_utils import (
    crt_pair,
    generate_prime,
    invmod,
    is_probable_prime,
    lcm,
)
from .paillier import (
    EncryptedNumber,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from .encoding import (
    DEFAULT_GUARD_BITS,
    FixedPointEncoder,
    LanePacker,
    SignedEncoder,
)
from .backend import (
    BigintBackend,
    HAVE_GMPY2,
    available_backends,
    resolve_backend,
)
from .engine import (
    BlindingPool,
    PaillierEngine,
    PowerCache,
    PowerTable,
    default_engine,
)
from .sparse import SparseMatvecPlan
from .tensor import EncryptedTensor, FoldedTensor, PackedEncryptedTensor
from .serialize import (
    private_key_from_json,
    private_key_to_json,
    public_key_from_json,
    public_key_to_json,
    tensor_from_bytes,
    tensor_to_bytes,
)

__all__ = [
    "crt_pair",
    "generate_prime",
    "invmod",
    "is_probable_prime",
    "lcm",
    "EncryptedNumber",
    "PaillierPrivateKey",
    "PaillierPublicKey",
    "generate_keypair",
    "SignedEncoder",
    "FixedPointEncoder",
    "DEFAULT_GUARD_BITS",
    "LanePacker",
    "BigintBackend",
    "HAVE_GMPY2",
    "available_backends",
    "resolve_backend",
    "BlindingPool",
    "PaillierEngine",
    "PowerCache",
    "PowerTable",
    "SparseMatvecPlan",
    "default_engine",
    "EncryptedTensor",
    "FoldedTensor",
    "PackedEncryptedTensor",
    "private_key_from_json",
    "private_key_to_json",
    "public_key_from_json",
    "public_key_to_json",
    "tensor_from_bytes",
    "tensor_to_bytes",
]
