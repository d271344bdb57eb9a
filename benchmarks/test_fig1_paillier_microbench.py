"""Figure 1: Paillier micro-benchmark (real cryptography).

Per-operation pytest-benchmark timings at the paper's key sizes, plus
the per-tensor Fig. 1 table (28x28 tensor, scalar 10^6), plus tiny-key
checks that the batched engine agrees with the scalar path.
"""

import random

import numpy as np
import pytest

from repro.crypto.engine import PaillierEngine
from repro.crypto.paillier import generate_keypair
from repro.crypto.tensor import EncryptedTensor
from repro.experiments import fig1_paillier


@pytest.fixture(scope="module", params=[512, 1024, 2048])
def keypair_at(request):
    public, private = generate_keypair(request.param, seed=1)
    return request.param, public, private


def test_fig1_encrypt(benchmark, keypair_at):
    key_size, public, _ = keypair_at
    rng = random.Random(0)
    benchmark.group = f"fig1-{key_size}bit"
    benchmark.name = f"encrypt-{key_size}"
    benchmark.pedantic(
        lambda: public.encrypt(123456, rng), rounds=5, iterations=1
    )


def test_fig1_decrypt(benchmark, keypair_at):
    key_size, public, private = keypair_at
    rng = random.Random(0)
    cipher = public.encrypt(123456, rng)
    benchmark.group = f"fig1-{key_size}bit"
    benchmark.pedantic(
        lambda: private.decrypt(cipher), rounds=5, iterations=1
    )


def test_fig1_homomorphic_add(benchmark, keypair_at):
    key_size, public, _ = keypair_at
    rng = random.Random(0)
    a = public.encrypt(11, rng)
    b = public.encrypt(22, rng)
    benchmark.group = f"fig1-{key_size}bit"
    benchmark.pedantic(lambda: a + b, rounds=20, iterations=5)


def test_fig1_scalar_mul(benchmark, keypair_at):
    key_size, public, _ = keypair_at
    rng = random.Random(0)
    cipher = public.encrypt(33, rng)
    benchmark.group = f"fig1-{key_size}bit"
    benchmark.pedantic(lambda: cipher * (10 ** 6), rounds=10,
                       iterations=2)


def test_fig1_table(benchmark):
    """The full Fig. 1 table: per-28x28-tensor step latencies."""
    rows = benchmark.pedantic(
        lambda: fig1_paillier.run_fig1(
            key_sizes=(512, 1024, 2048), sample_elements=12, repeats=1
        ),
        rounds=1, iterations=1,
    )
    print()
    print(fig1_paillier.render_fig1(rows))
    # paper shape: enc/dec in seconds per tensor at 2048 bits,
    # arithmetic orders of magnitude cheaper
    big = rows[-1]
    assert big.encrypt_seconds > big.add_seconds * 50
    assert big.encrypt_seconds > rows[0].encrypt_seconds


@pytest.mark.smoke
def test_engine_smoke_tiny_key():
    """Tiny-key sanity check of the bench subject: the engine agrees
    bit-for-bit with the scalar path, so benchmarking it is meaningful.
    Fast enough for any tier (128-bit key, a handful of elements)."""
    public, private = generate_keypair(128, seed=3)
    values = [0, 1, 255, public.n - 1]
    scalar_rng, engine_rng = random.Random(5), random.Random(5)
    scalar = [public.encrypt(m, scalar_rng).ciphertext for m in values]
    with PaillierEngine(public, private_key=private, seed=9) as engine:
        batched = [c.ciphertext
                   for c in engine.encrypt_many(values, rng=engine_rng)]
        assert batched == scalar
        pooled = engine.encrypt_many(values)
        assert engine.decrypt_many(pooled) == values


@pytest.mark.smoke
def test_engine_smoke_matvec_tiny_key():
    public, private = generate_keypair(128, seed=3)
    rng = random.Random(1)
    x = np.array([3, -5, 0, 7], dtype=np.int64)
    weight = np.array(
        [[rng.randrange(-999, 999) for _ in range(4)] for _ in range(3)],
        dtype=np.int64,
    )
    bias = np.array([1, -2, 3], dtype=np.int64)
    tensor = EncryptedTensor.encrypt(x, public, random.Random(2))
    scalar = tensor.affine(weight, bias, random.Random(4))
    with PaillierEngine(public, seed=9) as engine:
        batched = tensor.affine(weight, bias, random.Random(4),
                                engine=engine)
    assert [c.ciphertext for c in scalar.cells()] == \
        [c.ciphertext for c in batched.cells()]

