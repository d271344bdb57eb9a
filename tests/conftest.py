"""Shared fixtures (small keypairs, trained models, built once) and a
lightweight per-test timeout guard.

The timeout guard gives ``pytest-timeout``-style semantics without the
plugin dependency: the ``timeout`` ini option (pyproject.toml) sets a
global per-test ceiling, overridable per test with
``@pytest.mark.timeout(seconds)``.  Implemented with SIGALRM so a
wedged channel/worker regression fails fast with a TimeoutGuard error
instead of hanging the whole suite; on platforms without SIGALRM it is
a no-op.

Property tests run under the ``tier1`` hypothesis profile: derandomized
(each test's examples derive from its own source, so every run draws
the same ones) and printing a reproduction blob on failure.  The CI
fuzz job passes ``--hypothesis-profile=fuzz --hypothesis-seed=N``
instead: random examples from a printed seed, and ten times every
test's example budget.
"""

from __future__ import annotations

import random
import signal
import threading

import numpy as np
import pytest
from hypothesis import settings

from repro.config import RuntimeConfig
from repro.crypto.paillier import generate_keypair
from repro.datasets import load_dataset
from repro.nn import model_zoo
from repro.nn.training import SGDTrainer


#: Example budget multiplier of the ``fuzz`` profile.
FUZZ_EXAMPLES_FACTOR = 10

settings.register_profile("tier1", derandomize=True, print_blob=True)
settings.register_profile("fuzz", derandomize=False, print_blob=True)
# Loaded at import; ``--hypothesis-profile`` replaces it afterwards.
settings.load_profile("tier1")


class TimeoutGuardError(Exception):
    """A test exceeded its per-test timeout."""


def pytest_addoption(parser):
    parser.addini(
        "timeout",
        "global per-test timeout in seconds (0 disables)",
        default="0",
    )
    parser.addoption(
        "--tier1",
        action="store_true",
        default=False,
        help="tier-1 mode: deselect tests marked slow (shorthand for "
             "-m 'not slow'; see [tool.repro] tier1 in pyproject.toml)",
    )


def _scale_fuzz_examples(items) -> None:
    """Under the ``fuzz`` profile, multiply every property test's
    example budget — including one a test pins with its own
    ``@settings(max_examples=...)``, which a profile cannot override."""
    if settings.default is not settings.get_profile("fuzz"):
        return
    scaled = set()
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)
        # Where @given / @settings keep a test's settings; hypothesis
        # has no public way to change them after decoration.
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is None or id(test) in scaled:
            continue    # not a property test, or a parametrized twin
        scaled.add(id(test))
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=own.max_examples * FUZZ_EXAMPLES_FACTOR)


def pytest_collection_modifyitems(config, items):
    _scale_fuzz_examples(items)
    if not config.getoption("--tier1"):
        return
    selected, deselected = [], []
    for item in items:
        if item.get_closest_marker("slow"):
            deselected.append(item)
        else:
            selected.append(item)
    if deselected:
        config.hook.pytest_deselected(items=deselected)
        items[:] = selected


def _timeout_for(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    try:
        return float(item.config.getini("timeout") or 0)
    except (TypeError, ValueError):
        return 0.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    seconds = _timeout_for(item)
    can_alarm = (
        seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        return (yield)

    def on_alarm(signum, frame):
        raise TimeoutGuardError(
            f"test exceeded its {seconds:g}s timeout "
            f"(tests/conftest.py timeout guard)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)

#: Small key for fast protocol tests; the key size is a config knob,
#: not a separate code path (see repro.config).
TEST_KEY_SIZE = 128


@pytest.fixture(scope="session")
def keypair():
    """A deterministic 128-bit Paillier keypair."""
    return generate_keypair(TEST_KEY_SIZE, seed=42)


@pytest.fixture(scope="session")
def keypair_256():
    """A deterministic 256-bit keypair for headroom-sensitive tests."""
    return generate_keypair(256, seed=43)


@pytest.fixture()
def rng():
    """A fresh seeded Python RNG per test."""
    return random.Random(1234)


@pytest.fixture()
def np_rng():
    """A fresh seeded numpy generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def breast_dataset():
    return load_dataset("breast")


@pytest.fixture(scope="session")
def trained_breast(breast_dataset):
    """A 3FC model trained to high accuracy on the breast stand-in."""
    model = model_zoo.build_model("breast")
    trainer = SGDTrainer(model, learning_rate=0.1, seed=0)
    trainer.fit(breast_dataset.train_x, breast_dataset.train_y, epochs=12)
    return model


@pytest.fixture(scope="session")
def tiny_conv_model():
    """A small conv model (8x8 input) for conv-path protocol tests."""
    return model_zoo.conv_fc(
        (1, 8, 8), 3, conv_channels=(2,), fc_hidden=8, seed=3,
        name="tiny-conv",
    )


@pytest.fixture(scope="session")
def test_config():
    return RuntimeConfig(key_size=TEST_KEY_SIZE)
