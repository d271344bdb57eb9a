"""Shared benchmark configuration.

Set ``REPRO_FULL=1`` to include the CIFAR VGG models in Exp#1 accuracy
benches (adds several minutes of numpy training); the default covers
the six healthcare + MNIST models the paper's figures focus on.

Markers:

* ``-m smoke`` — run only the fast tiny-key engine sanity checks, not
  the full microbench (the same check also runs in tier-1 via
  ``tests/crypto/test_engine.py``).
"""

import os

import pytest


#: Models covered by default (the paper's Fig. 7/8/9 set).
FAST_MODELS = ("breast", "heart", "cardio", "mnist-1", "mnist-2",
               "mnist-3")

ALL_MODELS = FAST_MODELS + ("cifar-10-1", "cifar-10-2", "cifar-10-3")


def selected_models():
    if os.environ.get("REPRO_FULL") == "1":
        return ALL_MODELS
    return FAST_MODELS


@pytest.fixture(scope="session")
def model_keys():
    return selected_models()
