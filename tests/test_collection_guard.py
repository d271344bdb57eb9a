"""Guards for the test-suite plumbing itself.

Two failure modes this catches:

* a test directory added without an ``__init__.py`` — its modules are
  not importable by dotted path, which breaks tooling that resolves
  tests as packages and invites basename collisions between
  directories;
* the ``[tool.repro]`` tier-1 alias in pyproject.toml drifting away
  from the markers / options it refers to;
* property tests drawing random examples in tier 1, where a run must
  repeat the last one.
"""

from __future__ import annotations

import importlib.util
import sys
import tomllib
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
PYPROJECT = REPO_ROOT / "pyproject.toml"


def _test_dirs() -> list[Path]:
    """Every directory under tests/ that contains test modules."""
    dirs = {TESTS_DIR}
    for module in TESTS_DIR.rglob("test_*.py"):
        dirs.add(module.parent)
    return sorted(dirs)


class TestPackageDiscoverability:
    def test_every_test_dir_has_an_init(self):
        missing = [
            str(directory.relative_to(REPO_ROOT))
            for directory in _test_dirs()
            if not (directory / "__init__.py").is_file()
        ]
        assert not missing, (
            "test directories missing __init__.py (their modules are "
            f"not importable by dotted path): {missing}"
        )

    def test_every_test_module_resolves_by_dotted_path(self):
        if str(REPO_ROOT) not in sys.path:
            sys.path.insert(0, str(REPO_ROOT))
        unresolvable = []
        for module in sorted(TESTS_DIR.rglob("test_*.py")):
            relative = module.relative_to(REPO_ROOT)
            dotted = ".".join(relative.with_suffix("").parts)
            if importlib.util.find_spec(dotted) is None:
                unresolvable.append(dotted)
        assert not unresolvable, (
            f"test modules not importable as packages: {unresolvable}"
        )


class TestTier1Alias:
    def test_pyproject_defines_the_tier1_alias(self):
        with PYPROJECT.open("rb") as handle:
            doc = tomllib.load(handle)
        alias = doc.get("tool", {}).get("repro", {}).get("tier1")
        assert alias, "[tool.repro] tier1 alias missing from pyproject"
        assert "not slow" in alias, (
            "the tier-1 alias must deselect slow-marked tests "
            f"(got {alias!r})"
        )

    def test_slow_marker_the_alias_relies_on_is_registered(self):
        with PYPROJECT.open("rb") as handle:
            doc = tomllib.load(handle)
        markers = doc["tool"]["pytest"]["ini_options"]["markers"]
        assert any(m.split(":")[0].strip() == "slow" for m in markers)

    def test_tier1_option_deselects_slow(self, pytestconfig):
        # The --tier1 shorthand exists (wired in tests/conftest.py)...
        assert pytestconfig.getoption("--tier1") in (True, False)
        # ...and this module itself is part of tier 1: it must carry
        # no slow marker, or the guard would never run in tier-1 mode.
        import tests.test_collection_guard as self_module

        assert not getattr(self_module, "pytestmark", None)


class TestTier1Hypothesis:
    def test_tier1_profile_is_deterministic(self, pytestconfig):
        from hypothesis import settings

        profile = settings.get_profile("tier1")
        assert profile.derandomize and profile.print_blob
        if pytestconfig.getoption("hypothesis_profile", None) is None:
            assert settings.default is profile
