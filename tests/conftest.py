"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def package_caches():
    """Every ``lru_cache`` of the imported ``matsuki`` modules, each once."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "matsuki" or name.startswith("matsuki.")):
            for value in vars(module).values():
                if hasattr(value, "cache_info"):
                    found[id(value)] = value
    return list(found.values())


@pytest.fixture
def cleared_caches(package_caches):
    """Run with every package cache empty, and empty them again afterwards so
    values computed under a monkeypatch do not leak into other tests."""
    for cache in package_caches:
        cache.cache_clear()
    yield
    for cache in package_caches:
        cache.cache_clear()
