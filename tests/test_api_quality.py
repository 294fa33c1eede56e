"""API-quality meta-tests: documentation and export hygiene.

A production library documents its public surface; these tests walk
the package and enforce it mechanically.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        modules.append(importlib.import_module(info.name))
    return modules


ALL_MODULES = _walk_modules()


@pytest.mark.parametrize(
    "module", ALL_MODULES, ids=lambda m: m.__name__
)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize(
    "module", ALL_MODULES, ids=lambda m: m.__name__
)
def test_public_callables_documented(module):
    """Every public class and function defined in the package has a
    docstring."""
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", "") != module.__name__:
            continue  # re-export; documented at its home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, (
        f"{module.__name__}: missing docstrings on {undocumented}"
    )


def test_all_exports_resolve():
    """Every name in every __all__ actually exists."""
    for module in ALL_MODULES:
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ lists missing {name!r}"
            )


def test_package_top_level_lazy_exports():
    """The top-level lazy exports all resolve."""
    for name in repro.__all__:
        assert getattr(repro, name) is not None

    with pytest.raises(AttributeError):
        repro.definitely_not_a_thing


#: The only callables that take a ``cache`` argument: the process
#: default, the scope, and the sweep shorthand that opens that scope
#: around a sweep. Stages read ``repro.cache.active()``, and an
#: executor carries the active cache to its ``process`` chunks.
CACHE_TAKERS = {
    "repro.cache.enable",
    "repro.cache.use_cache",
    "repro.host.shmoo.ShmooRunner.__init__",
}


def _public_callables():
    """``(qualified name, function)`` for every public function, and
    every public method and ``__init__`` of every public class,
    defined in a ``repro`` module."""
    for module in ALL_MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") \
                    or getattr(obj, "__module__", "") != module.__name__:
                continue
            qualname = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                yield qualname, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{qualname}.{attr}", member


def test_cache_has_one_route():
    """Stages take no ``cache=``: a ``use_cache`` scope (or the
    ``enable`` default) is the one way to hand them a cache, and
    ``ShmooRunner(cache=)`` the one sweep shorthand. A signal stage
    memoizes through its single-row call only."""
    from repro import cache as artifact_cache
    from repro.cache import RemoteCacheTier
    from repro.signal.waveform import WaveformBatch

    takers = {qualname for qualname, fn in _public_callables()
              if "cache" in inspect.signature(fn).parameters}
    extra = sorted(takers - CACHE_TAKERS)
    assert not extra, f"these take a cache argument: {extra}"
    assert CACHE_TAKERS <= takers
    assert not hasattr(artifact_cache, "resolve")
    assert "local" not in inspect.signature(RemoteCacheTier).parameters
    # Batch stage calls always compute: no per-row cache route.
    assert not hasattr(artifact_cache, "get_or_compute_rows")
    assert not hasattr(WaveformBatch, "cache_tokens")
