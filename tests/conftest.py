import importlib
import pkgutil

import pytest

import qhs
from qhs.exact import Echelon, Factor


def _clear_module_caches():
    """Clear every functools cache in qhs: each cached function of each qhs
    module, and each cached method of each class a module defines.  Found by
    introspection so a renamed or new cache is included; returns how many
    there were."""
    spaces = []
    for info in pkgutil.iter_modules(qhs.__path__, "qhs."):
        module = importlib.import_module(info.name)
        spaces.append(vars(module))
        spaces.extend(
            vars(value) for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        )
    caches = {
        id(value): value
        for space in spaces
        for value in space.values()
        if callable(getattr(value, "cache_clear", None))
    }
    for cached in caches.values():
        cached.cache_clear()
    return len(caches)


@pytest.fixture
def cold_caches():
    """The test starts with every qhs cache empty, and nothing it computed
    (perhaps under a monkeypatch) is left in them."""
    assert _clear_module_caches()
    yield
    _clear_module_caches()


@pytest.fixture
def corrupted_elimination(monkeypatch):
    """Echelon.back_substitute runs, then one entry of the right half of
    [G | I] in its first row is off by one, as a bug in the routine would
    leave it."""
    real = Echelon.back_substitute

    def corrupted(self):
        real(self)
        self.rows[0][-1] += 1

    monkeypatch.setattr(Echelon, "back_substitute", corrupted)


@pytest.fixture
def corrupted_solve(monkeypatch):
    """Factor._back_substitute runs, then its first numerator is off by one,
    as a bug in the back substitution would leave it."""
    real = Factor._back_substitute

    def corrupted(self, c):
        x, den = real(self, c)
        x[0] += 1
        return x, den

    monkeypatch.setattr(Factor, "_back_substitute", corrupted)
