import pytest

from qhs import oracle, partitions, weingarten
from qhs.exact import Echelon


def _clear_module_caches():
    """Clear every functools cache defined in qhs.partitions,
    qhs.weingarten and qhs.oracle, found by introspection so a renamed or
    new cache is included; returns how many there were."""
    caches = [
        value
        for module in (partitions, weingarten, oracle)
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]
    for cached in caches:
        cached.cache_clear()
    return len(caches)


@pytest.fixture
def cold_caches():
    """The test starts with the partition, Weingarten and fixed-space caches
    empty, and nothing it computed (perhaps under a monkeypatch) is left in
    them."""
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
