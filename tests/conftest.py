import pytest

from qhs.exact import Echelon


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
