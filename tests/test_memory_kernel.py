import pytest

from memwave import MemoryOrder


class TestMemoryOrder:
    def test_accepts_closed_interval(self):
        assert MemoryOrder(1.0).alpha == 1.0
        assert MemoryOrder(2.0).alpha == 2.0
        assert MemoryOrder(1.5).alpha == 1.5

    @pytest.mark.parametrize("bad", [0.99, 2.01, -1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_outside(self, bad):
        with pytest.raises(ValueError):
            MemoryOrder(bad)
