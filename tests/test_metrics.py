import numpy as np
import pytest

from dfmm.errors import BadParams
from dfmm.metrics import impermanent_loss
from oracles import cpmm_impermanent_loss


class TestImpermanentLoss:
    def test_no_move(self):
        assert impermanent_loss(100.0, 100.0) == 0.0

    def test_ratio_four(self):
        assert impermanent_loss(25.0, 100.0) == pytest.approx(-0.5)

    def test_ratio_quarter(self):
        assert impermanent_loss(100.0, 25.0) == pytest.approx(-0.125)

    def test_matches_pool_simulation(self):
        for ratio in (0.25, 0.5, 1.0, 2.0, 4.0):
            closed = impermanent_loss(1.0, ratio)
            simulated = cpmm_impermanent_loss(ratio)
            assert abs(closed - simulated) <= 1e-12

    def test_nonpositive_everywhere(self):
        rng = np.random.default_rng(67)
        for _ in range(1000):
            p0 = float(rng.uniform(0.01, 1000.0))
            p1 = float(rng.uniform(0.01, 1000.0))
            il = impermanent_loss(p0, p1)
            assert il <= 1e-15
            if abs(p1 / p0 - 1.0) > 1e-9:
                assert il < 0

    def test_depends_only_on_ratio(self):
        assert impermanent_loss(10.0, 20.0) == pytest.approx(impermanent_loss(1.0, 2.0))

    def test_invalid_prices(self):
        with pytest.raises(BadParams):
            impermanent_loss(0.0, 1.0)
        with pytest.raises(BadParams):
            impermanent_loss(1.0, -1.0)
