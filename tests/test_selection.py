import numpy as np
import pytest

from linexsel import MeanVectorPair, ObservationPair, select
from linexsel.kernels import select_batch


def test_fitted_means_as_observations():
    s = select(ObservationPair((59.0997, 131.4569), (58.3516, 195.7275)))
    assert s.selected == 1
    assert s.y_sel == 131.4569
    assert s.t1 == pytest.approx(-0.7481, abs=1e-4)
    assert s.t2 == pytest.approx(64.2706, abs=1e-4)


def test_larger_x_goes_to_population_one():
    assert select(ObservationPair((1.0, 0.0), (0.0, 0.0))).selected == 1


def test_tie_goes_to_population_two():
    s = select(ObservationPair((3.0, 10.0), (3.0, -5.0)))
    assert s.selected == 2
    assert s.y_sel == -5.0
    assert s.y_other == 10.0
    assert s.t1 == 0.0


def test_batch_summary_keeps_signed_zeros_at_ties():
    # x_min - x_max is +0.0 at every tie, signed zeros included, where -|x1 - x2|
    # would give -0.0; y_other - y_sel keeps its own signs of zero
    x1 = np.array([0.0, -0.0, 0.0, -0.0, 2.5, -1.0, 3.0, 1.0])
    x2 = np.array([0.0, 0.0, -0.0, -0.0, 2.5, 1.0, -3.0, 0.5])
    y1 = np.array([-0.0, 0.0, 1.0, -0.0, -0.0, 4.0, 0.0, -0.0])
    y2 = np.array([0.0, -0.0, 1.0, -0.0, 0.0, 4.0, -0.0, 0.0])
    sel1 = x1 > x2
    y_sel, y_other = np.where(sel1, y1, y2), np.where(sel1, y2, y1)
    t1 = np.minimum(x1, x2) - np.maximum(x1, x2)
    assert not np.signbit(t1[:5]).any()
    n = len(x1)
    full = select_batch(x1, y1, x2, y2)
    mask = np.empty(n, np.int64)
    lean = select_batch(x1, y1, x2, y2, (mask, np.empty(n), np.empty(n), np.empty(n)))
    # the comparison's mask: at (+0.0, -0.0) the sign of x2 - x1 would pick population 1
    assert mask.tolist() == (-sel1.astype(np.int64)).tolist()
    for s in (full, lean):
        assert s.t1.tobytes() == t1.tobytes()
        assert s.y_sel.tobytes() == y_sel.tobytes()
        assert s.t2.tobytes() == (y_other - y_sel).tobytes()
        assert (s.selected, s.x_max, s.x_min, s.y_other) == (None,) * 4


def test_swap_populations_swaps_only_the_index(rng):
    for _ in range(200):
        x1, y1, x2, y2 = rng.normal(0, 3, 4)
        s = select(ObservationPair((x1, y1), (x2, y2)))
        t = select(ObservationPair((x2, y2), (x1, y1)))
        if x1 != x2:
            assert {s.selected, t.selected} == {1, 2}
        assert (s.x_max, s.x_min, s.y_sel, s.y_other) == (t.x_max, t.x_min, t.y_sel, t.y_other)
        assert (s.t1, s.t2) == (t.t1, t.t2)


def test_location_equivariance(rng):
    for _ in range(200):
        x1, y1, x2, y2, c1, c2 = rng.normal(0, 3, 6)
        s = select(ObservationPair((x1, y1), (x2, y2)))
        t = select(ObservationPair((x1 + c1, y1 + c2), (x2 + c1, y2 + c2)))
        assert t.x_max == pytest.approx(s.x_max + c1)
        assert t.x_min == pytest.approx(s.x_min + c1)
        assert t.y_sel == pytest.approx(s.y_sel + c2)
        assert t.y_other == pytest.approx(s.y_other + c2)
        assert t.t1 == pytest.approx(s.t1, abs=1e-9)
        assert t.t2 == pytest.approx(s.t2, abs=1e-9)


def test_t1_never_positive(rng):
    for _ in range(500):
        x1, y1, x2, y2 = rng.normal(0, 5, 4)
        assert select(ObservationPair((x1, y1), (x2, y2))).t1 <= 0


class TestRealizedParameter:
    means = MeanVectorPair((0.0, 7.0), (0.0, -3.0))

    def test_tie_branch(self):
        # the realized parameter is theta_y of the selected population; a tie picks 2
        s = select(ObservationPair((0.0, 0.0), (0.0, 0.0)))
        theta = self.means.theta1 if s.selected == 1 else self.means.theta2
        assert theta[1] == -3.0
