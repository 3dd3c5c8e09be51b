"""The shared uniformization core: series, mass guard and event timeline."""

import numpy as np
import pytest

from fleetsizing.model import InvariantViolationError
from fleetsizing.uniformization import check_mass, uniformize


def shift_kernel(cur, out):
    """All mass moves one state up; the top state keeps its mass."""
    out[0] = 0.0
    out[1:] = cur[:-1]
    out[-1] += cur[-1]


class TestUniformize:
    def test_poisson_weights_of_a_pure_shift(self):
        state = np.array([1.0, 0.0, 0.0, 0.0])
        uniformize(state, 2.0, 0.5, shift_kernel)
        e = np.exp(-1.0)
        assert state[:3] == pytest.approx([e, e, e / 2], abs=1e-15)
        assert state.sum() == pytest.approx(1.0, abs=1e-15)

    def test_nothing_happens_without_rate_or_time(self):
        state = np.array([0.25, 0.75])
        uniformize(state, 0.0, 3.0, shift_kernel)
        uniformize(state, 5.0, 0.0, shift_kernel)
        assert list(state) == [0.25, 0.75]

    def test_backwards_time_is_rejected(self):
        with pytest.raises(ValueError):
            uniformize(np.array([1.0]), 1.0, -0.1, shift_kernel)


class TestCheckMass:
    def test_clean_rows_pass_unchanged(self):
        states = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        assert check_mass(states, 1e-9, "here") == []
        assert states.tolist() == [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]

    def test_rounding_negative_is_clipped_and_renormalized(self):
        states = np.array([[0.5, -1e-14, 0.5 + 2e-14]])
        assert check_mass(states, 1e-9, "here") == []
        assert states.min() == 0.0
        assert states.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_negative_and_drift_fail_their_row_only(self):
        states = np.array([[1.0, 0.0], [1.1, -0.1], [0.5, 0.4]])
        failed = check_mass(states, 1e-9, "at t=1")
        assert [i for i, _ in failed] == [1, 2]
        assert all(isinstance(e, InvariantViolationError) for _, e in failed)
        assert str(failed[0][1]) == "negative probability -1.000e-01 at t=1"
        assert str(failed[1][1]) == "probability mass drifted by 1.000e-01 at t=1"

    def test_tolerance_is_the_callers(self):
        states = np.array([[0.5, 0.5 + 5e-9]])
        assert check_mass(states.copy(), 1e-8, "") == []
        assert len(check_mass(states.copy(), 1e-9, "")) == 1
