"""The shared uniformization core: series, mass guard and event timeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsizing.model import InvariantViolationError
from fleetsizing.uniformization import JUMP, RECORD, check_mass, timeline, uniformize

from conftest import make_rate, pieces_of, value_at


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
        with pytest.raises(ValueError):
            uniformize(np.ones((2, 3)), np.array([1.0, 1.0]), np.array([0.5, -0.1]), shift_kernel)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_each_row_is_bitwise_its_own_call(self, seed):
        # rows differ in rate * dt: silent rows, short pieces and pieces
        # that need several substeps, some rows sharing one series
        r = np.random.default_rng(seed)
        m = int(r.integers(1, 7))
        rates = r.choice([0.0, 0.3, 4.0, 45.0], m) * r.choice([1.0, 1.0, r.uniform(0.5, 2.0)], m)
        dts = r.choice([0.0, 0.2, 1.0, 2.5], m)
        start = r.dirichlet(np.ones(6), m)

        def row_kernel(cur, out):
            for i in range(len(cur)):
                shift_kernel(cur[i], out[i])

        rows = start.copy()
        uniformize(rows, rates, dts, row_kernel)
        for i in range(m):
            alone = start[i].copy()
            uniformize(alone, float(rates[i]), float(dts[i]), shift_kernel)
            assert np.array_equal(rows[i], alone)


class TestCheckMass:
    def test_clean_rows_pass_unchanged(self):
        states = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        assert check_mass(states, 1e-9, "here") == ([], 0.0)
        assert states.tolist() == [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]

    def test_rounding_negative_is_clipped_and_renormalized(self):
        states = np.array([[0.5, -1e-14, 0.5 + 2e-14]])
        assert check_mass(states, 1e-9, "here")[0] == []
        assert states.min() == 0.0
        assert states.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_negative_and_drift_fail_their_row_only(self):
        states = np.array([[1.0, 0.0], [1.1, -0.1], [0.5, 0.4]])
        failed, worst = check_mass(states, 1e-9, "at t=1")
        assert [i for i, _ in failed] == [1, 2]
        assert all(isinstance(e, InvariantViolationError) for _, e in failed)
        assert str(failed[0][1]) == "negative probability -1.000e-01 at t=1"
        assert str(failed[1][1]) == "probability mass drifted by 1.000e-01 at t=1"
        assert worst == pytest.approx(0.1)

    def test_where_may_name_each_row(self):
        states = np.array([[1.0, 0.0], [0.5, 0.4]])
        (failed,), _ = check_mass(states, 1e-9, lambda i: f"in row {i}")
        assert str(failed[1]) == "probability mass drifted by 1.000e-01 in row 1"

    def test_tolerance_is_the_callers(self):
        states = np.array([[0.5, 0.5 + 5e-9]])
        assert check_mass(states.copy(), 1e-8, "")[0] == []
        assert len(check_mass(states.copy(), 1e-9, "")[0]) == 1


class TestTimeline:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_pieces_rates_and_actions(self, seed):
        # jump and record times are drawn partly from the breakpoints and
        # from each other, so ties of every kind occur
        r = np.random.default_rng(seed)
        horizon = 4.0
        items = [make_rate(r, horizon, max_pieces=4) for _ in range(int(r.integers(0, 4)))]
        pool = [b for it in items for b in it.breakpoints] + np.round(r.uniform(0, horizon, 4), 1).tolist()
        T = float(r.choice([horizon, r.choice(pool), round(float(r.uniform(0, horizon)), 1)]))
        jumps = [(float(r.choice(pool)), n) for n in range(int(r.integers(0, 6)))]
        pool += [t for t, _ in jumps]
        records = [min(float(r.choice(pool + [T])), T) for _ in range(int(r.integers(0, 5)))]
        pieces, ends, actions, cuts = timeline(pieces_of(items), jumps, T, records)

        starts = np.concatenate([[0.0], ends])[:-1]
        assert np.all(np.diff(ends) > 0.0)
        assert ends.size == 0 if T == 0.0 else ends[-1] == T
        expected_ends = {b for it in items for b in it.breakpoints} | {t for t, _ in jumps}
        expected_ends = {t for t in expected_ends | set(records) | {T} if 0.0 < t <= T}
        assert set(ends.tolist()) == expected_ends
        assert np.array_equal(pieces[:, 0], ends - starts)
        for j, start in enumerate(starts.tolist()):
            assert pieces[j, 1:].tolist() == [value_at(it, start) for it in items]

        # each boundary runs the actions at its time, jumps before records,
        # each kind in input order
        assert cuts[0] == 0 and cuts[-1] == len(actions) and len(cuts) == len(ends) + 2
        at = {(JUMP, n): t for t, n in jumps} | {(RECORD, i): t for i, t in enumerate(records)}
        bounds = [0.0, *ends.tolist()]
        for b, t in enumerate(bounds):
            assert all(at[a] == t for a in actions[cuts[b] : cuts[b + 1]])
        due = [a for a in at if at[a] <= T]
        assert actions == sorted(due, key=lambda a: (at[a], a))

    def test_record_times_must_lie_within_the_horizon(self):
        with pytest.raises(ValueError, match="record times"):
            timeline(pieces_of([]), [], 1.0, [1.5])
        with pytest.raises(ValueError, match="record times"):
            timeline(pieces_of([]), [], 1.0, [-0.1])
        # within rounding of T a record is taken at T
        assert timeline(pieces_of([]), [], 1.0, [1.0 + 1e-12])[2:] == ([(RECORD, 0)], [0, 0, 1])
