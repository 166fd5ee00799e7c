"""Core types, interval algebra, and the plan-duration cost model."""

from __future__ import annotations

import gc
import importlib
import math
import sys
import weakref

import pytest
from hypothesis import given, strategies as st

from tandem.model import (
    COEFFICIENT_FLOOR,
    AgentId,
    DurationStats,
    SynergyEntry,
    SynergyMatrix,
    TimeInterval,
    coupled_lane_durations,
    overlap_pairs,
    stats_table,
)
from tandem.config import make_world_config
from tandem.errors import ConfigError
from tandem.planner import CandidatePlan, PlanningDomain, TaskInstance, predict_makespan

from interval_algebra import ZeroDurationTask, interval_intersection, length, overlap_ratio

H, R = AgentId.HUMAN, AgentId.ROBOT

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)

# Time stamps on a microsecond grid: the modeled clock has millisecond
# resolution, so denormal-second intervals (where ratios underflow) are out
# of contract.
grid_times = st.integers(min_value=0, max_value=10**12).map(lambda n: n / 1e6)


def intervals(draw_from=times):
    return st.tuples(draw_from, draw_from).map(
        lambda p: TimeInterval(min(p), max(p))
    )


class TestTimeInterval:
    def test_duration_examples(self):
        assert length(TimeInterval(0.0, 10.0)) == 10.0
        assert length(None) == 0.0
        assert length(TimeInterval(3.5, 3.5)) == 0.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            TimeInterval(-1.0, 2.0)

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError):
            TimeInterval(5.0, 4.0)

    @pytest.mark.parametrize("bounds", [(math.nan, 2.0), (0.0, math.nan), (0.0, math.inf)])
    def test_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(ValueError, match="must be finite"):
            TimeInterval(*bounds)


class TestIntersection:
    def test_containment(self):
        assert interval_intersection(TimeInterval(0, 10), TimeInterval(4, 9)) == TimeInterval(4, 9)

    def test_touching_endpoints_give_zero_length(self):
        out = interval_intersection(TimeInterval(0, 5), TimeInterval(5, 8))
        assert out == TimeInterval(5, 5)
        assert length(out) == 0.0

    def test_disjoint_is_empty(self):
        assert interval_intersection(TimeInterval(0, 2), TimeInterval(3, 4)) is None

    def test_empty_operand(self):
        assert interval_intersection(None, TimeInterval(0, 1)) is None
        assert interval_intersection(TimeInterval(0, 1), None) is None

    @given(intervals(), intervals())
    def test_commutative(self, a, b):
        assert interval_intersection(a, b) == interval_intersection(b, a)

    @given(intervals())
    def test_idempotent_on_equal_inputs(self, a):
        assert interval_intersection(a, a) == a


class TestOverlapRatio:
    def test_half(self):
        assert overlap_ratio(TimeInterval(0, 10), TimeInterval(4, 9)) == 0.5

    def test_identical(self):
        assert overlap_ratio(TimeInterval(0, 10), TimeInterval(0, 10)) == 1.0

    def test_disjoint(self):
        assert overlap_ratio(TimeInterval(0, 10), TimeInterval(20, 30)) == 0.0

    def test_zero_duration_task_rejected(self):
        with pytest.raises(ZeroDurationTask):
            overlap_ratio(TimeInterval(3.5, 3.5), TimeInterval(0, 10))

    @given(intervals(grid_times), intervals(grid_times))
    def test_in_unit_range(self, own, other):
        if length(own) == 0.0:
            return
        delta = overlap_ratio(own, other)
        assert 0.0 <= delta <= 1.0
        inter = interval_intersection(own, other)
        assert (delta == 0.0) == (length(inter) == 0.0)


class TestSynergyDuration:
    """coupled_lane_durations over slot-major lists: the human lane's slots first."""

    def test_full_overlap_scales_by_coefficient(self):
        durations = coupled_lane_durations(
            [10.0, 10.0], [[1.0], [1.5]], [0.0, 0.0], [10.0, 10.0], 1
        )
        assert durations[1] == 15.0

    def test_partial_overlap_with_idle_closure(self):
        # d=10, 40% overlapped at s=2, the remaining 60% stays nominal:
        # 10 * (2 * 0.4 + 0.6) = 14.
        durations = coupled_lane_durations([4.0, 10.0], [[1.0], [2.0]], [0.0, 0.0], [4.0, 10.0], 1)
        assert durations[1] == pytest.approx(14.0, abs=1e-12)

    def test_neutral_matrix_reduces_to_nominal(self):
        # h1 over [2, 9] covers the end of r1 over [0, 7] and the start of r2 over [7, 12].
        means = [7.0, 7.0, 5.0]
        rows = [[1.0, 1.0], [1.0], [1.0]]
        durations = coupled_lane_durations(means, rows, [2.0, 0.0, 7.0], [9.0, 7.0, 12.0], 1)
        assert durations == means


def _two_lane_cost(human_mean, robot_mean):
    """predict_makespan of one human and one robot task, both from time 0, neutral synergy."""
    domain = PlanningDomain(
        (TaskInstance("h", "h_task", frozenset({H})), TaskInstance("r", "r_task", frozenset({R})))
    )
    stats = stats_table(
        [DurationStats("h_task", H, human_mean, 0.0, 3), DurationStats("r_task", R, robot_mean, 0.0, 3)]
    )
    plan = CandidatePlan(assignment={"h": H, "r": R}, order={H: ("h",), R: ("r",)})
    return predict_makespan(domain, plan, stats, SynergyMatrix())


class TestPlanCost:
    """The slower agent's finish time is the plan's cost."""

    def test_max(self):
        assert _two_lane_cost(12.0, 9.0) == 12.0

    def test_tie(self):
        assert _two_lane_cost(7.5, 7.5) == 7.5

    @given(st.floats(1e-3, 1e9), st.floats(1e-3, 1e9))
    def test_commutative_and_dominates(self, a, b):
        assert _two_lane_cost(a, b) == _two_lane_cost(b, a) == max(a, b)


class TestValueTypes:
    def test_task_spec_needs_agents(self):
        with pytest.raises(ConfigError, match=r"^task 'pick_white' has no eligible agents$"):
            make_world_config({"tasks": {"pick_white": {"agent": []}}})

    def test_duration_stats_validation(self):
        with pytest.raises(ValueError):
            DurationStats("t", R, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            DurationStats("t", R, 5.0, 1.0, 1)  # single sample must have std 0
        with pytest.raises(ValueError):
            DurationStats("t", R, 5.0, -0.1, 2)

    def test_synergy_entry_must_be_positive(self):
        with pytest.raises(ValueError):
            SynergyEntry(coefficient=0.0)
        with pytest.raises(ValueError):
            SynergyEntry(coefficient=-1.0)

    def test_matrix_defaults_to_neutral(self):
        matrix = SynergyMatrix()
        entry = matrix.get(R, "anything", "else")
        assert entry.coefficient == 1.0
        assert entry.sample_count == 0

    def test_counterpart(self):
        assert H.counterpart is R
        assert R.counterpart is H


def test_sequential_counterpart_overlaps_sum_to_at_most_one():
    import numpy as np

    rng = np.random.default_rng(42)
    for _ in range(200):
        own_start = float(rng.uniform(0, 50))
        own = TimeInterval(own_start, own_start + float(rng.uniform(0.1, 30)))
        t = float(rng.uniform(0, 40))
        others = []
        for _ in range(int(rng.integers(1, 8))):
            t += float(rng.uniform(0, 5))
            end = t + float(rng.uniform(0.1, 10))
            others.append(TimeInterval(t, end))
            t = end
        total = math.fsum(overlap_ratio(own, other) for other in others)
        assert total <= 1.0 + 1e-12


def _random_lane(rng, n):
    """Start-sorted tasks that never overlap one another.

    Half the lanes sit on a half-second grid, so tasks touch their neighbours
    and the other lane's endpoints; gaps and lengths of 0 give touching and
    zero-length tasks.
    """
    grid = bool(rng.integers(2))
    starts, ends = [], []
    t = float(rng.integers(0, 4))
    for _ in range(n):
        if grid:
            t += float(rng.choice([0.0, 0.0, 0.5, 1.0, 2.5]))
            length = float(rng.choice([0.0, 0.5, 1.0, 3.0, 4.5]))
        else:
            t += float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
            length = float(rng.choice([0.0, rng.uniform(0.1, 6.0)]))
        starts.append(t)
        t += length
        ends.append(t)
    return starts, ends


def _coupled_durations(means, rows, own_start, own_end, other_start, other_end):
    """Reference: one agent's tasks against every counterpart task.

    Task i costs means[i] * (1 + sum_j (s_ij - 1) * delta_ij) with
    s_ij = rows[i][j], terms added in counterpart order.  The two-lane kernel
    must equal this all-pairs scan run once per direction.
    """
    out = []
    for mean, row, own_s, own_e in zip(means, rows, own_start, own_end):
        own_len = own_e - own_s
        coupled = 0.0
        covered = 0.0
        for k, (other_s, other_e) in enumerate(zip(other_start, other_end)):
            lo = own_s if own_s > other_s else other_s
            hi = own_e if own_e < other_e else other_e
            if hi <= lo:
                continue
            delta = (hi - lo) / own_len
            coupled += row[k] * delta
            covered += delta
        out.append(mean * (1.0 + (coupled - covered)))
    return out


def _random_rows(rng, n_rows, n_cols):
    return [[float(x) for x in rng.uniform(0.3, 3.0, size=n_cols)] for _ in range(n_rows)]


def test_two_lane_kernel_equals_the_one_lane_sweep_each_way():
    import numpy as np

    rng = np.random.default_rng(8)
    seen = set()
    for case in range(1500):
        n_human, n_robot = (int(x) for x in rng.integers(0, 9, size=2))
        if case % 10 == 0:
            n_human = 0
        elif case % 10 == 1:
            n_robot = 0
        human_start, human_end = _random_lane(rng, n_human)
        robot_start, robot_end = _random_lane(rng, n_robot)
        human_means = [float(x) for x in rng.uniform(1.0, 20.0, size=n_human)]
        robot_means = [float(x) for x in rng.uniform(1.0, 20.0, size=n_robot)]
        human_rows = _random_rows(rng, n_human, n_robot)
        robot_rows = _random_rows(rng, n_robot, n_human)
        starts, ends = human_start + robot_start, human_end + robot_end
        want = _coupled_durations(
            human_means, human_rows, human_start, human_end, robot_start, robot_end
        ) + _coupled_durations(
            robot_means, robot_rows, robot_start, robot_end, human_start, human_end
        )
        # ends as long as means, and with the planner's sentinel after them:
        # the kernel reads starts and ends only within the two lanes.
        for lane_ends in (ends, [*ends, 0.0]):
            got = coupled_lane_durations(
                human_means + robot_means, human_rows + robot_rows, starts, lane_ends, n_human
            )
            assert got == want
        human = list(zip(human_start, human_end))
        robot = list(zip(robot_start, robot_end))
        cases = [
            ("no human task", n_human == 0 < n_robot),
            ("no robot task", n_robot == 0 < n_human),
            ("zero length", any(s == e for s, e in zip(starts, ends))),
            ("touching", bool({*human_start, *human_end} & {*robot_start, *robot_end})),
            ("human task over several robot tasks", _covers_several(human, robot)),
            ("robot task over several human tasks", _covers_several(robot, human)),
            ("equal ends", any(h[1] == r[1] and _overlap(h, r) > 0.0 for h in human for r in robot)),
            ("zero-length task at the pointer",
             _point_inside(robot, human) or _point_inside(human, robot)),
            ("the last human task ends inside a robot task",
             bool(human) and any(r[0] < human[-1][1] < r[1] and _overlap(human[-1], r) > 0.0
                                 for r in robot)),
            ("a robot task the pointer never reaches", _unreached(human, robot)),
        ]
        seen.update(name for name, hit in cases if hit)
    assert seen == {
        "no human task",
        "no robot task",
        "zero length",
        "touching",
        "human task over several robot tasks",
        "robot task over several human tasks",
        "equal ends",
        "zero-length task at the pointer",
        "the last human task ends inside a robot task",
        "a robot task the pointer never reaches",
    }


def _overlap(a, b):
    return min(a[1], b[1]) - max(a[0], b[0])


def _covers_several(lane, other):
    """Some task of `lane` shares more than an endpoint with two or more tasks of `other`."""
    return any(sum(_overlap(task, o) > 0.0 for o in other) >= 2 for task in lane)


def _unreached(human, robot):
    """Some robot task lies past the one the merge's pointer ends on.

    The pointer passes every robot task that starts before the human lane's
    last end and ends by then, and stops at the first other one.
    """
    last = human[-1][1] if human else -math.inf
    stop = next((k for k, (s, e) in enumerate(robot) if s >= last or e > last), len(robot))
    return stop < len(robot) - 1


def _point_inside(lane, other):
    """Some zero-length task of `lane` lies strictly inside a task of `other`.

    The merge's robot pointer sits on such a robot task, or on the robot task
    around such a human task, and must neither price the pair nor lose its place.
    """
    return any(s == e and o_s < s < o_e for s, e in lane for o_s, o_e in other)


def _price(means, rows, pairs):
    """The coupled-cost formula summed over a task's overlap pairs."""
    priced = []
    for mean, row, own_pairs in zip(means, rows, pairs):
        coupled = 0.0
        covered = 0.0
        for k, delta in own_pairs:
            coupled += row[k] * delta
            covered += delta
        priced.append(mean * (1.0 + (coupled - covered)))
    return priced


def test_overlap_pairs_is_the_window_coupled_durations_prices():
    """Both sweeps visit the same pairs with the same fractions, in the same order."""
    import numpy as np

    rng = np.random.default_rng(2024)
    # The counterpart lane's means and rows come from a stream of their own,
    # so the lanes are the ones drawn before the kernel priced both of them.
    other_rng = np.random.default_rng(2025)
    for _ in range(1000):
        own_start, own_end = _random_lane(rng, int(rng.integers(0, 9)))
        other_start, other_end = _random_lane(rng, int(rng.integers(0, 9)))
        means = [float(x) for x in rng.uniform(1.0, 20.0, size=len(own_start))]
        rows = [
            [float(x) for x in rng.uniform(0.3, 3.0, size=len(other_start))]
            for _ in own_start
        ]
        other_means = [float(x) for x in other_rng.uniform(1.0, 20.0, size=len(other_start))]
        other_rows = _random_rows(other_rng, len(other_start), len(own_start))
        pairs = overlap_pairs(own_start, own_end, other_start, other_end)
        back = overlap_pairs(other_start, other_end, own_start, own_end)
        priced = _price(means, rows, pairs) + _price(other_means, other_rows, back)
        assert coupled_lane_durations(
            means + other_means,
            rows + other_rows,
            own_start + other_start,
            own_end + other_end,
            len(own_start),
        ) == priced
        # The pairs are exactly the positive overlap ratios of the interval algebra.
        for i, own_pairs in enumerate(pairs):
            if own_end[i] == own_start[i]:
                assert own_pairs == []
                continue
            own = TimeInterval(own_start[i], own_end[i])
            ratios = [
                (k, overlap_ratio(own, TimeInterval(s, e)))
                for k, (s, e) in enumerate(zip(other_start, other_end))
            ]
            assert own_pairs == [(k, r) for k, r in ratios if r > 0.0]


def test_lower_factors_per_own_task():
    matrix = SynergyMatrix({
        H: {
            ("a", "x"): SynergyEntry(0.5),
            ("a", "y"): SynergyEntry(2.0),
            ("b", "x"): SynergyEntry(1.0),
            ("b", "y"): SynergyEntry(3.0),
        },
        R: {("x", "a"): SynergyEntry(COEFFICIENT_FLOOR)},
    })
    margin = 1e-9 * (2.0 + 3.0)
    assert matrix.lower_factors == {
        H: {"a": 0.5 - margin, "b": 1.0},
        R: {"x": COEFFICIENT_FLOOR - margin},
    }
    # A margin above the smallest coefficient floors its factor at 0.
    wide = SynergyMatrix(
        {R: {("x", "a"): SynergyEntry(COEFFICIENT_FLOOR), ("x", "b"): SynergyEntry(5000.0)}}
    )
    assert wide.lower_factors == {R: {"x": 0.0}}
    assert SynergyMatrix().lower_factors == {}


def test_lower_factors_bound_every_coupled_duration():
    """No task's coupled duration falls below its mean times its matrix factor.

    A factor of 1.0 holds bit for bit; a smaller one is close to tight when
    a task is covered by counterparts of its smallest coefficient.
    """
    import numpy as np

    rng = np.random.default_rng(2026)
    levels = (COEFFICIENT_FLOOR, 0.05, 0.4, 0.9, 1.0, 1.3, 3.0, 50.0)
    specs = ("s0", "s1", "s2")
    slack = {"exact": math.inf, "below one": math.inf}
    for case in range(1500):
        chosen = rng.choice(levels, size=int(rng.integers(1, 4)), replace=False)
        matrix = SynergyMatrix({
            agent: {
                (own, other): SynergyEntry(float(rng.choice(chosen)))
                for own in specs
                for other in specs
                if rng.random() < 0.7
            }
            for agent in AgentId
        })
        n_human, n_robot = (int(x) for x in rng.integers(0, 9, size=2))
        human_start, human_end = _random_lane(rng, n_human)
        robot_start, robot_end = _random_lane(rng, n_robot)
        starts, ends = human_start + robot_start, human_end + robot_end
        if case % 3 == 0:  # late clock readings round every fraction
            starts = [t + 1e5 for t in starts]
            ends = [t + 1e5 for t in ends]
        own_specs = [specs[int(x)] for x in rng.integers(0, 3, size=n_human + n_robot)]
        agents = [H] * n_human + [R] * n_robot
        rows = [
            [
                matrix.get(agent, spec, other).coefficient
                for other in (own_specs[n_human:] if agent is H else own_specs[:n_human])
            ]
            for agent, spec in zip(agents, own_specs)
        ]
        means = [float(x) for x in rng.uniform(1.0, 20.0, size=len(agents))]
        durations = coupled_lane_durations(means, rows, starts, ends, n_human)
        for agent, spec, mean, duration in zip(agents, own_specs, means, durations):
            factor = matrix.lower_factors[agent].get(spec, 1.0)
            assert duration >= mean * factor
            kind = "exact" if factor == 1.0 else "below one"
            slack[kind] = min(slack[kind], duration / mean - factor)
    assert slack == {"exact": 0.0, "below one": pytest.approx(0.0, abs=1e-6)}


def test_reimport_releases_the_previous_copy():
    def package_modules():
        return {n: m for n, m in sys.modules.items() if n == "tandem" or n.startswith("tandem.")}

    saved = package_modules()
    try:
        for name in saved:
            del sys.modules[name]
        importlib.import_module("tandem.cli")
        fresh = weakref.ref(sys.modules["tandem.model"].DurationStats)
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert fresh() is None
