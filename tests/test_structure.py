import dataclasses

import numpy as np
import pytest

from fairrange.errors import StageError
from fairrange.structure import (
    build_super_balls,
    enforce_structure,
    nearest_surviving,
    reassign_private_facilities,
)

from conftest import (feasible_ranges, line_instance, manual_sp,
                      random_fair_instance, solve_stages)
from oracles import verify_structured


class TestNearestSurviving:
    def test_pairwise(self):
        Dl = np.array([[0.0, 3.0, 7.0], [3.0, 0.0, 5.0], [7.0, 5.0, 0.0]])
        nn, nd = nearest_surviving(Dl)
        assert nn.tolist() == [1, 0, 1]
        assert nd.tolist() == [3.0, 3.0, 5.0]

    def test_tie_takes_first(self):
        Dl = np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 4.0], [2.0, 4.0, 0.0]])
        nn, _ = nearest_surviving(Dl)
        assert nn[0] == 1

    def test_single(self):
        nn, nd = nearest_surviving(np.zeros((1, 1)))
        assert nn is None and nd is None


class TestSuperBalls:
    def test_support_inside_balls_gives_the_balls(self):
        x2 = np.array([[0.6, 0.4, 0.0], [0.0, 0.0, 1.0]])
        supers = build_super_balls(x2, [np.array([0, 1]), np.array([2])])
        assert supers[0].tolist() == [0, 1]
        assert supers[1].tolist() == [2]

    def test_private_server_joins_territory(self):
        # facility 1 is outside both balls and serves only the first location
        x2 = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        supers = build_super_balls(x2, [np.array([0]), np.array([2])])
        assert supers[0].tolist() == [0, 1]
        assert supers[1].tolist() == [2]

    def test_unserved_open_facility_stays_free(self):
        # facility 1 serves nobody, whatever its opening mass: no territory
        x2 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        supers = build_super_balls(x2, [np.array([0]), np.array([2])])
        assert supers[0].tolist() == [0]
        assert supers[1].tolist() == [2]

    def test_cross_ball_use_is_not_private(self):
        # facility 1 sits in the first ball; the second location's use of it
        # does not pull it into the second territory
        x2 = np.array([[1.0, 0.0, 0.0], [0.0, 0.3, 0.7]])
        supers = build_super_balls(x2, [np.array([0, 1]), np.array([2])])
        assert supers[0].tolist() == [0, 1]
        assert supers[1].tolist() == [2]

    def test_shared_private_server_raises(self):
        x2 = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        with pytest.raises(StageError, match="privately serves"):
            build_super_balls(x2, [np.array([0]), np.array([2])])


def shared_server_sp():
    # points: p0 at 0 (location+facility), p1 at 40 (facility), p2 at 100
    # (location+facility); the middle facility serves both locations from
    # outside both balls
    inst = line_instance([0.0, 40.0, 100.0],
                         client_demands={"p0": 2, "p2": 3})
    sp = manual_sp(
        inst, ("p0", "p2"), [16.0, 18.0],
        balls=[[0], [2]],
        x=[[0.6, 0.4, 0.0], [0.0, 0.3, 0.7]],
        y=[1.0, 0.4, 0.7])
    return inst, sp


class TestReassign:
    def test_far_share_moves_to_nearest_ball(self):
        _, sp = shared_server_sp()
        x2, moves = reassign_private_facilities(sp)
        # p0 is nearer to the shared facility and keeps its use of it
        assert x2[0].tolist() == [0.6, 0.4, 0.0]
        # p2's share is rerouted into p0's ball
        assert x2[1] == pytest.approx([0.3, 0.0, 0.7])
        assert moves == [(1, 1, 0, pytest.approx(0.3))]

    def test_moved_units_within_triple_distance(self):
        _, sp = shared_server_sp()
        D = sp.fac_dist
        _, moves = reassign_private_facilities(sp)
        for v, src, dst, _ in moves:
            assert D[v, dst] <= 3.0 * D[v, src] + 1e-9

    def test_row_sums_and_caps_preserved(self):
        _, sp = shared_server_sp()
        x2, _ = reassign_private_facilities(sp)
        assert x2.sum(axis=1) == pytest.approx(sp.x.sum(axis=1))
        assert np.all(x2 <= sp.y[None, :] + 1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_random_invariants(self, rng, p):
        for _ in range(15):
            n = int(rng.integers(8, 16))
            k = int(rng.integers(2, 5))
            inst = random_fair_instance(rng, n, p)
            rc = feasible_ranges(rng, inst, k)
            stages = solve_stages(inst, rc, "sparsify")
            sp, opt = stages["sparsify"], stages["solve_lp"].objective
            x2, moves = reassign_private_facilities(sp)
            D = sp.fac_dist
            assert x2.sum(axis=1) == pytest.approx(sp.x.sum(axis=1), abs=1e-7)
            assert np.all(x2 <= sp.y[None, :] + 1e-9)
            for v, src, dst, amt in moves:
                assert amt > 0
                assert D[v, dst] <= 3.0 * D[v, src] + 1e-9
            # in-ball service is never taken away
            for v in range(len(sp.location_ids)):
                assert np.all(x2[v, sp.balls[v]] >= sp.x[v, sp.balls[v]] - 1e-12)
            # facilities outside every ball serve at most one location
            ball_union = set()
            for b in sp.balls:
                ball_union |= set(b.tolist())
            for u in range(x2.shape[1]):
                if u in ball_union:
                    continue
                assert int((x2[:, u] > 1e-9).sum()) <= 1
            # rerouting pays at most 3^p per unit over the LP optimum
            dp = D ** p
            cost2 = float(sp.weights @ (x2 * dp).sum(axis=1))
            assert cost2 <= (3.0 ** p) * opt * (1 + 1e-7) + 1e-9


def structured_front(inst, rc):
    stages = solve_stages(inst, rc, "enforce_structure")
    return (stages["sparsify"], stages["reassign_private_facilities"][0],
            stages["enforce_structure"], stages["solve_lp"].objective)


class TestEnforceStructure:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_random_instances_verify_clean(self, rng, p):
        for _ in range(12):
            n = int(rng.integers(8, 16))
            k = int(rng.integers(2, 5))
            inst = random_fair_instance(rng, n, p)
            rc = feasible_ranges(rng, inst, k)
            sp, x2, ss, opt = structured_front(inst, rc)
            assert verify_structured(ss) == []
            # reordering on top of the reassignment stays within 3^p of it,
            # hence within 9^p of the relaxation optimum
            dp = sp.fac_dist ** p
            cost2 = float(sp.weights @ (x2 * dp).sum(axis=1))
            assert ss.cost_p <= (3.0 ** p) * cost2 * (1 + 1e-7) + 1e-9
            assert ss.cost_p <= (9.0 ** p) * opt * (1 + 1e-6) + 1e-9

    def test_single_survivor_path(self, rng):
        for _ in range(8):
            inst = random_fair_instance(rng, 8, 2.0)
            rc = feasible_ranges(rng, inst, 1)
            sp, _, ss, _ = structured_front(inst, rc)
            assert len(sp.location_ids) == 1
            # no peer: the ball alone is the territory and opens a full unit
            assert ss.peer_balls[0].size == 0 and ss.peer_dist.tolist() == [np.inf]
            assert ss.base_pow.tolist() == [0.0] and ss.ball_need.tolist() == [1.0]
            assert ss.territories[0] is sp.balls[0]
            assert verify_structured(ss) == []
            assert ss.x_bar.sum() == pytest.approx(1.0, abs=1e-7)

    def test_deterministic(self, rng):
        inst = random_fair_instance(rng, 12, 2.0)
        rc = feasible_ranges(rng, inst, 3)
        a, b = (solve_stages(inst, rc, "enforce_structure")["enforce_structure"]
                for _ in range(2))
        assert np.array_equal(a.y_bar, b.y_bar)
        assert np.array_equal(a.x_bar, b.x_bar)

    def test_idempotent_on_structured_openings(self, rng):
        inst = random_fair_instance(rng, 14, 1.0)
        rc = feasible_ranges(rng, inst, 4)
        ss = solve_stages(inst, rc, "enforce_structure")["enforce_structure"]
        sp = ss.sp
        again = enforce_structure(ss.supers, dataclasses.replace(sp, y=ss.y_bar))
        assert np.allclose(again.y_bar, ss.y_bar)
        assert np.allclose(again.x_bar, ss.x_bar)

    def test_far_private_is_pruned(self):
        # private server at 25; the peers sit 10 apart, so anything beyond
        # 20 is closed and its service moves into the neighbor ball
        inst = line_instance([0.0, 25.0, 10.0],
                             client_demands={"p0": 1, "p2": 1})
        sp = manual_sp(
            inst, ("p0", "p2"), [1.0, 1.0],
            balls=[[0], [2]],
            x=[[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
            y=[0.5, 0.5, 1.0])
        x2, _ = reassign_private_facilities(sp)
        supers = build_super_balls(x2, sp.balls)
        assert supers[0].tolist() == [0, 1]
        ss = enforce_structure(supers, sp)
        assert ss.supers[0].tolist() == [0]
        assert ss.y_bar.tolist() == [0.5, 0.0, 1.0]
        assert ss.x_bar[0] == pytest.approx([0.5, 0.0, 0.5])
        assert ss.diagnostics["pruned"] == pytest.approx(0.5)
        # closing the far facility made the row cheaper
        old = 0.5 * 25.0
        assert ss.cost_p <= old
        assert verify_structured(ss) == []

    def test_near_private_survives(self):
        inst = line_instance([0.0, 15.0, 10.0],
                             client_demands={"p0": 1, "p2": 1})
        sp = manual_sp(
            inst, ("p0", "p2"), [1.0, 1.0],
            balls=[[0], [2]],
            x=[[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
            y=[0.5, 0.5, 1.0])
        x2, _ = reassign_private_facilities(sp)
        supers = build_super_balls(x2, sp.balls)
        ss = enforce_structure(supers, sp)
        # 15 <= 2 * 10: the private opening stays, and the fill prefers it
        # over the farther neighbor ball
        assert ss.supers[0].tolist() == [0, 1]
        assert ss.y_bar.tolist() == [0.5, 0.5, 1.0]
        assert ss.x_bar[0] == pytest.approx([0.5, 0.5, 0.0])
        assert verify_structured(ss) == []

    def test_fill_prefers_near_ball_mass(self):
        # the carried assignment leans on the farther ball facility; the
        # rebuild drains the nearest one first
        inst = line_instance([0.0, 2.0, 50.0],
                             client_demands={"p0": 1, "p2": 1})
        sp = manual_sp(
            inst, ("p0", "p2"), [2.0, 1.0],
            balls=[[0, 1], [2]],
            x=[[0.2, 0.8, 0.0], [0.0, 0.0, 1.0]],
            y=[1.0, 0.8, 1.0])
        x2, _ = reassign_private_facilities(sp)
        ss = enforce_structure(build_super_balls(x2, sp.balls), sp)
        assert ss.x_bar[0] == pytest.approx([1.0, 0.0, 0.0])
        assert verify_structured(ss) == []

    def test_verify_flags_broken_solutions(self, rng):
        inst = random_fair_instance(rng, 10, 1.0)
        rc = feasible_ranges(rng, inst, 3)

        def structured():
            return solve_stages(inst, rc, "enforce_structure")["enforce_structure"]

        ss = structured()
        sp = ss.sp

        ss.x_bar[0, :] = 0.0        # break the unit-service property
        problems = verify_structured(ss)
        assert any(v.startswith("mass:") for v in problems)

        ss2 = structured()
        ss2.y_bar[sp.balls[0]] = 0.0
        problems = verify_structured(ss2)
        assert any(v.startswith("ball-mass:") for v in problems)

        if len(sp.location_ids) >= 2:
            ss3 = structured()
            merged = np.union1d(ss3.supers[0], ss3.supers[1])
            ss3.supers[0] = merged
            ss3.supers[1] = merged
            problems = verify_structured(ss3)
            assert any(v.startswith("disjoint:") for v in problems)
