import itertools
import math

import numpy as np
import pytest

from fairrange.baseline import local_search_clustering, reduce_locations
from fairrange.errors import StageError
from fairrange.instance import RangeConstraints, clustering_cost, instance_from_coords
from fairrange.lp import build_fair_range_lp, solve_lp, split_fair_solution
from fairrange.pipeline import random_instance, random_ranges
from fairrange.sparsify import (
    ball_multiplier,
    canonical_assignment,
    compute_balls,
    consolidate,
    fractional_radius,
    separation_multiplier,
    sparsify,
)

from conftest import (feasible_ranges, line_instance, matrix_instance, random_fair_instance,
                      solve_stages)
from oracles import half_contribution, lift_bound, separation_margin


class TestRadii:
    def test_half_half_linear(self):
        dp = np.array([[1.0, 3.0]])
        x = np.array([[0.5, 0.5]])
        assert fractional_radius(dp, x, 1.0)[0] == pytest.approx(2.0)

    def test_half_half_quadratic(self):
        dp = np.array([[1.0, 9.0]])     # squared distances 1 and 3
        x = np.array([[0.5, 0.5]])
        assert fractional_radius(dp, x, 2.0)[0] == pytest.approx(math.sqrt(5.0))

    def test_short_row_rejected(self):
        with pytest.raises(StageError, match="mass"):
            fractional_radius(np.array([[1.0]]), np.array([[0.4]]), 1.0)

    def test_canonical_assignment(self):
        x = canonical_assignment(np.array([[1.2, 0.6], [-1e-12, 1.0]]))
        assert x[0].sum() == pytest.approx(1.0)
        assert x[1, 0] == 0.0
        with pytest.raises(StageError, match="mass"):
            canonical_assignment(np.array([[0.3, 0.3]]))

    def test_multipliers(self):
        assert ball_multiplier(1.0) == pytest.approx(2.0)
        assert separation_multiplier(1.0) == pytest.approx(4.0)
        assert ball_multiplier(2.0) == pytest.approx(math.sqrt(2.0))
        assert separation_multiplier(2.0) == pytest.approx(2.0 * math.sqrt(2.0))


class TestBalls:
    def test_linear_ball(self):
        D = np.array([[1.0, 2.0, 3.9, 4.1]])
        balls = compute_balls(D, np.array([2.0]), 1.0)
        assert balls[0].tolist() == [0, 1, 2]

    def test_quadratic_ball(self):
        D = np.array([[1.0, 2.0, 2.9]])
        balls = compute_balls(D, np.array([2.0]), 2.0)
        assert balls[0].tolist() == [0, 1]

    def test_zero_radius(self):
        D = np.array([[0.0, 1.0]])
        balls = compute_balls(D, np.array([0.0]), 1.0)
        assert balls[0].tolist() == [0]


class TestConsolidate:
    def test_absorb_example(self):
        ids = ["p0", "p1", "p2"]
        Dl = np.array([[0.0, 1.0, 100.0], [1.0, 0.0, 99.0], [100.0, 99.0, 0.0]])
        radii = np.array([0.3, 0.4, 5.0])
        w = np.array([1.0, 2.0, 3.0])
        kept, w2, fmap = consolidate(ids, Dl, radii, w, 1.0)
        assert [ids[t] for t in kept] == ["p0", "p2"]
        assert w2.tolist() == [3.0, 3.0]
        assert fmap == {"p0": "p0", "p1": "p0", "p2": "p2"}

    def test_equal_radius_tie_keeps_lower_id(self):
        ids = ["a", "b"]
        Dl = np.array([[0.0, 1.0], [1.0, 0.0]])
        kept, w2, fmap = consolidate(ids, Dl, np.array([1.0, 1.0]),
                                     np.array([1.0, 1.0]), 1.0)
        assert [ids[t] for t in kept] == ["a"]
        assert fmap == {"a": "a", "b": "a"}

    def test_absorb_threshold_uses_own_radius(self):
        # d = 4, later radius 1.0 -> threshold exactly 4, absorbed (closed rule)
        ids = ["a", "b"]
        Dl = np.array([[0.0, 4.0], [4.0, 0.0]])
        kept, _, fmap = consolidate(ids, Dl, np.array([0.1, 1.0]),
                                    np.array([1.0, 1.0]), 1.0)
        assert fmap["b"] == "a"
        # nudge the distance out and both survive
        Dl2 = np.array([[0.0, 4.001], [4.001, 0.0]])
        kept2, _, _ = consolidate(ids, Dl2, np.array([0.1, 1.0]),
                                  np.array([1.0, 1.0]), 1.0)
        assert len(kept2) == 2


class TestSparsifyIntegration:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_invariants_over_random_instances(self, rng, p):
        for _ in range(12):
            n = int(rng.integers(8, 16))
            k = int(rng.integers(2, 5))
            inst = random_fair_instance(rng, n, p)
            rc = feasible_ranges(rng, inst, k)
            stages = solve_stages(inst, rc, "sparsify")
            sp, opt = stages["sparsify"], stages["solve_lp"].objective
            # survivors keep at least half their service mass in the ball
            assert half_contribution(sp) >= 0.5 - 1e-7
            # pairwise separation from the greedy merge
            assert separation_margin(sp) >= -1e-9
            # balls of distinct survivors never share a facility
            for i, j in itertools.combinations(range(len(sp.location_ids)), 2):
                assert not set(sp.balls[i].tolist()) & set(sp.balls[j].tolist())
            # merging demand onto smaller radii cannot raise the radius cost
            agg = float(sp.weights @ sp.radii ** p)
            assert agg <= opt * (1 + 1e-7) + 1e-9
            # carried solution is intact
            assert sp.assignment_cost(sp.x) <= opt * (1 + 1e-7) + 1e-9
            assert np.all(sp.x <= sp.y[None, :] + 1e-6)

    def test_no_survivor_premises_hold_vacuously(self):
        # with no client nothing survives; half_contribution raised
        # "min() arg is an empty sequence"
        inst = random_instance(0, 8, 2, 2.0)
        empty = matrix_instance(inst.point_ids, inst.dist, inst.facility_ids,
                                inst.group_label, {}, 2.0)
        sp = solve_stages(empty, random_ranges(0, inst, 3, 2), "sparsify")["sparsify"]
        assert sp.location_ids == ()
        assert half_contribution(sp) == np.inf
        assert separation_margin(sp) == np.inf

    def test_forward_map_covers_all_locations(self, rng):
        inst = random_fair_instance(rng, 10, 1.0)
        rc = feasible_ranges(rng, inst, 3)
        stages = solve_stages(inst, rc, "sparsify")
        sp, red = stages["sparsify"], stages["reduce_locations"]
        assert set(sp.forward_map) == set(red.location_ids)
        assert set(sp.forward_map.values()) == set(sp.location_ids)

    def test_weights_conserved(self, rng):
        inst = random_fair_instance(rng, 12, 2.0)
        rc = feasible_ranges(rng, inst, 4)
        stages = solve_stages(inst, rc, "sparsify")
        sp, red = stages["sparsify"], stages["reduce_locations"]
        assert sp.weights.sum() == pytest.approx(red.weights.sum())


class TestLiftBound:
    def test_bound_holds_on_line(self):
        inst = line_instance([0.0, 1.0, 10.0, 11.0], p=2.0)
        centers, _, _ = local_search_clustering(inst, 2)
        red = reduce_locations(inst, centers)
        actual, bound = lift_bound(red, ["p0", "p2"])
        assert actual == pytest.approx(clustering_cost(inst, ["p0", "p2"])[0])
        assert actual <= bound + 1e-9

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_bound_holds_random(self, rng, p):
        for _ in range(20):
            inst = random_fair_instance(rng, 9, p)
            centers, _, _ = local_search_clustering(inst, 2)
            red = reduce_locations(inst, centers)
            S = sorted(rng.choice(inst.facility_ids, size=2, replace=False))
            actual, bound = lift_bound(red, S)
            assert actual <= bound * (1 + 1e-9) + 1e-9
