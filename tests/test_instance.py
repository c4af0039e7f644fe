import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrange.instance import (
    MetricInstance,
    RangeConstraints,
    build_center_solution,
    chain_power_check,
    check_range_feasibility,
    clustering_cost,
    instance_from_coords,
    power_triangle_check,
    validate_instance,
)

from conftest import line_instance, matrix_instance

# a numpy invalid-value warning in instance code is a fault, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def coords_instance(pts):
    ids = [f"q{i}" for i in range(len(pts))]
    return instance_from_coords(ids, pts, ids, {i: 1 for i in ids},
                                {i: 1 for i in ids}, 1.0)


def one_shot_distances(pts):
    # the n x n x dim expression that documents were written with
    diff = pts[:, None, :] - pts[None, :, :]
    want = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(want, 0.0)
    return want


@pytest.mark.parametrize("dim", [2, 3, 9])
def test_coordinate_distances_match_full_difference_tensor(dim):
    # 150 points span three row blocks; the distances must keep the bits of
    # the one-shot n x n x dim expression that documents were written with
    rng = np.random.default_rng(dim)
    pts = rng.normal(size=(150, dim)) * rng.uniform(0.1, 1000.0, size=dim)
    inst = coords_instance(pts)
    assert inst.dist.tobytes() == one_shot_distances(pts).tobytes()


@pytest.mark.parametrize("dim", [0, 1, 2, 7, 8, 9])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 150])
def test_coordinate_distances_keep_bits_at_block_edges(n, dim):
    # dims 7 and 8 sit on either side of numpy's pairwise summation, and
    # n on either side of a row-block edge
    rng = np.random.default_rng([n, dim])
    pts = rng.normal(size=(n, dim)) * rng.uniform(0.1, 1000.0, size=dim)
    inst = coords_instance(pts)
    assert inst.dist.shape == (n, n)
    assert inst.dist.tobytes() == one_shot_distances(pts).tobytes()


def test_coordinate_build_peaks_near_one_matrix():
    n = 800
    pts = np.random.default_rng(5).uniform(0.0, 10.0, size=(n, 2))
    tracemalloc.start()
    try:
        coords_instance(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * n * n * 8


def test_validate_clean_instance():
    inst = line_instance([0.0, 1.0, 2.0], (0, 1, 2), {0: 1, 1: 1, 2: 1},
                         {0: 1, 1: 1, 2: 1}, p=1.0)
    rep = validate_instance(inst)
    assert rep.ok
    assert rep.violations == []


def test_validate_flags_broken_triangle():
    dist = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]  # 5 > 1 + 1
    inst = matrix_instance(["a", "b", "c"], dist, ["a"], {"a": 1}, {"b": 1}, 1.0)
    rep = validate_instance(inst)
    assert not rep.ok
    assert any(v.startswith("triangle") for v in rep.violations)


def test_validate_flags_missing_group_label():
    inst = line_instance([0.0, 1.0], (0, 1), {0: 1}, {1: 1}, 1.0)
    rep = validate_instance(inst)
    assert any("no group label" in v for v in rep.violations)


def test_validate_flags_symmetry_and_diagonal():
    dist = np.array([[0.0, 1.0], [2.0, 0.5]])
    inst = matrix_instance(["a", "b"], dist, ["a"], {"a": 1}, {"b": 1}, 1.0)
    rep = validate_instance(inst)
    kinds = {v.split(":")[0] for v in rep.violations}
    assert "symmetry" in kinds
    assert "diagonal" in kinds


def test_validate_names_a_nan_distance():
    # a nan pair read "symmetry: d(a,b) != transpose" (nan != nan); a
    # one-sided nan is the same single fault, and real asymmetry still shows
    def violations(ab, ba, bc):
        dist = [[0.0, ab, 1.0], [ba, 0.0, bc], [1.0, 1.0, 0.0]]
        inst = matrix_instance(["a", "b", "c"], dist, ["a"], {"a": 1}, {"b": 1}, 1.0)
        return validate_instance(inst).violations

    nan = "nan: d(a,b) is not a number"
    assert violations(math.nan, math.nan, 1.0) == [nan]
    assert violations(math.nan, 1.0, 1.0) == [nan]
    assert violations(math.nan, math.nan, 1.5) == [nan, "symmetry: d(b,c) != transpose"]
    assert violations(math.nan, math.nan, -1.0) == [
        nan, "symmetry: d(b,c) != transpose", "negativity: negative distance entry"]


def test_validate_names_the_asymmetric_pair_beside_a_symmetric_infinity():
    # inf - inf is nan, which argmax took for the worst pair, d(a,b); the
    # triangle slack warned on it, and an infinite d(a,b) against a finite
    # detour through c is still a violation
    dist = [[0.0, math.inf, 1.0], [math.inf, 0.0, 1.0], [1.0, 2.0, 0.0]]
    inst = matrix_instance(["a", "b", "c"], dist, ["a"], {"a": 1}, {"b": 1}, 1.0)
    assert validate_instance(inst).violations == [
        "symmetry: d(b,c) != transpose",
        "triangle: d(a,b) > d(a,c) + d(c,b)",
        "triangle: d(b,a) > d(b,c) + d(c,a)",
    ]


def test_validate_sampled_triples_deterministic():
    rng = np.random.default_rng(7)
    pts = rng.random((110, 2))
    ids = tuple(f"q{i}" for i in range(110))
    inst = instance_from_coords(ids, pts, ids, {i: 1 for i in ids},
                                {ids[0]: 1}, 2.0)
    r1 = validate_instance(inst, triangle_cap=1000, seed=3)
    r2 = validate_instance(inst, triangle_cap=1000, seed=3)
    assert r1.violations == r2.violations
    assert r1.ok


def test_clustering_cost_line():
    inst = line_instance([0.0, 1.0, 2.0], (0, 1, 2), {0: 1, 1: 1, 2: 1},
                         {0: 1, 1: 1, 2: 1}, p=1.0)
    cost_p, cost = clustering_cost(inst, ["p1"])
    assert cost_p == pytest.approx(2.0)
    assert cost == pytest.approx(2.0)
    # exhaustive oracle: no single center does better
    for c in inst.facility_ids:
        other, _ = clustering_cost(inst, [c])
        assert other >= cost_p - 1e-12


def test_clustering_cost_line_p2():
    inst = line_instance([0.0, 1.0, 2.0], (0, 1, 2), {0: 1, 1: 1, 2: 1},
                         {0: 1, 1: 1, 2: 1}, p=2.0)
    cost_p, cost = clustering_cost(inst, ["p1"])
    assert cost_p == pytest.approx(2.0)
    assert cost == pytest.approx(math.sqrt(2.0))


def test_clustering_cost_weighted_demands():
    inst = line_instance([0.0, 3.0], (0, 1), {0: 1, 1: 1}, {0: 5, 1: 2}, p=2.0)
    cost_p, _ = clustering_cost(inst, ["p1"])
    assert cost_p == pytest.approx(5 * 9.0)


def test_clustering_cost_rejects_bad_centers():
    inst = line_instance([0.0, 1.0], (0,), {0: 1}, {1: 1}, 1.0)
    with pytest.raises(ValueError):
        clustering_cost(inst, [])
    with pytest.raises(ValueError):
        clustering_cost(inst, ["p1"])  # p1 is not a facility


def _range_feasible_by_enumeration(sizes, rc):
    # independent oracle: try all ways to split k among the groups
    k, ell = rc.k, rc.num_groups
    for counts in itertools.product(*(range(0, min(s, k) + 1) for s in sizes)):
        if sum(counts) != k:
            continue
        if all(a <= t <= b for t, (a, b) in zip(counts, rc.ranges)):
            return True
    return False


def test_check_range_feasibility_examples():
    rc = RangeConstraints(3, ((1, 2), (0, 1)))
    assert check_range_feasibility([2, 3], rc) is True
    assert _range_feasible_by_enumeration([2, 3], rc)

    rc2 = RangeConstraints(2, ((2, 3), (0, 1)))
    assert check_range_feasibility([1, 1], rc2) is False
    assert not _range_feasible_by_enumeration([1, 1], rc2)


@given(st.integers(1, 6), st.lists(st.integers(0, 5), min_size=1, max_size=4),
       st.data())
@settings(max_examples=200, deadline=None)
def test_check_range_feasibility_matches_enumeration(k, sizes, data):
    ranges = []
    for _ in sizes:
        a = data.draw(st.integers(0, 4))
        b = data.draw(st.integers(a, 6))
        ranges.append((a, b))
    rc = RangeConstraints(k, tuple(ranges))
    assert check_range_feasibility(sizes, rc) == _range_feasible_by_enumeration(sizes, rc)


def test_range_constraints_reject_empty_window():
    with pytest.raises(ValueError):
        RangeConstraints(2, ((3, 1),))


def test_power_triangle_tight_point():
    # x=1, ys=[1], lam=1, p=2: both sides evaluate to 4
    assert power_triangle_check(1.0, [1.0], 1.0, 2.0)


@given(st.floats(0.0, 10.0), st.lists(st.floats(0.0, 10.0), max_size=6),
       st.floats(0.1, 4.0), st.floats(1.0, 5.0))
@settings(max_examples=400, deadline=None)
def test_power_triangle_random(x, ys, lam, p):
    assert power_triangle_check(x, ys, lam, p)


@given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6), st.floats(1.0, 4.0))
@settings(max_examples=300, deadline=None)
def test_chain_power_random(legs, p):
    # end of chain is at most the sum of the legs, so the bound must hold
    end = sum(legs)
    assert chain_power_check(end, legs, p)


def test_chain_power_two_legs_constant():
    # r=2 gives the 2^(p-1) constant; equality at equal legs
    assert chain_power_check(2.0, [1.0, 1.0], 3.0)
    assert not chain_power_check(2.0 + 1e-3, [1.0, 1.0], 3.0)


def test_build_center_solution_counts():
    inst = line_instance([0.0, 1.0, 2.0], (0, 1, 2), {0: 1, 1: 2, 2: 2},
                         {0: 1, 1: 1, 2: 1}, p=1.0)
    rc = RangeConstraints(2, ((0, 1), (0, 2)))
    sol = build_center_solution(inst, ["p0", "p2"], rc)
    assert sol.centers == ("p0", "p2")
    assert sol.group_counts == (1, 1)
    assert sol.cost_p == pytest.approx(1.0)


def test_instance_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_instance(["a", "a"], [[0, 1], [1, 0]], ["a"], {"a": 1}, {"a": 1}, 1.0)
    with pytest.raises(ValueError):
        matrix_instance(["a", "b"], [[0, 1], [1, 0]], ["z"], {"z": 1}, {"a": 1}, 1.0)
    with pytest.raises(ValueError):
        matrix_instance(["a", "b"], [[0, 1], [1, 0]], ["a"], {"a": 1}, {"a": 1}, 0.5)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_instance_rejects_non_finite_p(p):
    with pytest.raises(ValueError, match="p must be finite and at least 1"):
        matrix_instance(["a", "b"], [[0, 1], [1, 0]], ["a"], {"a": 1}, {"a": 1}, p)


def test_instance_rejects_ids_that_are_not_points():
    dist = [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match="facility 'z' is not a point"):
        matrix_instance(["a", "b"], dist, ["a", "z"], {"a": 1, "z": 1},
                        {"a": 1}, 1.0)
    with pytest.raises(ValueError, match="client 'z' is not a point"):
        matrix_instance(["a", "b"], dist, ["a"], {"a": 1}, {"a": 1, "z": 2}, 1.0)


def test_zero_distance_distinct_points_allowed():
    dist = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    inst = matrix_instance(["a", "b", "c"], dist, ["a", "b"], {"a": 1, "b": 1},
                           {"c": 2}, 2.0)
    assert validate_instance(inst).ok
    cost_p, _ = clustering_cost(inst, ["a"])
    assert cost_p == pytest.approx(2.0)
