import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrange.baseline import (_client_arrays, _first_best_swap, farthest_first,
                                local_search_clustering, reduce_locations)
from fairrange.instance import RangeConstraints, instance_from_coords

from conftest import enumerate_optimum, line_instance


# Reference copies of farthest_first and local_search_clustering as they
# were before the swap table: the seeding built the full candidate block,
# and the search evaluated each removal slot by a direct pass over every
# outside candidate.  The fast versions must match them bit for bit.

def reference_farthest_first(inst, k, candidates=None):
    cand = sorted(candidates) if candidates is not None else sorted(inst.point_ids)
    if not 1 <= k <= len(cand):
        raise ValueError(f"k={k} out of range for {len(cand)} candidates")
    ci = [inst.index(c) for c in cand]
    D = inst.dist[np.ix_(ci, ci)]
    chosen = [0]
    mind = D[0].copy()
    while len(chosen) < k:
        nxt = int(np.argmax(mind))          # first max = lowest id
        chosen.append(nxt)
        np.minimum(mind, D[nxt], out=mind)
    return tuple(sorted(cand[i] for i in chosen))


def reference_local_search(inst, k, *, candidates=None, max_iters=None, tol=1e-10):
    cand = sorted(candidates) if candidates is not None else sorted(inst.point_ids)
    if not 1 <= k <= len(cand):
        raise ValueError(f"k={k} out of range for {len(cand)} candidates")
    if max_iters is None:
        max_iters = 100 * k
    cl_idx, w = _client_arrays(inst)
    ci = [inst.index(c) for c in cand]
    D = inst.dist[np.ix_(cl_idx, ci)]
    Dp = D ** inst.p
    start = reference_farthest_first(inst, k, candidates=cand)
    pos_of = {c: t for t, c in enumerate(cand)}
    current = sorted(pos_of[c] for c in start)

    def cost_of(pos_list):
        return float(w @ Dp[:, pos_list].min(axis=1))

    cur_cost = cost_of(current)
    swaps = 0
    while swaps < max_iters and k < len(cand):
        sub = Dp[:, current]
        order = np.argsort(sub, axis=1)
        d1 = np.take_along_axis(sub, order[:, :1], axis=1)[:, 0]
        near = np.asarray(current)[order[:, 0]]
        if k > 1:
            d2 = np.take_along_axis(sub, order[:, 1:2], axis=1)[:, 0]
        else:
            d2 = np.full_like(d1, np.inf)
        outside = [t for t in range(len(cand)) if t not in set(current)]
        best_cost, best_swap = cur_cost, None
        for out in current:
            base = np.where(near == out, d2, d1)
            vals = w @ np.minimum(base[:, None], Dp[:, outside])
            j = int(np.argmin(vals))
            if vals[j] < best_cost * (1.0 - tol) - 1e-15:
                best_cost, best_swap = float(vals[j]), (out, outside[j])
        if best_swap is None:
            break
        out, inn = best_swap
        current = sorted(p for p in current if p != out) + [inn]
        current.sort()
        cur_cost = cost_of(current)
        swaps += 1
    centers = tuple(sorted(cand[t] for t in current))
    return centers, cur_cost, swaps


def assert_same_search(inst, k, **kw):
    got = local_search_clustering(inst, k, **kw)
    want = reference_local_search(inst, k, **kw)
    assert got[0] == want[0]
    assert got[2] == want[2]
    assert struct.pack("<d", got[1]) == struct.pack("<d", want[1])


def planar_instance(rng, n, p=1.0, groups=None):
    ids = [f"p{i:02d}" for i in range(n)]
    coords = rng.uniform(0.0, 10.0, size=(n, 2))
    if groups is None:
        groups = {i: 1 for i in ids}
    return instance_from_coords(
        ids, coords, facility_ids=ids, group_label=groups,
        client_demands={i: 1 for i in ids}, p=p)


def kcenter_radius(inst, centers):
    ci = [inst.index(c) for c in inst.client_ids]
    cs = [inst.index(c) for c in centers]
    return float(inst.dist[np.ix_(ci, cs)].min(axis=1).max())


class TestFarthestFirst:
    def test_line_example(self):
        inst = line_instance([0.0, 10.0, 11.0])
        assert farthest_first(inst, 2) == ("p0", "p2")

    def test_k_equals_n(self):
        inst = line_instance([0.0, 1.0, 2.0])
        assert farthest_first(inst, 3) == ("p0", "p1", "p2")

    def test_bad_k(self):
        inst = line_instance([0.0, 1.0])
        with pytest.raises(ValueError):
            farthest_first(inst, 3)

    def test_candidate_restriction(self):
        inst = line_instance([0.0, 5.0, 10.0])
        out = farthest_first(inst, 2, candidates=["p0", "p1"])
        assert out == ("p0", "p1")

    def test_two_approximation_for_kcenter(self, rng):
        for _ in range(30):
            n = int(rng.integers(6, 11))
            k = int(rng.integers(2, 4))
            inst = planar_instance(rng, n)
            got = kcenter_radius(inst, farthest_first(inst, k))
            best = min(kcenter_radius(inst, c)
                       for c in itertools.combinations(inst.point_ids, k))
            assert got <= 2.0 * best + 1e-9

    def test_deterministic_under_symmetry(self):
        # unit square: several optimal seeds exist, ties must resolve by id
        inst = instance_from_coords(
            ["a", "b", "c", "d"],
            [(0, 0), (0, 1), (1, 0), (1, 1)],
            facility_ids=["a", "b", "c", "d"],
            group_label={i: 1 for i in "abcd"},
            client_demands={i: 1 for i in "abcd"}, p=1.0)
        runs = {farthest_first(inst, 2) for _ in range(5)}
        assert runs == {("a", "d")}

    def test_matches_reference_on_fixtures(self, rng):
        fixtures = [(line_instance([0.0, 10.0, 11.0]), 2, None),
                    (line_instance([0.0, 1.0, 2.0]), 3, None),
                    (line_instance([0.0, 5.0, 10.0]), 2, ["p0", "p1"]),
                    (line_instance([0.0, 1.0, 10.0, 11.0]), 2, ["p0", "p2"])]
        fixtures += [(planar_instance(rng, int(rng.integers(6, 40))), k, None)
                     for k in (1, 2, 3, 5)]
        for inst, k, cand in fixtures:
            assert farthest_first(inst, k, cand) == reference_farthest_first(inst, k, cand)


class TestLocalSearch:
    def test_two_cluster_line(self):
        inst = line_instance([0.0, 1.0, 10.0, 11.0])
        centers, cost, _ = local_search_clustering(inst, 2)
        assert cost == pytest.approx(2.0)
        assert len(set(centers) & {"p0", "p1"}) == 1
        assert len(set(centers) & {"p2", "p3"}) == 1

    def test_reaches_exhaustive_on_line(self):
        inst = line_instance([0.0, 1.0, 10.0, 11.0])
        _, cost, _ = local_search_clustering(inst, 2)
        rc = RangeConstraints(2, ((0, 2),))
        best, _ = enumerate_optimum(inst, rc)
        assert cost == pytest.approx(best)

    def test_zero_swaps_budget(self):
        inst = line_instance([0.0, 1.0, 10.0, 11.0])
        centers, _, swaps = local_search_clustering(inst, 2, max_iters=0)
        assert swaps == 0
        assert centers == farthest_first(inst, 2)

    def test_candidates_respected(self):
        inst = line_instance([0.0, 1.0, 10.0, 11.0])
        centers, _, _ = local_search_clustering(inst, 2, candidates=["p0", "p2"])
        assert centers == ("p0", "p2")

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_constant_factor_of_optimum(self, rng, p):
        # single-swap local search is a constant-factor heuristic; enforce
        # the conservative 5^p bound on the power-p cost over random inputs
        for _ in range(60):
            n = int(rng.integers(5, 9))
            k = int(rng.integers(2, 4))
            inst = planar_instance(rng, n, p=p)
            _, cost, _ = local_search_clustering(inst, k)
            rc = RangeConstraints(k, ((0, k),))
            best, _ = enumerate_optimum(inst, rc)
            assert cost <= (5.0 ** p) * best + 1e-9

    def test_weighted_clients_steer_centers(self):
        inst = line_instance([0.0, 1.0, 10.0], client_demands={"p0": 1, "p1": 50, "p2": 1})
        centers, cost, _ = local_search_clustering(inst, 1)
        assert centers == ("p1",)
        assert cost == pytest.approx(1.0 + 9.0)


@st.composite
def search_inputs(draw):
    """Small instance, k, candidate subset and swap budget for the search."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        # integer grid with repeated points: many exactly tied swaps
        coords = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               min_size=n, max_size=n))
    else:
        pool = draw(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
                             min_size=1, max_size=n))
        coords = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    scale = draw(st.sampled_from([1.0, 1e-3, 1e5]))
    coords = [(x * scale, y * scale) for x, y in coords]
    ids = [f"q{i:02d}" for i in range(n)]
    clients = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    cand = None
    if draw(st.booleans()):
        cand = draw(st.lists(st.sampled_from(ids), min_size=2, unique=True))
    size = n if cand is None else len(cand)
    k = draw(st.sampled_from(sorted({1, size - 1, draw(st.integers(1, size))})))
    inst = instance_from_coords(
        ids, coords, facility_ids=ids, group_label={i: 1 for i in ids},
        client_demands={c: draw(st.integers(1, 5)) for c in clients},
        p=draw(st.sampled_from([1.0, 2.0, 3.0])))
    return inst, k, cand, draw(st.sampled_from([0, 1, None]))


class TestSwapTable:
    """The swap table must reproduce the direct scan exactly."""

    @given(search_inputs())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_matches_direct_scan(self, args):
        inst, k, cand, max_iters = args
        assert_same_search(inst, k, candidates=cand, max_iters=max_iters)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_several_column_blocks(self, rng, p):
        # 300 candidates span three column blocks; a third of them are clients
        ids = [f"p{i:03d}" for i in range(300)]
        inst = instance_from_coords(
            ids, rng.uniform(0.0, 10.0, size=(300, 2)), facility_ids=ids,
            group_label={i: 1 for i in ids},
            client_demands={i: int(rng.integers(1, 4)) for i in ids[::3]}, p=p)
        assert_same_search(inst, 6)

    def test_grid_ties_across_blocks(self):
        # 20 x 15 integer grid: equal swaps everywhere, in every block
        ids = [f"g{i:03d}" for i in range(300)]
        inst = instance_from_coords(
            ids, [(i % 20, i // 20) for i in range(300)], facility_ids=ids,
            group_label={i: 1 for i in ids},
            client_demands={i: 1 + j % 3 for j, i in enumerate(ids)}, p=2.0)
        assert_same_search(inst, 7)
        assert_same_search(inst, 7, candidates=ids[::2])

    @given(st.data())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_replay_matches_direct_scan(self, data):
        # row minima at, just under and just over the acceptance thresholds,
        # seen through table values that are off by up to half the slack
        tol, cost = 1e-10, 10.0
        slack = data.draw(st.sampled_from([0.0, 1e-9, 0.25]))
        vals, cols = [], []
        for _ in range(data.draw(st.integers(1, 6))):
            v = data.draw(st.sampled_from([10.0, 9.0, 8.75]))
            if data.draw(st.booleans()):
                v = v * (1.0 - tol) - 1e-15
            vals.append(v + data.draw(st.sampled_from([0.0, -1e-9, 1e-9, -0.2, 0.2])))
            cols.append(data.draw(st.integers(0, 3)))
        approx = np.array([v + data.draw(st.floats(-0.5, 0.5)) * slack for v in vals])

        best, want = cost, None
        for r, v in enumerate(vals):
            if v < best * (1.0 - tol) - 1e-15:
                best, want = v, (r, cols[r])
        assert _first_best_swap(approx, slack, cost, tol,
                                lambda r: (vals[r], cols[r])) == want


class TestReduceLocations:
    def test_aggregation(self):
        inst = line_instance([0.0, 1.0, 10.0, 11.0])
        red = reduce_locations(inst, ("p0", "p3"))
        assert red.location_ids == ("p0", "p3")
        assert red.weights.tolist() == [2.0, 2.0]
        assert red.assign == {"p0": "p0", "p1": "p0", "p2": "p3", "p3": "p3"}
        assert red.baseline_cost_p == pytest.approx(2.0)

    def test_tie_goes_to_lower_id(self):
        inst = line_instance([0.0, 1.0, 2.0])
        red = reduce_locations(inst, ("p0", "p2"))
        assert red.assign["p1"] == "p0"

    def test_zero_weight_centers_dropped(self):
        inst = line_instance([0.0, 1.0, 10.0, 11.0],
                             client_demands={"p1": 3})
        red = reduce_locations(inst, ("p1", "p3"))
        assert red.location_ids == ("p1",)
        assert red.weights.tolist() == [3.0]
        assert red.baseline_cost_p == 0.0

    def test_cost_of_matches_direct_formula(self):
        inst = line_instance([0.0, 1.0, 10.0, 11.0], p=2.0)
        red = reduce_locations(inst, ("p0", "p3"))
        # locations p0 (w 2) and p3 (w 2) served from p1: 2*1 + 2*100
        assert red.cost_of(["p1"]) == pytest.approx(202.0)

    def test_empty_centers_rejected(self):
        inst = line_instance([0.0, 1.0])
        with pytest.raises(ValueError):
            reduce_locations(inst, ())

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_consolidation_chain_bound(self, rng, p):
        # snapping to baseline centers costs at most 2^(p-1) times the sum
        # of the baseline cost and the evaluated solution's original cost
        for _ in range(40):
            n = int(rng.integers(5, 10))
            k = int(rng.integers(1, 4))
            inst = planar_instance(rng, n, p=p)
            centers, base_cost, _ = local_search_clustering(inst, k)
            red = reduce_locations(inst, centers)
            assert red.baseline_cost_p == pytest.approx(base_cost, rel=1e-9)
            ns = int(rng.integers(1, 4))
            S = list(rng.choice(inst.facility_ids, size=ns, replace=False))
            lhs = red.cost_of(S)
            from fairrange.instance import clustering_cost
            rhs = 2.0 ** (p - 1.0) * (red.baseline_cost_p + clustering_cost(inst, S)[0])
            assert lhs <= rhs * (1 + 1e-9) + 1e-9
