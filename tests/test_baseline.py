import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairrange.baseline as baseline
from fairrange.baseline import (_block_hits, _client_arrays, farthest_first,
                                local_search_clustering, reduce_locations)
from fairrange.instance import RangeConstraints, instance_from_coords

from conftest import enumerate_optimum, line_instance


# Reference copy of farthest_first as it was before the seeding stopped
# building the full candidate block; the fast version must match it bit for
# bit.  reference_local_search below is the block-eager rule written without
# the swap table.

def reference_farthest_first(inst, k, candidates=None):
    cand = sorted(candidates) if candidates is not None else sorted(inst.point_ids)
    if not 1 <= k <= len(cand):
        raise ValueError(f"k={k} out of range for {len(cand)} candidates")
    ci = [inst.index(c) for c in cand]
    D = inst.dist[np.ix_(ci, ci)]
    chosen = [0]
    mind = D[0].copy()
    mind[0] = -np.inf
    while len(chosen) < k:
        nxt = int(np.argmax(mind))          # first max = lowest id
        chosen.append(nxt)
        np.minimum(mind, D[nxt], out=mind)
        mind[nxt] = -np.inf
    return tuple(sorted(cand[i] for i in chosen))


def direct_cost(inst, cand):
    """cost_of(positions): the power-p cost of a set of candidate positions,
    as one pass over the client x candidate matrix."""
    cl_idx, w = _client_arrays(inst)
    Dp = inst.dist[np.ix_(cl_idx, [inst.index(c) for c in cand])] ** inst.p
    return lambda pos_list: float(w @ Dp[:, pos_list].min(axis=1))


def reference_local_search(inst, k, *, candidates=None, max_iters=None, tol=1e-10):
    """The block-eager rule, costing every candidate set of a block directly."""
    cand = sorted(candidates) if candidates is not None else sorted(inst.point_ids)
    if not 1 <= k <= len(cand):
        raise ValueError(f"k={k} out of range for {len(cand)} candidates")
    if max_iters is None:
        max_iters = 100 * k
    cost_of = direct_cost(inst, cand)
    start = reference_farthest_first(inst, k, candidates=cand)
    current = sorted(cand.index(c) for c in start)
    cur_cost = cost_of(current)
    size = baseline._TABLE_BLOCK
    blocks = [range(lo, min(lo + size, len(cand))) for lo in range(0, len(cand), size)]
    swaps = idle = b = 0
    while swaps < max_iters and k < len(cand) and idle < len(blocks):
        # slots in order, then the block's candidates in order
        trials = [sorted(set(current) - {out} | {inn})
                  for out in current for inn in blocks[b] if inn not in current]
        vals = [cost_of(t) for t in trials]
        j = int(np.argmin(vals)) if vals else 0
        if vals and vals[j] < cur_cost * (1.0 - tol) - 1e-15:
            current, cur_cost = trials[j], vals[j]
            swaps += 1
            idle = 0
        else:
            idle += 1
        b = (b + 1) % len(blocks)
    centers = tuple(sorted(cand[t] for t in current))
    return centers, cur_cost, swaps


def assert_local_optimum(inst, k, centers, cost, candidates=None, tol=1e-10):
    """No single swap of the k * (|cand| - k) costs below the acceptance bound."""
    cand = sorted(candidates) if candidates is not None else sorted(inst.point_ids)
    cost_of = direct_cost(inst, cand)
    current = {cand.index(c) for c in centers}
    assert len(current) == k
    for out in current:
        for inn in set(range(len(cand))) - current:
            assert cost_of(sorted(current - {out} | {inn})) >= cost * (1.0 - tol) - 1e-15


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


def grid_instance():
    ids = [f"g{i:03d}" for i in range(300)]
    return instance_from_coords(
        ids, [(i % 20, i // 20) for i in range(300)], facility_ids=ids,
        group_label={i: 1 for i in ids},
        client_demands={i: 1 + j % 3 for j, i in enumerate(ids)}, p=2.0)


def many_clients_instance(rng, p):
    # 800 clients, every 20th point a facility, demands 1-3; the search
    # runs over all 800 points, seven column blocks
    ids = [f"m{i:03d}" for i in range(800)]
    return instance_from_coords(
        ids, rng.uniform(0.0, 100.0, size=(800, 2)), facility_ids=ids[::20],
        group_label={i: 1 for i in ids[::20]},
        client_demands={i: int(rng.integers(1, 4)) for i in ids}, p=p)


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

    def test_coincident_points_give_distinct_centers(self):
        # two positions for three centers: the third is the first unchosen id
        inst = line_instance([5.0, 0.0, 5.0, 0.0, 5.0])
        assert farthest_first(inst, 3) == ("p0", "p1", "p2")
        centers, cost, _ = local_search_clustering(inst, 3)
        assert len(set(centers)) == 3 and cost == 0.0

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
def search_inputs(draw, max_n=12):
    """Small instance, k, candidate subset and swap budget for the search."""
    n = draw(st.integers(2, max_n))
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


def block_of(data, slack):
    """A drawn block: direct costs, a table within slack of them (exactly,
    as integers keep every sum exact) and the current centers' columns."""
    k, width = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
    direct = np.array([[data.draw(st.sampled_from([*range(7), np.inf]))
                        for _ in range(width)] for _ in range(k)], dtype=float)
    bound = 5 if not np.isfinite(slack) else int(slack)
    noise = [[data.draw(st.sampled_from([-bound, bound]) | st.integers(-bound, bound))
              for _ in range(width)] for _ in range(k)]
    inside = np.array([data.draw(st.booleans()) for _ in range(width)])
    return direct, direct + noise, inside


def first_direct_argmin(direct, inside):
    """Row-major index of the block's first cheapest swap, None if none."""
    order = np.flatnonzero(~np.broadcast_to(inside, direct.shape))
    return int(order[np.argmin(direct.flat[order])]) if len(order) else None


class TestSwapTable:
    """The search must reproduce the direct scan exactly; the block table
    only filters, and the hits hold the block's direct choice."""

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
        centers, cost, _ = local_search_clustering(inst, 6)
        assert_local_optimum(inst, 6, centers, cost)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_many_clients_shape(self, rng, p):
        assert_same_search(many_clients_instance(rng, p), 8)

    def test_grid_ties_across_blocks(self):
        # 20 x 15 integer grid: equal swaps everywhere, in every block
        inst = grid_instance()
        assert_same_search(inst, 7)
        assert_same_search(inst, 7, candidates=inst.point_ids[::2])

    @given(search_inputs(max_n=40))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_ends_at_a_single_swap_local_optimum(self, args):
        inst, k, cand, _ = args
        centers, cost, swaps = local_search_clustering(inst, k, candidates=cand)
        assert swaps < 100 * k
        assert_local_optimum(inst, k, centers, cost, candidates=cand)

    @given(st.data())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_replay_matches_direct_scan(self, data):
        # costing only the hits takes the swap that costing every swap of
        # the block takes, or none when that one does not cost below
        slack = data.draw(st.sampled_from([0.0, 1.0, 2.0, np.inf, np.nan]))
        direct, table, inside = block_of(data, slack)
        below = data.draw(st.sampled_from([0.5, 3.0, 6.0, 7.0]))
        first = first_direct_argmin(direct, inside)
        want = first if first is not None and direct.flat[first] < below else None
        hits = _block_hits(table, inside, slack, below)
        got = None
        if len(hits) and direct.flat[hits[np.argmin(direct.flat[hits])]] < below:
            got = int(hits[np.argmin(direct.flat[hits])])
        assert got == want

    @given(st.data())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_column_rule_names_only_the_first_direct_argmin(self, data):
        # a single hit is the first direct argmin, slots then candidates;
        # exact ties, inf entries, NaN entries and a NaN or inf slack are drawn
        slack = data.draw(st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf, np.nan]))
        direct, table, inside = block_of(data, slack)
        if data.draw(st.booleans()):
            table.flat[data.draw(st.integers(0, table.size - 1))] = np.nan
        hits = _block_hits(table, inside, slack, np.inf)
        assert not inside[hits % table.shape[1]].any()
        if len(hits) == 1:
            assert hits[0] == first_direct_argmin(direct, inside)

    def test_column_rule_cases(self):
        no = np.zeros(3, dtype=bool)
        one = np.array([[5.0, 9.0, 7.5], [8.0, 9.0, 6.0]])
        assert _block_hits(one.copy(), no, 0.25, 10.0).tolist() == [0]
        assert _block_hits(one.copy(), no, 0.25, 4.0).tolist() == []      # none below
        assert _block_hits(one.copy(), no, 1.0, 10.0).tolist() == [0, 5]  # within 2 * slack
        assert _block_hits(np.array([[5.0, 5.0]]), no[:2], 0.0, 10.0).tolist() == [0, 1]
        assert _block_hits(np.array([[5.0, np.nan, 9.0]]), no, 1.0, 10.0).tolist() == [0, 1, 2]
        assert _block_hits(np.array([[5.0, 9.0]]), no[:2], np.nan, 10.0).tolist() == [0, 1]
        assert _block_hits(np.array([[5.0, 9.0]]), no[:2], np.inf, 10.0).tolist() == [0, 1]
        assert _block_hits(np.array([[np.inf, 5.0, 9.0]]), no, 1.0, 10.0).tolist() == [1]

    def test_table_settles_the_column_without_exact(self):
        # the minimum sits in a center's column: it is skipped, and the
        # table alone names slot 1's last candidate
        rows = np.array([[1.0, 11.0, 13.0], [0.5, 9.0, 6.0]])
        inside = np.array([True, False, False])
        assert _block_hits(rows, inside, 0.25, 10.0).tolist() == [5]
        assert np.isinf(rows[:, 0]).all()

    def test_exact_runs_where_the_table_cannot_name_the_column(self):
        # 6.2 lies within 2 * slack of 6.0 in another slot: both go to
        # their direct costs, and with them a candidate
        rows = np.array([[12.0, 11.0, 6.2], [6.6, 9.0, 6.0]])
        assert _block_hits(rows, np.zeros(3, dtype=bool), 0.25, 10.0).tolist() == [2, 5]


def count_direct_evaluations(monkeypatch):
    """Route the search through a _block_hits that records every block
    whose table leaves more than one swap to direct costing."""
    calls = []
    real = baseline._block_hits

    def counting(table, inside, slack, below):
        hits = real(table, inside, slack, below)
        if len(hits) > 1:
            calls.append(len(hits))
        return hits
    monkeypatch.setattr(baseline, "_block_hits", counting)
    return calls


class TestDirectEvaluations:
    def test_none_without_ties(self, rng, monkeypatch):
        calls = count_direct_evaluations(monkeypatch)
        inst = planar_instance(rng, 300, p=2.0)
        _, _, swaps = local_search_clustering(inst, 6)
        assert swaps > 0
        assert calls == []

    @pytest.mark.parametrize("every", [1, 2])
    def test_fallback_runs_on_grid_ties(self, monkeypatch, every):
        # with two centers the grid's best swap has a tied twin
        calls = count_direct_evaluations(monkeypatch)
        inst = grid_instance()
        assert_same_search(inst, 2, candidates=inst.point_ids[::every])
        assert len(calls) >= 1

    def test_block_builds_below_whole_table_per_swap(self, rng, monkeypatch):
        # a deterministic work count in place of a timing: rebuilding the
        # whole table for every swap builds (swaps + 1) * nb blocks
        builds = []
        real = baseline._block_table

        def counting(*args):
            builds.append(args[-1])
            return real(*args)
        monkeypatch.setattr(baseline, "_block_table", counting)
        inst = many_clients_instance(rng, 2.0)
        _, _, swaps = local_search_clustering(inst, 8)
        nb = -(-len(inst.point_ids) // baseline._TABLE_BLOCK)
        assert nb == 7
        assert swaps > 0
        assert len(builds) < (swaps + 1) * nb


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
