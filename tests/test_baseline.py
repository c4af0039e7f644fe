import itertools
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairrange.baseline as baseline
from fairrange.baseline import (_block_hits, farthest_first, local_search_clustering,
                                reduce_locations)
from fairrange.instance import MetricInstance, RangeConstraints, instance_from_coords
from fairrange.pipeline import _require_costs_in_range

from conftest import enumerate_optimum, line_instance, matrix_instance, submatrix
from oracles import baseline_cost_p


# Reference copy of farthest_first as it was before the seeding stopped
# building the full candidate block; the fast version must match it bit for
# bit.  reference_local_search below is the block-eager rule written without
# the swap table.

def reference_farthest_first(inst, k):
    cand = sorted(inst.point_ids)
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


def seed_ids(inst, k):
    """farthest_first's seeds as point ids, in id order."""
    return tuple(inst.point_ids[inst.point_pos[t]] for t in farthest_first(inst, k))


def restricted(inst, ids):
    """inst on the points ids only, as a matrix instance."""
    keep = set(ids)
    return matrix_instance(ids, submatrix(inst, ids, ids),
                           [u for u in inst.facility_ids if u in keep],
                           {u: g for u, g in inst.group_label.items() if u in keep},
                           {c: w for c, w in inst.client_demands.items() if c in keep}, inst.p)


def direct_cost(inst):
    """cost_of(positions): the power-p cost of a set of candidate positions,
    as one pass over the client x candidate matrix."""
    cand = sorted(inst.point_ids)
    w = inst.client_weights()
    Dp = inst.dist[np.ix_(inst.client_pos, [inst.index(c) for c in cand])] ** inst.p
    return lambda pos_list: float(w @ Dp[:, pos_list].min(axis=1))


def reference_local_search(inst, k, *, max_iters=None, tol=1e-10):
    """The block-eager rule, costing every candidate set of a block directly."""
    cand = sorted(inst.point_ids)
    if not 1 <= k <= len(cand):
        raise ValueError(f"k={k} out of range for {len(cand)} candidates")
    if max_iters is None:
        max_iters = 100 * k
    cost_of = direct_cost(inst)
    start = reference_farthest_first(inst, k)
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


def reference_reduce_locations(inst, centers):
    """reduce_locations as a loop over the clients."""
    cs = sorted(centers)
    if not cs:
        raise ValueError("empty center set")
    w = inst.client_weights()
    D = inst.dist[np.ix_(inst.client_pos, [inst.index(c) for c in cs])]
    nearest = np.argmin(D, axis=1)          # first min = lowest id
    agg = {c: 0.0 for c in cs}
    assign = {}
    base_cost = 0.0
    for t, v in enumerate(inst.client_ids):
        c = cs[nearest[t]]
        agg[c] += w[t]
        assign[v] = c
        base_cost += w[t] * D[t, nearest[t]] ** inst.p
    kept = [c for c in cs if agg[c] > 0.0]
    weights = np.array([agg[c] for c in kept], dtype=float)
    return tuple(kept), weights, assign, float(base_cost)


def assert_local_optimum(inst, k, centers, cost, tol=1e-10):
    """No single swap of the k * (|cand| - k) costs below the acceptance bound."""
    cand = sorted(inst.point_ids)
    cost_of = direct_cost(inst)
    current = {cand.index(c) for c in centers}
    assert len(current) == k
    for out in current:
        for inn in set(range(len(cand))) - current:
            assert cost_of(sorted(current - {out} | {inn})) >= cost * (1.0 - tol) - 1e-15


def assert_same_search(inst, k, swaps_per_center=None):
    """The search and its reference agree bit for bit; swaps_per_center,
    when given, replaces _SWAPS_PER_CENTER."""
    if swaps_per_center is None:
        got = local_search_clustering(inst, k)
        want = reference_local_search(inst, k)
    else:
        with mock.patch.object(baseline, "_SWAPS_PER_CENTER", swaps_per_center):
            got = local_search_clustering(inst, k)
        want = reference_local_search(inst, k, max_iters=swaps_per_center * k)
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


def grid_instance(width=20, n=300):
    ids = [f"g{i:03d}" for i in range(n)]
    return instance_from_coords(
        ids, [(i % width, i // width) for i in range(n)], facility_ids=ids,
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
        assert seed_ids(inst, 2) == ("p0", "p2")

    def test_k_equals_n(self):
        inst = line_instance([0.0, 1.0, 2.0])
        assert seed_ids(inst, 3) == ("p0", "p1", "p2")

    def test_bad_k(self):
        inst = line_instance([0.0, 1.0])
        with pytest.raises(ValueError):
            farthest_first(inst, 3)

    def test_candidate_restriction(self):
        # the seeding reads only distances among the points, so a point
        # subset is the instance restricted to it: p2, the farthest, is out
        inst = restricted(line_instance([0.0, 5.0, 10.0]), ["p0", "p1"])
        assert seed_ids(inst, 2) == ("p0", "p1")

    def test_two_approximation_for_kcenter(self, rng):
        for _ in range(30):
            n = int(rng.integers(6, 11))
            k = int(rng.integers(2, 4))
            inst = planar_instance(rng, n)
            got = kcenter_radius(inst, seed_ids(inst, k))
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
        runs = {seed_ids(inst, 2) for _ in range(5)}
        assert runs == {("a", "d")}

    def test_coincident_points_give_distinct_centers(self):
        # two positions for three centers: the third is the first unchosen id
        inst = line_instance([5.0, 0.0, 5.0, 0.0, 5.0])
        assert seed_ids(inst, 3) == ("p0", "p1", "p2")
        centers, cost, _ = local_search_clustering(inst, 3)
        assert len(set(centers)) == 3 and cost == 0.0

    def test_matches_reference_on_fixtures(self, rng):
        fixtures = [(line_instance([0.0, 10.0, 11.0]), 2),
                    (line_instance([0.0, 1.0, 2.0]), 3),
                    (restricted(line_instance([0.0, 5.0, 10.0]), ["p0", "p1"]), 2),
                    (restricted(line_instance([0.0, 1.0, 10.0, 11.0]), ["p0", "p2"]), 2)]
        fixtures += [(planar_instance(rng, int(rng.integers(6, 40))), k)
                     for k in (1, 2, 3, 5)]
        for inst, k in fixtures:
            assert seed_ids(inst, k) == reference_farthest_first(inst, k)


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
        with mock.patch.object(baseline, "_SWAPS_PER_CENTER", 0):
            centers, _, swaps = local_search_clustering(inst, 2)
        assert swaps == 0
        assert centers == seed_ids(inst, 2)

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
    """Small instance, k and swaps per center (None: _SWAPS_PER_CENTER)
    for the search."""
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
    k = draw(st.sampled_from(sorted({1, n - 1, draw(st.integers(1, n))})))
    inst = instance_from_coords(
        ids, coords, facility_ids=ids, group_label={i: 1 for i in ids},
        # demands past 2^24 are inexact in float32; at p = 12 and 30 the
        # scale 1e5 leaves float32's range above and 1e-3 underflows it
        client_demands={c: draw(st.integers(1, 5) | st.integers(2**24, 2**25))
                        for c in clients},
        p=draw(st.sampled_from([1.0, 2.0, 3.0, 12.0, 30.0])))
    return inst, k, draw(st.sampled_from([0, 1, None]))


@st.composite
def both_read_directions(draw):
    """search_inputs' instance, which the search reads along candidate
    rows, and the same matrix as a matrix instance, read along candidate
    columns; under a drawn flag also that matrix with one off-diagonal
    entry raised, so that it is not symmetric.  Each with k and swaps per
    center."""
    inst, k, swaps_per_center = draw(search_inputs())
    assert inst.mirrored
    dist = np.array(inst.dist)
    copies = [dist]
    if inst.n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(inst.n)))[:2]
        raised = dist.copy()
        raised[i, j] += 1.0 + dist.max()
        copies.append(raised)
    same = [matrix_instance(inst.point_ids, d, inst.facility_ids, inst.group_label,
                            inst.client_demands, inst.p) for d in copies]
    assert not any(c.mirrored for c in same)
    return [inst, *same], k, swaps_per_center


def block_of(data, rho, a):
    """A drawn block: direct costs X, a table T with |T - X| <= rho * T + a
    (exactly, as integers keep every sum exact) and the current centers'
    columns."""
    k, width = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
    direct = np.array([[data.draw(st.sampled_from([*range(7), np.inf]))
                        for _ in range(width)] for _ in range(k)], dtype=float)

    def noise(x):
        # T = x + e: e <= rho * (x + e) + a and -e <= rho * (x + e) + a
        if not np.isfinite([rho, x, a]).all():
            lo, hi = -5, 5
        else:
            lo, hi = -int((rho * x + a) // (1 + rho)), int((rho * x + a) // (1 - rho))
        return data.draw(st.sampled_from([lo, hi]) | st.integers(lo, hi))
    table = direct + [[noise(x) for x in row] for row in direct]
    inside = np.array([data.draw(st.booleans()) for _ in range(width)])
    return direct, table, inside


def first_direct_argmin(direct, inside):
    """Row-major index of the block's first cheapest swap, None if none."""
    order = np.flatnonzero(~np.broadcast_to(inside, direct.shape))
    return int(order[np.argmin(direct.flat[order])]) if len(order) else None


class TestSwapTable:
    """The search must reproduce the direct scan exactly; the block table
    only filters, and the hits hold the block's direct choice."""

    @given(both_read_directions())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_matches_direct_scan(self, args):
        # the coordinate instance is read by rows, its matrix copies by
        # columns, one of them asymmetric: the same bits as the reference
        instances, k, swaps_per_center = args
        for inst in instances:
            assert_same_search(inst, k, swaps_per_center)

    @given(search_inputs())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_table_entries_within_bound(self, args):
        # every entry T of the first float32 table lies within rho * T + a
        # of its swap's direct cost in table units, at every scale and p
        inst, k, _ = args
        seen = []
        real = baseline._block_hits

        def capture(table, inside, *bound):
            seen.append((table.copy(), inside.copy(), bound))
            return real(table, inside, *bound)
        with mock.patch.object(baseline, "_block_hits", capture), \
                mock.patch.object(baseline, "_SWAPS_PER_CENTER", 1):
            local_search_clustering(inst, k)
        if k == inst.n:
            assert seen == []
            return
        w = inst.client_weights()
        with np.errstate(over="ignore"):
            wscale, scale, rho, a = baseline._table_scale(w, float(inst.dist.max() ** inst.p))
        table, inside, bound = seen[0]
        assert bound[:2] == (rho, a) and np.isfinite(rho)
        cost_of = direct_cost(inst)
        start = farthest_first(inst, k)
        for r, out in enumerate(start):
            for c in np.flatnonzero(~inside).tolist():
                want = cost_of(sorted(set(start) - {out} | {c})) * wscale * scale
                got = float(table[r, c])
                assert abs(got - want) <= rho * got + a

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

    def test_clients_not_one_run(self, rng):
        # every third point and a few more are clients: the table is gathered
        ids = [f"p{i:03d}" for i in range(200)]
        clients = ids[::3] + ids[1:40:7]
        inst = instance_from_coords(
            ids, rng.uniform(0.0, 10.0, size=(200, 2)), facility_ids=ids,
            group_label={i: 1 for i in ids},
            client_demands={c: int(rng.integers(1, 4)) for c in clients}, p=2.0)
        assert_same_search(inst, 5)

    def test_candidates_not_one_run(self, rng):
        # ids shuffled against matrix order: the candidates, every point in
        # id order, sit at scrambled positions
        ids = [f"p{i:02d}" for i in rng.permutation(90)]
        inst = instance_from_coords(
            ids, rng.uniform(0.0, 10.0, size=(90, 2)), facility_ids=ids,
            group_label={i: 1 for i in ids}, client_demands={i: 1 for i in ids}, p=2.0)
        assert not np.array_equal(np.sort(inst.point_pos), inst.point_pos)
        assert_same_search(inst, 4)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_ids_out_of_index_order(self, rng, p):
        # sorted ids sit at descending positions, so neither side is a run
        ids = [f"p{i:03d}" for i in range(160)][::-1]
        inst = instance_from_coords(
            ids, rng.uniform(0.0, 10.0, size=(160, 2)), facility_ids=ids,
            group_label={i: 1 for i in ids},
            client_demands={i: int(rng.integers(1, 4)) for i in ids}, p=p)
        assert_same_search(inst, 6)

    def test_twenty_slots_with_tied_nearest_centers(self):
        # 30 grid positions, each held by one to six points, and k = 20:
        # clients between two centers tie for the nearest, above the
        # 16 slots where argsort was a stable insertion sort
        pos = [(x, y) for x in range(6) for y in range(5)]
        coords = [pos[i % 30] for i in range(150) if i < 30 or i % 7 < 3]
        ids = [f"d{i:03d}" for i in range(len(coords))]
        inst = instance_from_coords(
            ids, coords, facility_ids=ids, group_label={i: 1 for i in ids},
            client_demands={c: 1 + j % 3 for j, c in enumerate(ids)}, p=1.0)
        sub = inst.dist[np.ix_(inst.client_pos, inst.point_pos[farthest_first(inst, 20)])]
        assert ((sub == sub.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        assert_same_search(inst, 20)

    def test_grid_ties_across_blocks(self):
        # 20 x 15 integer grid: equal swaps everywhere, in every block
        inst = grid_instance()
        assert_same_search(inst, 7)
        assert_same_search(restricted(inst, inst.point_ids[::2]), 7)

    @given(search_inputs(max_n=40))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_ends_at_a_single_swap_local_optimum(self, args):
        inst, k, _ = args
        centers, cost, swaps = local_search_clustering(inst, k)
        assert swaps < 100 * k
        assert_local_optimum(inst, k, centers, cost)

    @given(st.data())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_replay_matches_direct_scan(self, data):
        # costing only the hits takes the swap that costing every swap of
        # the block takes, or none when that one does not cost below
        a = data.draw(st.sampled_from([0.0, 1.0, 2.0, np.inf, np.nan]))
        rho = data.draw(st.sampled_from([0.0, 0.5]))
        direct, table, inside = block_of(data, rho, a)
        below = data.draw(st.sampled_from([0.5, 3.0, 6.0, 7.0]))
        first = first_direct_argmin(direct, inside)
        want = first if first is not None and direct.flat[first] < below else None
        hits = _block_hits(table, inside, rho, a, below)
        got = None
        if len(hits) and direct.flat[hits[np.argmin(direct.flat[hits])]] < below:
            got = int(hits[np.argmin(direct.flat[hits])])
        assert got == want

    @given(st.data())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_column_rule_names_only_the_first_direct_argmin(self, data):
        # a single hit is the first direct argmin, slots then candidates;
        # exact ties, inf entries, NaN entries and a NaN or inf bound are drawn
        a = data.draw(st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf, np.nan]))
        rho = data.draw(st.sampled_from([0.0, 0.5, np.nan]))
        direct, table, inside = block_of(data, rho, a)
        if data.draw(st.booleans()):
            table.flat[data.draw(st.integers(0, table.size - 1))] = np.nan
        hits = _block_hits(table, inside, rho, a, np.inf)
        assert not inside[hits % table.shape[1]].any()
        if len(hits) == 1:
            assert hits[0] == first_direct_argmin(direct, inside)

    def test_column_rule_cases(self):
        no = np.zeros(3, dtype=bool)
        one = np.array([[5.0, 9.0, 7.5], [8.0, 9.0, 6.0]])
        assert _block_hits(one.copy(), no, 0.0, 0.25, 10.0).tolist() == [0]
        assert _block_hits(one.copy(), no, 0.0, 0.25, 4.0).tolist() == []      # none below
        assert _block_hits(one.copy(), no, 0.0, 1.0, 10.0).tolist() == [0, 5]  # within 2a
        assert _block_hits(np.array([[5.0, 5.0]]), no[:2], 0.0, 0.0, 10.0).tolist() == [0, 1]
        assert _block_hits(np.array([[5.0, np.nan, 9.0]]), no, 0.0, 1.0, 10.0).tolist() == [0, 1, 2]
        assert _block_hits(np.array([[5.0, 9.0]]), no[:2], 0.0, np.nan, 10.0).tolist() == [0, 1]
        assert _block_hits(np.array([[5.0, 9.0]]), no[:2], 0.0, np.inf, 10.0).tolist() == [0, 1]
        assert _block_hits(np.array([[np.inf, 5.0, 9.0]]), no, 0.0, 1.0, 10.0).tolist() == [1]
        # relative: T * 0.75 <= 5 * 1.25 keeps T up to 8.33, and 5 * 0.75 >= 3
        assert _block_hits(one.copy(), no, 0.25, 0.0, 10.0).tolist() == [0, 2, 3, 5]
        assert _block_hits(one.copy(), no, 0.25, 0.0, 3.0).tolist() == []
        assert _block_hits(one.copy(), no, 0.25, 0.0, 4.0).tolist() == [0, 2, 3, 5]
        assert _block_hits(np.array([[5.0, 9.0]]), no[:2], np.nan, 0.0, 10.0).tolist() == [0, 1]

    def test_table_settles_the_column_without_exact(self):
        # the minimum sits in a center's column: it is skipped, and the
        # table alone names slot 1's last candidate
        rows = np.array([[1.0, 11.0, 13.0], [0.5, 9.0, 6.0]])
        inside = np.array([True, False, False])
        assert _block_hits(rows, inside, 0.0, 0.25, 10.0).tolist() == [5]
        assert np.isinf(rows[:, 0]).all()

    def test_exact_runs_where_the_table_cannot_name_the_column(self):
        # 6.2 lies within 2a of 6.0 in another slot: both go to their
        # direct costs, and with them a candidate
        rows = np.array([[12.0, 11.0, 6.2], [6.6, 9.0, 6.0]])
        assert _block_hits(rows, np.zeros(3, dtype=bool), 0.0, 0.25, 10.0).tolist() == [2, 5]


def count_direct_evaluations(monkeypatch):
    """Route the search through a _block_hits that records every block
    whose table leaves more than one swap to direct costing."""
    calls = []
    real = baseline._block_hits

    def counting(*args):
        hits = real(*args)
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

    @pytest.mark.parametrize("width, n", [(20, 300), (12, 144)])
    def test_fallback_runs_on_grid_ties(self, monkeypatch, width, n):
        # with two centers the grid's best swap has a tied twin; the grids
        # span three and two column blocks
        calls = count_direct_evaluations(monkeypatch)
        assert_same_search(grid_instance(width, n), 2)
        assert len(calls) >= 1

    @pytest.mark.parametrize("scale", [1e-6, 1.5e6])
    def test_none_at_the_range_ends(self, monkeypatch, scale):
        # at p = 40 every p-th power lies below 1e-190 (scale 1e-6) or they
        # reach 1e293 (1.5e6, total weight * d_max^p still under COST_CAP),
        # far outside float32 either way; the table's power-of-two scale
        # still lets the table alone settle every block
        calls = count_direct_evaluations(monkeypatch)
        rng = np.random.default_rng(3)
        ids = [f"p{i:02d}" for i in range(60)]
        inst = instance_from_coords(
            ids, rng.uniform(0.0, 10.0, size=(60, 2)) * scale, facility_ids=ids,
            group_label={i: 1 for i in ids},
            client_demands={i: int(rng.integers(1, 4)) for i in ids}, p=40.0)
        _require_costs_in_range(inst)
        assert_same_search(inst, 4)
        assert calls == []

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

    @pytest.mark.parametrize("as_matrix", [False, True])
    def test_table_raised_along_the_read_direction(self, rng, monkeypatch, as_matrix):
        # a deterministic read shape in place of a timing: the coordinate
        # instance's table is raised from views of 64 candidate rows each,
        # its matrix copy's from views of 64 candidate columns each, and so
        # is every trial candidate's one row or column
        inst = many_clients_instance(rng, 2.0)
        if as_matrix:
            inst = matrix_instance(inst.point_ids, inst.dist, inst.facility_ids,
                                   inst.group_label, inst.client_demands, inst.p)
        reads = []
        real = MetricInstance.to_clients

        def recording(self, pos):
            out = real(self, pos)
            reads.append((len(pos), out.strides, np.shares_memory(out, self.dist)))
            return out
        monkeypatch.setattr(MetricInstance, "to_clients", recording)
        local_search_clustering(inst, 8)
        n, step = inst.n, inst.dist.itemsize
        shape = (step, n * step) if as_matrix else (n * step, step)
        raise_reads = [r for r in reads if r[0] == baseline._TABLE_BLOCK // 2]
        assert raise_reads == [(64, shape, True)] * (n // 64)
        trial_reads = [r for r in reads if r[0] == 1]
        assert trial_reads and all(r[1:] == (shape, True) for r in trial_reads)


class TestSearchMemory:
    @pytest.mark.parametrize("ids_in_order, every_point_a_client", [
        pytest.param(True, True, id="True"), pytest.param(False, True, id="False"),
        pytest.param(True, False, id="client_subset")])
    def test_peak_near_one_power_table(self, rng, ids_in_order, every_point_a_client):
        # the n x |cand| table is the search's one large array, in float32:
        # half the bytes of a float64 table.  Building it through gathered
        # copies peaked at twice the float64 size, and with a float64 table
        # at 1.23 times it.  With the ids in reverse order the table is
        # gathered, not read through a view, and with a third of the points
        # no client each candidate row is gathered
        inst = many_clients_instance(rng, 2.0)
        if not ids_in_order:
            order = inst.point_ids[::-1]
            inst = matrix_instance(order, submatrix(inst, order, order), inst.facility_ids,
                                   inst.group_label, inst.client_demands, inst.p)
        if not every_point_a_client:
            inst = instance_from_coords(
                inst.point_ids, inst.coords, inst.facility_ids, inst.group_label,
                {c: w for j, (c, w) in enumerate(inst.client_demands.items()) if j % 3}, inst.p)
            assert inst.mirrored and not np.array_equal(
                inst.client_pos, np.arange(inst.client_pos[0], inst.client_pos[-1] + 1))
        table = len(inst.client_ids) * len(inst.point_ids) * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            local_search_clustering(inst, 8)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.8 * table


class TestReduceLocations:
    def test_aggregation(self):
        inst = line_instance([0.0, 1.0, 10.0, 11.0])
        red = reduce_locations(inst, ("p0", "p3"))
        assert red.location_ids == ("p0", "p3")
        assert red.weights.tolist() == [2.0, 2.0]
        assert baseline_cost_p(red) == pytest.approx(2.0)

    def test_tie_goes_to_lower_id(self):
        inst = line_instance([0.0, 1.0, 2.0])
        red = reduce_locations(inst, ("p0", "p2"))
        assert red.weights.tolist() == [2.0, 1.0]

    def test_zero_weight_centers_dropped(self):
        inst = line_instance([0.0, 1.0, 10.0, 11.0],
                             client_demands={"p1": 3})
        red = reduce_locations(inst, ("p1", "p3"))
        assert red.location_ids == ("p1",)
        assert red.weights.tolist() == [3.0]
        assert baseline_cost_p(red) == 0.0

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
    def test_matches_client_loop(self, rng, p):
        # some clients absent and some centers left without demand
        cases = [(many_clients_instance(rng, p), 8)]
        for _ in range(20):
            n = int(rng.integers(5, 30))
            ids = [f"p{i:02d}" for i in range(n)]
            keep = [c for c in ids if rng.random() < 0.6] or ids[:1]
            inst = instance_from_coords(
                ids, rng.uniform(0.0, 10.0, size=(n, 2)), facility_ids=ids,
                group_label={i: 1 for i in ids},
                client_demands={c: int(rng.integers(1, 5)) for c in keep}, p=p)
            cases.append((inst, int(rng.integers(1, n + 1))))
        for inst, k in cases:
            centers = list(rng.choice(inst.point_ids, size=k, replace=False))
            red = reduce_locations(inst, centers)
            kept, weights, _, base_cost = reference_reduce_locations(inst, centers)
            assert red.location_ids == kept
            assert red.weights.dtype == weights.dtype
            assert red.weights.tobytes() == weights.tobytes()
            assert baseline_cost_p(red) == pytest.approx(base_cost, rel=1e-12, abs=0.0)

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
            assert baseline_cost_p(red) == pytest.approx(base_cost, rel=1e-9)
            ns = int(rng.integers(1, 4))
            S = list(rng.choice(inst.facility_ids, size=ns, replace=False))
            lhs = red.cost_of(S)
            from fairrange.instance import clustering_cost
            rhs = 2.0 ** (p - 1.0) * (baseline_cost_p(red) + clustering_cost(inst, S)[0])
            assert lhs <= rhs * (1 + 1e-9) + 1e-9
