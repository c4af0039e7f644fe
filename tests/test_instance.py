import ast
import itertools
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairrange
import fairrange.instance
from fairrange.instance import (
    MetricInstance,
    RangeConstraints,
    build_center_solution,
    check_range_feasibility,
    clustering_cost,
    instance_from_coords,
    validate_instance,
)

from conftest import distance, line_instance, matrix_instance, submatrix
from oracles import chain_power_check, power_triangle_check

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
    # n on either side of a row-block edge.  Each entry is also the same
    # bits as its transpose, which the instance's mirrored mark states
    rng = np.random.default_rng([n, dim])
    pts = rng.normal(size=(n, dim)) * rng.uniform(0.1, 1000.0, size=dim)
    inst = coords_instance(pts)
    assert inst.dist.shape == (n, n)
    assert inst.dist.tobytes() == one_shot_distances(pts).tobytes()
    assert inst.mirrored
    assert inst.dist.tobytes() == np.ascontiguousarray(inst.dist.T).tobytes()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_coordinates_must_be_finite(bad):
    # an infinite coordinate built inf - inf = nan distances with a
    # RuntimeWarning, and validate_instance then reported nothing
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    pts[1, 0] = bad
    with pytest.raises(ValueError, match=rf"point 'q1' has a non-finite coordinate: \({bad:g}, 2\)"):
        coords_instance(pts)


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


def test_validate_pins_the_faults_of_a_broken_matrix():
    # a nan pair, an inf/finite pair and two finite gaps.  Symmetry is
    # checked against the transpose in row blocks and names the pair the
    # n x n check named: the first pair of largest gap, in row order
    ids = ["a", "b", "c", "d", "e", "f"]
    x = np.array([0.0, 1.0, 3.0, 6.0, 10.0, 15.0])
    dist = np.abs(np.subtract.outer(x, x))
    dist[0, 1] = dist[1, 0] = math.nan
    dist[2, 3] = math.inf
    dist[4, 0] += 0.5
    dist[1, 5] += 0.25

    def violations():
        every = {u: 1 for u in ids}
        return validate_instance(matrix_instance(ids, dist.copy(), ids, every, every,
                                                 1.0)).violations

    assert violations() == [
        "nan: d(a,b) is not a number",
        "symmetry: d(c,d) != transpose",
        "triangle: d(c,d) > d(c,a) + d(a,d)",
        "triangle: d(c,d) > d(c,b) + d(b,d)",
        "triangle: d(b,f) > d(b,c) + d(c,f)",
        "triangle: 6 further violated triples",
    ]
    dist[2, 3] = 3.0            # the two finite gaps remain; d(a,e)'s is larger
    assert violations() == [
        "nan: d(a,b) is not a number",
        "symmetry: d(a,e) != transpose",
        "triangle: d(b,f) > d(b,c) + d(c,f)",
        "triangle: d(e,a) > d(e,c) + d(c,a)",
        "triangle: d(b,f) > d(b,d) + d(d,f)",
        "triangle: 2 further violated triples",
    ]


def test_validate_names_the_first_largest_gap_across_row_blocks():
    # 130 points span three row blocks: of two equal gaps the one first in
    # row order is named, and a larger gap in a later block wins
    ids = [f"p{i}" for i in range(130)]
    dist = np.abs(np.subtract.outer(np.arange(130.0), np.arange(130.0)))

    def symmetry():
        inst = matrix_instance(ids, dist.copy(), ids[:1], {"p0": 1}, {"p1": 1}, 1.0)
        return [v for v in validate_instance(inst).violations if v.startswith("symmetry")]

    dist[100, 3] += 2.0
    dist[120, 70] += 2.0
    assert symmetry() == ["symmetry: d(p3,p100) != transpose"]
    dist[120, 70] += 1.0
    assert symmetry() == ["symmetry: d(p70,p120) != transpose"]


def test_validate_builds_no_square_temporary(monkeypatch):
    # the symmetry check built an n x n copy and allclose's temporaries
    monkeypatch.setattr(fairrange.instance, "TRIANGLE_SAMPLE_CAP", 1000)
    n = 600
    inst = coords_instance(np.random.default_rng(2).uniform(0.0, 10.0, size=(n, 2)))
    tracemalloc.start()
    try:
        validate_instance(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * n * n * 8


def test_coordinates_are_the_instance_own_copy():
    # the instance kept the caller's array: after c[1] = (30, 40),
    # inst.coords[1] read (30, 40) while d(q0,q1) still read 5
    c = np.array([[0.0, 0.0], [3.0, 4.0]])
    inst = coords_instance(c)
    c[1] = (30.0, 40.0)
    assert inst.coords.tolist() == [[0.0, 0.0], [3.0, 4.0]]
    assert distance(inst, "q0", "q1") == 5.0
    assert not inst.coords.flags.writeable


def test_coordinates_come_only_from_the_coordinate_builder():
    # coords was a constructor argument: this instance, its matrix three
    # times the coordinates' distances, solved at cost_p 143.338 while its
    # document round trip, a coordinates document, solved at 47.780
    inst = fairrange.random_instance(0, 8, 2, 1.0)
    with pytest.raises(TypeError, match="coords"):
        MetricInstance(inst.point_ids, 3 * inst.dist, inst.facility_ids, inst.group_label,
                       inst.client_demands, inst.p, coords=inst.coords)


def test_validate_sampled_triples_deterministic(monkeypatch):
    # 110^3 triples above the cap: the sample, always seeded with 0, is
    # the same on every call
    monkeypatch.setattr(fairrange.instance, "TRIANGLE_SAMPLE_CAP", 1000)
    rng = np.random.default_rng(7)
    pts = rng.random((110, 2))
    ids = tuple(f"q{i}" for i in range(110))
    inst = instance_from_coords(ids, pts, ids, {i: 1 for i in ids},
                                {ids[0]: 1}, 2.0)
    r1 = validate_instance(inst)
    r2 = validate_instance(inst)
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


@pytest.mark.parametrize("k, ranges, message", [
    # a float or bool k reached np.zeros((k, n)) in local search
    (2.0, ((0, 4),), "k must be an integer, got 2.0"),
    (True, ((0, 4),), "k must be an integer, got True"),
    # 0.5 let the selection flow open one facility of two; inf made the
    # relaxation's residual nan; nan was accepted
    (2, ((0, 0.5), (0, 2)), "range 1 upper bound must be an integer, got 0.5"),
    (2, ((0, math.inf), (0, 2)), "range 1 upper bound must be an integer, got inf"),
    (2, ((math.nan, 2),), "range 1 lower bound must be an integer, got nan"),
    (2, ((0, 2), (False, 2)), "range 2 lower bound must be an integer, got False"),
])
def test_range_constraints_refuse_non_integers(k, ranges, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RangeConstraints(k, ranges)


def test_range_constraints_store_plain_ints():
    rc = RangeConstraints(np.int64(2), ((np.int32(0), np.uint8(2)),))
    assert type(rc.k) is int
    assert all(type(v) is int for window in rc.ranges for v in window)
    assert rc == RangeConstraints(2, ((0, 2),))


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


def test_instance_rejects_duplicate_facility_ids():
    # ("a", "a", "b") was accepted, and the flow then opened "a" twice, so
    # a k=2 solve raised "pipeline: selected 1 centers"
    with pytest.raises(ValueError, match="duplicate facility ids"):
        matrix_instance(["a", "b"], [[0, 1], [1, 0]], ["a", "a", "b"],
                        {"a": 1, "b": 1}, {"a": 1}, 1.0)


def test_block_is_a_view_only_for_runs():
    ids = [f"q{i}" for i in range(6)]
    inst = matrix_instance(ids, np.arange(36.0).reshape(6, 6), ids, {i: 1 for i in ids},
                           {i: 1 for i in ids}, 1.0)
    D = inst.dist

    def block(rows, cols):
        return inst.block(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))
    view = block([1, 2, 3], [0, 1])
    assert np.shares_memory(view, D) and not view.flags.writeable
    assert np.array_equal(view, D[1:4, 0:2])
    for rows, cols in (([1, 3], [0, 1]), ([1, 2], [2, 1]), ([], [0]), ([2], [])):
        got = block(rows, cols)
        assert not np.shares_memory(got, D)
        assert np.array_equal(got, D[np.ix_(rows, cols)])
    assert np.array_equal(submatrix(inst, ["q3", "q1"], ["q2"]), D[np.ix_([3, 1], [2])])


def test_to_clients_reads_rows_only_when_mirrored():
    # the values are block(client_pos, pos).T either way; a mirrored
    # instance reads the points' rows, any other their columns, and runs
    # of positions give views
    ids = [f"q{i}" for i in range(6)]
    asym = matrix_instance(ids, np.arange(36.0).reshape(6, 6), ids, {i: 1 for i in ids},
                           {i: 1 for i in ids[1:4]}, 1.0)
    sym = coords_instance(np.random.default_rng(0).normal(size=(6, 2)))
    gathered = instance_from_coords(ids, sym.coords, ids, {i: 1 for i in ids},
                                    {i: 1 for i in ("q0", "q2", "q5")}, 1.0)
    for inst in (asym, sym, gathered):
        D, step = inst.dist, inst.dist.itemsize
        for pos in ([0, 1, 2], [4], [5, 1], []):
            pos = np.array(pos, dtype=np.intp)
            got = inst.to_clients(pos)
            assert np.array_equal(got, inst.block(inst.client_pos, pos).T)
            if inst is not gathered and len(pos) and pos[-1] - pos[0] == len(pos) - 1:
                assert np.shares_memory(got, D) and not got.flags.writeable
                assert got.strides == ((6 * step, step) if inst.mirrored else (step, 6 * step))
    assert not asym.mirrored and sym.mirrored and gathered.mirrored


def test_positions_are_worked_out_once():
    # ids that sort against matrix order, clients and facilities as subsets
    ids = ["c", "a", "d", "b"]
    dist = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    inst = matrix_instance(ids, dist, ["d", "a"], {"d": 2}, {"b": 3, "c": 1, "a": 2}, 1.0)
    assert inst.client_ids == ("a", "b", "c")
    assert inst.client_pos.tolist() == [1, 3, 0]
    assert inst.client_weights().tolist() == [2.0, 3.0, 1.0]
    assert inst.facility_ids == ("a", "d")
    assert inst.facility_pos.tolist() == [1, 2]
    assert inst.facility_groups == (0, 2)          # "a" has no label
    assert inst.point_pos.tolist() == [1, 3, 0, 2]
    assert inst.positions(["d", "c"]).tolist() == [2, 0]
    for a in (inst.client_pos, inst.facility_pos, inst.point_pos, inst.client_weights()):
        assert not a.flags.writeable
    assert inst.distance_range == (0.0, 3.0)
    assert inst.first_entry(lambda D: D == 3.0) == ("c", "b", 3.0)


def test_only_the_instance_reads_the_matrix():
    # every block a solve reads comes from MetricInstance; the one other
    # reader writes a matrix document out
    def reads(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "dist"]

    stray = []
    for path in sorted(pathlib.Path(fairrange.__file__).parent.glob("*.py")):
        if path.name == "instance.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = [n for fn in tree.body if isinstance(fn, ast.FunctionDef)
                   and (path.name, fn.name) == ("cli.py", "document_from_instance")
                   for n in reads(fn)]
        stray += [f"{path.name}:{n.lineno}" for n in reads(tree) if n not in allowed]
    assert stray == []


def test_every_src_name_is_read_in_src_or_perfbench():
    # a function, class or method that only tests or docstrings name is
    # test scaffolding, and belongs in tests/.  A reference is a name, an
    # attribute or an import alias, matched by spelling
    src = pathlib.Path(fairrange.__file__).parent
    modules = {path: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    bench = sorted((src.parents[1] / "perfbench").glob("*.py"))
    assert bench, "perfbench/ not found beside src/"
    used = set()
    for tree in [*modules.values(), *(ast.parse(path.read_text()) for path in bench)]:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used |= {n.name.rsplit(".", 1)[-1], n.asname}
    unread = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            names = [node.name]
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef)
                          and not (m.name.startswith("__") and m.name.endswith("__"))]
            unread += [f"{path.name}:{name}" for name in names
                       if name.rsplit(".", 1)[-1] not in used]
    assert unread == []


def test_validate_demands_by_the_integer_rule_of_labels_and_ranges():
    # isinstance(w, int) refused a numpy demand of 2, which the solve
    # answers, and took True as a demand of one
    def demand(w):
        inst = line_instance([0.0, 1.0], (0, 1), {0: 1, 1: 1}, {0: 1, 1: w}, 1.0)
        return [v for v in validate_instance(inst).violations if v.startswith("demand")]
    assert demand(np.int64(2)) == []
    assert demand(2) == []
    for bad in (True, 0, -1, 1.5, np.int64(0)):
        assert demand(bad) == [f"demand: client p1 demand {bad!r} is not a positive integer"]
    inst = line_instance([0.0, 1.0], (0, 1), {0: 1, 1: 1}, {0: 1, 1: np.int64(2)}, 1.0)
    # the demand of 2 draws the one center to p1
    report = fairrange.solve_fair_range(inst, RangeConstraints(1, ((0, 1),)))
    assert report.centers.centers == ("p1",) and report.centers.cost_p == 1.0


def test_solve_maps_only_o_of_k_ids(monkeypatch):
    # a many-clients-shaped solve: 400 clients, every 20th point a facility.
    # Ids become positions once, when the instance is built; a solve maps
    # only centers and locations
    rng = np.random.default_rng(3)
    ids = [f"m{i:03d}" for i in range(400)]
    inst = instance_from_coords(ids, rng.uniform(0.0, 100.0, size=(400, 2)), ids[::20],
                                {u: 1 + t % 2 for t, u in enumerate(ids[::20])},
                                {c: int(rng.integers(1, 4)) for c in ids}, 2.0)
    rc = RangeConstraints(6, ((2, 4), (2, 4)))
    calls = []
    real = MetricInstance.index

    def counting(self, pid):
        calls.append(pid)
        return real(self, pid)
    monkeypatch.setattr(MetricInstance, "index", counting)
    report = fairrange.solve_fair_range(inst, rc)
    assert report.reduced and report.diagnostics["baseline_swaps"] > 0
    assert 0 < len(calls) <= 10 * rc.k
