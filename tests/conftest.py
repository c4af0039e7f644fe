import itertools
import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest

import fairrange.pipeline
from fairrange.instance import MetricInstance, RangeConstraints, instance_from_coords
from fairrange.lp import GEQ, LEQ, LinearProgram, Row
from fairrange.round import structured_program
from oracles import structured_row_kinds


def line_instance(xs, facility_ids=None, group_label=None, client_demands=None, p=1.0):
    """Instance with points placed on a line at the given coordinates.

    Defaults make every point a unit-demand client and a group-1 facility.
    Dict keys may be point indices or the generated "p<i>" ids.
    """
    ids = tuple(f"p{i}" for i in range(len(xs)))

    def by_id(mapping):
        return {ids[k] if isinstance(k, int) else k: v for k, v in mapping.items()}

    coords = np.array([[x, 0.0] for x in xs])
    named_f = ids if facility_ids is None else tuple(
        ids[i] if isinstance(i, int) else i for i in facility_ids)
    labels = {i: 1 for i in named_f} if group_label is None else by_id(group_label)
    demands = ({i: 1 for i in ids} if client_demands is None
               else by_id(client_demands))
    return instance_from_coords(ids, coords, named_f, labels, demands, p)


def matrix_instance(ids, dist, facility_ids, group_label, client_demands, p):
    return MetricInstance(tuple(ids), np.asarray(dist, dtype=float),
                          tuple(facility_ids), dict(group_label),
                          dict(client_demands), p)


def distance(inst, a, b):
    """d(a, b), by point id."""
    return float(inst.dist[inst.index(a), inst.index(b)])


def submatrix(inst, rows, cols):
    """Distances from the points rows to the points cols, by id."""
    return inst.block(inst.positions(rows), inst.positions(cols))


def with_distance(inst, a, b, value):
    """inst as a matrix instance with d(a, b) = d(b, a) = value."""
    dist = inst.dist.copy()
    dist[inst.index(a), inst.index(b)] = dist[inst.index(b), inst.index(a)] = value
    return MetricInstance(inst.point_ids, dist, inst.facility_ids, inst.group_label,
                          inst.client_demands, inst.p)


def random_fair_instance(rng, n, p):
    """Planar instance, every point a client and a facility, two groups."""
    ids = [f"p{i:02d}" for i in range(n)]
    coords = rng.uniform(0.0, 10.0, size=(n, 2))
    labels = {ids[i]: (1 if i % 2 else 2) for i in range(n)}
    labels[ids[0]] = 1
    labels[ids[1]] = 2
    demands = {i: int(rng.integers(1, 4)) for i in ids}
    return instance_from_coords(ids, coords, ids, labels, demands, p)


def feasible_ranges(rng, inst, k):
    """Ranges admitting at least one witness center set of size k."""
    sizes = inst.group_sizes(2)
    n1, n2 = sizes[0], sizes[1]
    lo = max(0, k - n2)
    hi = min(k, n1)
    c1 = int(rng.integers(lo, hi + 1))
    s1 = int(rng.integers(0, 3))
    s2 = int(rng.integers(0, 3))
    return RangeConstraints(k, ((max(0, c1 - s1), c1 + s1),
                                (max(0, k - c1 - s2), k - c1 + s2)))


def manual_sp(inst, locations, radii, balls, x, y):
    """Assemble a sparsified view directly, bypassing the LP front."""
    from fairrange.baseline import reduce_locations
    from fairrange.sparsify import SparsifiedInstance

    red = reduce_locations(inst, locations)
    assert red.location_ids == tuple(locations)
    return SparsifiedInstance(
        red, list(range(len(locations))), red.weights, np.asarray(radii, dtype=float),
        {v: v for v in locations}, [np.asarray(b, dtype=int) for b in balls],
        np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def lp_from_rows(num_vars, objective, rows, upper=None):
    """LinearProgram from a list of Row tuples, collected in one pass; no
    upper bounds when upper is None."""
    ends, indices, data, rhs, geq = [0], [], [], [], []
    for row in rows:
        for j, a in row.coeffs:
            indices.append(j)
            data.append(a)
        ends.append(len(indices))
        rhs.append(row.rhs)
        geq.append(row.sense == GEQ)
    return LinearProgram(num_vars, objective, np.array(ends, dtype=np.intp),
                         np.array(indices, dtype=np.intp), np.array(data, dtype=float),
                         np.array(rhs, dtype=float), np.array(geq, dtype=bool),
                         np.full(num_vars, np.inf) if upper is None else upper)


# The structured builder as it was before it merged free facilities itself,
# one column per facility and with its constant returned, kept as the
# reference for the program it writes: the body is verbatim except that its
# LinearProgram call became lp_from_rows, it returns the row tags the
# program held then beside the program, and it reads the per-location base
# costs and ball masses that replaced its single-survivor mode (base 0 and
# need 1 there, which priced and built the same program).  Split
# facilities were added later: each listed facility u gets a spare column
# nF + i after the facilities, in its group's range rows and the card row,
# and a split row u + spare <= 1 after the super ball rows.
def reference_build_structured_lp(dp: np.ndarray, w: Sequence[float], groups: Sequence[int],
                                  k: int, ranges: Sequence[tuple[int, int]],
                                  balls: Sequence[Sequence[int]],
                                  supers: Sequence[Sequence[int]],
                                  base_pow: Sequence[float], ball_need: Sequence[float],
                                  split: Sequence[int]
                                  ) -> tuple[LinearProgram, float, list[tuple]]:
    dp = np.asarray(dp, dtype=float)
    nD, nF = dp.shape
    split = [int(u) for u in split]
    groups = [*groups, *(groups[u] for u in split)]
    nC = nF + len(split)
    c = np.zeros(nC)
    constant = 0.0
    for v in range(nD):
        base = base_pow[v]
        constant += w[v] * base
        for u in supers[v]:
            c[u] += w[v] * (dp[v, u] - base)
    rows: list[Row] = []
    kinds: list[tuple] = []
    for gi, (a, b) in enumerate(ranges, start=1):
        members = tuple(u for u in range(nC) if groups[u] == gi)
        rows.append(Row(tuple((u, 1.0) for u in members), GEQ, float(a)))
        kinds.append(("range_lower", gi))
        rows.append(Row(tuple((u, 1.0) for u in members), LEQ, float(b)))
        kinds.append(("range_upper", gi))
    rows.append(Row(tuple((u, 1.0) for u in range(nC)), LEQ, float(k)))
    kinds.append(("card",))
    for v in range(nD):
        rows.append(Row(tuple((u, 1.0) for u in balls[v]), GEQ, float(ball_need[v])))
        kinds.append(("ball", v))
    for v in range(nD):
        rows.append(Row(tuple((u, 1.0) for u in supers[v]), LEQ, 1.0))
        kinds.append(("superball", v))
    for i, u in enumerate(split):
        rows.append(Row(((u, 1.0), (nF + i, 1.0)), LEQ, 1.0))
        kinds.append(("split", i))
    upper = np.ones(nC)
    return lp_from_rows(nC, c, rows, upper=upper), constant, kinds


# The merge presolve that ran on the full builder's output, as it was when
# it keyed the free columns by per-column entry lists, kept as the reference
# for the columns the builder now merges itself: verbatim except that the
# row tags it read off the program come in as row_kinds, and that a spare
# column, in a split row, is not free.
def reference_merge_free_columns(lp: LinearProgram, row_kinds: list[tuple]
                                 ) -> tuple[LinearProgram, list[np.ndarray]]:
    """Presolve: one column for each set of identical free facilities.

    A free column has objective 0 and sits in no ball, super-ball or split row,
    so it meets only its group's range rows and the card row, and all free
    columns of a group are the same column.  Each such set becomes one
    column, at the place of its first member, with the members' summed
    upper bound: a copy of an existing column, so total unimodularity and
    integral bounds survive (duplicate-column merging, Andersen & Andersen,
    "Presolving in linear programming", 1995).  Reads the row tags and
    upper bounds that build_structured_lp sets.  Returns the small program
    and the original columns behind each of its columns, in index order.
    """
    n = lp.num_vars
    entries: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    free = lp.objective == 0.0
    for i, row in enumerate(lp.rows):
        touches = row_kinds[i][0] in ("ball", "superball", "split")
        for j, a in row.coeffs:
            entries[j].append((i, a))
            if touches:
                free[j] = False
    by_key: dict = {}
    for j in range(n):
        by_key.setdefault(tuple(entries[j]) if free[j] else j, []).append(j)
    members = [np.array(cols) for cols in by_key.values()]
    new_of = np.empty(n, dtype=int)
    for c, cols in enumerate(members):
        new_of[cols] = c
    rows = [Row(tuple({int(new_of[j]): a for j, a in row.coeffs}.items()),
                row.sense, row.rhs) for row in lp.rows]
    first = [cols[0] for cols in members]
    upper = np.array([lp.upper[cols].sum() for cols in members])
    return lp_from_rows(len(members), lp.objective[first], rows, upper=upper), members


PROGRAM_ARRAYS = ("objective", "indptr", "indices", "data", "rhs", "geq", "upper", "row_of")


def assert_same_program(got, want):
    """Equal size and arrays (dtype and bits), upper bounds included."""
    assert got.num_vars == want.num_vars
    for name in PROGRAM_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def opening_program(dp, w, groups, k, ranges, balls, territories, base_pow, ball_need, split):
    """structured_program on the reference builder's arguments: the
    network and its columns' facilities."""
    sp = SimpleNamespace(fac_dist_p=np.asarray(dp, dtype=float),
                         weights=np.asarray(w, dtype=float),
                         balls=[np.asarray(b, dtype=np.intp) for b in balls])
    ss = SimpleNamespace(sp=sp, territories=[np.asarray(t, dtype=np.intp) for t in territories],
                         base_pow=np.asarray(base_pow, dtype=float),
                         ball_need=np.asarray(ball_need, dtype=float),
                         split=np.asarray(split, dtype=np.intp))
    return structured_program(ss, groups, SimpleNamespace(k=k, ranges=ranges))


def reference_opening_lp(args):
    """The reference builder's program for args, merged by the reference
    presolve, and the facilities behind each of its columns."""
    full, _, kinds = reference_build_structured_lp(*args)
    lp, cols = reference_merge_free_columns(full, kinds)
    facility = [*range(len(args[2])), *args[9]]
    return lp, [np.array([facility[j] for j in c], dtype=np.intp) for c in cols]


def exact_opening_costs(args) -> list[Fraction]:
    """The objective of reference_build_structured_lp(*args), each column's
    sum of w_v (d(v,u)^p - d(v,v')^p) taken in Fractions."""
    dp, w, groups, _, _, _, territories, base, _, split = args
    cost = [Fraction(0)] * (len(groups) + len(split))
    for v, t in enumerate(territories):
        for u in t:
            cost[u] += Fraction(float(w[v])) * (Fraction(float(dp[v][u])) - Fraction(float(base[v])))
    return cost


def same_opening_program(args):
    """The network structured_program writes for the reference builder's
    arguments against the reference program, merged by the reference
    presolve: the members of every column, each node's columns against
    the reference's rows, the arc bounds against its doubled right-hand
    sides and upper bounds, and the column costs against its exact
    objective, up to one positive scale."""
    program, members = opening_program(*args)
    lp, want_members = reference_opening_lp(args)
    assert [c.tolist() for c in members] == [c.tolist() for c in want_members]
    kinds = structured_row_kinds(lp)
    row = {kind: (sorted(j for j, _ in r.coeffs), r.rhs) for r, kind in zip(lp.rows, kinds)}
    ell, nD, nsplit = len(args[4]), len(args[1]), len(args[9])
    order = ([("card",)] + [("range_lower", g) for g in range(1, ell + 1)]
             + [("split", i) for i in range(nsplit)] + [("ball", v) for v in range(nD)]
             + [("superball", v) for v in range(nD)])
    assert [list(r) for r in program.rows] == [row[kind][0] for kind in order]
    assert program.num_vars == lp.num_vars
    bounds = [(lo, up) for _, _, lo, up, _ in program.arcs]
    assert bounds[:lp.num_vars] == [(0, 2 * int(u)) for u in lp.upper]
    assert bounds[lp.num_vars:] == (
        [(0, 2 * row[("card",)][1])]
        + [(2 * row[("range_lower", g)][1], 2 * row[("range_upper", g)][1])
           for g in range(1, ell + 1)]
        + [(0, 2)] * nsplit + [(2 * row[("ball", v)][1], 2) for v in range(nD)]
        + [(0, 2)] * nD)
    exact = exact_opening_costs(args)
    full_cols = reference_merge_free_columns(*reference_build_structured_lp(*args)[::2])[1]
    want = [exact[c[0]] for c in full_cols]
    got = [cost for *_, cost in program.arcs[:program.num_vars]]
    assert [g == 0 for g in got] == [e == 0 for e in want]
    assert len({Fraction(g) / e for g, e in zip(got, want) if e}) <= 1
    assert all((g > 0) == (e > 0) for g, e in zip(got, want))


def groups_of(inst):
    return [inst.group_label[u] for u in inst.facility_ids]


# The stage globals of fairrange.pipeline, in the order a solve calls them.
PIPELINE_STAGES = ("local_search_clustering", "reduce_locations", "build_fair_range_lp",
                   "solve_lp", "sparsify", "reassign_private_facilities",
                   "build_super_balls", "enforce_structure", "structured_program",
                   "solve_half_integral", "select_centers")


class _LastStage(Exception):
    """Ends a solve once the last stage asked for has returned."""


def solve_stages(inst, rc, last):
    """What each stage of solve_fair_range(inst, rc) returned, by the name
    of its fairrange.pipeline global, up to and including `last`.

    The stage globals are wrapped inside MonkeyPatch.context(), so module
    fixtures can call this too.  Fails when the solve ends without calling
    `last`.
    """
    assert last in PIPELINE_STAGES, last
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in PIPELINE_STAGES:
            def record(*args, _name=name, _stage=getattr(fairrange.pipeline, name), **kw):
                out[_name] = _stage(*args, **kw)
                if _name == last:
                    raise _LastStage
                return out[_name]
            mp.setattr(fairrange.pipeline, name, record)
        try:
            fairrange.pipeline.solve_fair_range(inst, rc)
        except _LastStage:
            return out
    raise AssertionError(f"the solve ended without calling {last}")


def enumerate_optimum(inst, rc):
    """Independent brute-force oracle used to cross-check solver output.

    Walks all k-subsets of facilities in lexicographic order and keeps the
    first minimizer among range-feasible subsets, a cost within a relative
    1e-12 of the best counting as a tie.
    """
    best = None
    best_set = None
    clients = inst.client_ids
    w = np.array([inst.client_demands[c] for c in clients], dtype=float)
    dmat = submatrix(inst, clients, inst.facility_ids) ** inst.p
    fidx = {f: i for i, f in enumerate(inst.facility_ids)}
    for combo in itertools.combinations(inst.facility_ids, rc.k):
        counts = [0] * rc.num_groups
        ok = True
        for c in combo:
            g = inst.group_label.get(c)
            if g is None or g > rc.num_groups:
                ok = False
                break
            counts[g - 1] += 1
        if not ok:
            continue
        if any(not (a <= t <= b) for t, (a, b) in zip(counts, rc.ranges)):
            continue
        cols = [fidx[c] for c in combo]
        cost = float(w @ dmat[:, cols].min(axis=1))
        if best is None or cost < best * (1.0 - 1e-12):
            best = cost
            best_set = combo
    return best, best_set


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
