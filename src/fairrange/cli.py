"""Command line front end: instance files, solving, generation, benchmarks.

The instance document is a line-oriented text format built for diffable
golden files.  Scalars sit on `key: value` lines; the block sections
`points`, `matrix`, `facilities`, and `clients` hold one indented record
per line.  Exactly one of coordinates (on the points records) or an
explicit matrix (lower triangle or full rows) describes the geometry.
Floats are written with 17 significant digits, so a parse of a serialized
document reproduces it bit for bit.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CostRangeError, FairRangeError, InfeasibleRangesError
from .instance import (MetricInstance, RangeConstraints, instance_from_coords,
                       validate_instance)
from .pipeline import (ORACLE_BUDGET, SolverConfig, approximation_study,
                       brute_force_optimum, generate_figure1_instance,
                       random_instance, random_ranges, report_to_text,
                       solve_fair_range)

FORMAT_VERSION = 1
G = "%.17g"
CSV_HEADER = "n,k,l,p,seed,solver_cost,oracle_cost,ratio,certificates_passed,wall_ms"


@dataclass(frozen=True)
class InstanceDocument:
    format_version: int
    point_ids: tuple[str, ...]
    coords: tuple[tuple[float, ...], ...] | None
    matrix: tuple[tuple[float, ...], ...] | None      # full square, symmetric
    facilities: tuple[tuple[str, int], ...]           # (id, group)
    clients: tuple[tuple[str, int], ...]              # (id, demand)
    p: float
    k: int
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if (self.coords is None) == (self.matrix is None):
            raise ValueError("exactly one of coordinates or matrix required")
        if len(set(self.point_ids)) != len(self.point_ids):
            raise ValueError("duplicate point ids")


def serialize_document(doc: InstanceDocument) -> str:
    lines = [f"fair-range instance v{doc.format_version}",
             "p: " + G % doc.p,
             f"k: {doc.k}",
             "ranges: " + ",".join(f"{a}:{b}" for a, b in doc.ranges),
             "points:"]
    if doc.coords is not None:
        for pid, row in zip(doc.point_ids, doc.coords):
            lines.append("  " + pid + " " + " ".join(G % c for c in row))
    else:
        lines.extend("  " + pid for pid in doc.point_ids)
        lines.append("matrix:")
        for i in range(len(doc.point_ids)):
            lines.append("  " + " ".join(G % doc.matrix[i][j]
                                         for j in range(i + 1)))
    lines.append("facilities:")
    lines.extend(f"  {pid} {g}" for pid, g in doc.facilities)
    lines.append("clients:")
    lines.extend(f"  {pid} {w}" for pid, w in doc.clients)
    return "\n".join(lines) + "\n"


def parse_document(text: str) -> InstanceDocument:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("fair-range instance v"):
        raise ValueError("not a fair-range instance document")
    version = int(lines[0].rsplit("v", 1)[1])
    scalars: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("  ") and current is not None:
            current.append(line.strip())
        elif line.endswith(":"):
            current = sections.setdefault(line[:-1], [])
        elif ": " in line:
            key, value = line.split(": ", 1)
            scalars[key] = value
            current = None
        else:
            raise ValueError(f"unparseable line {line!r}")
    for key in ("p", "k", "ranges"):
        if key not in scalars:
            raise ValueError(f"missing {key}")
    for key in ("points", "facilities", "clients"):
        if key not in sections:
            raise ValueError(f"missing {key} section")
    ranges = tuple(tuple(int(v) for v in part.split(":"))
                   for part in scalars["ranges"].split(",") if part)
    ids, coords = [], []
    for rec in sections["points"]:
        parts = rec.split()
        ids.append(parts[0])
        coords.append(tuple(float(v) for v in parts[1:]))
    has_coords = any(coords)
    if has_coords and not all(len(c) == len(coords[0]) and c for c in coords):
        raise ValueError("inconsistent coordinate dimensions")
    matrix = None
    if "matrix" in sections:
        if has_coords:
            raise ValueError("both coordinates and matrix present")
        n = len(ids)
        rows = [[float(v) for v in rec.split()] for rec in sections["matrix"]]
        if len(rows) != n:
            raise ValueError("matrix row count does not match points")
        full = np.zeros((n, n))
        for i, row in enumerate(rows):
            if len(row) == i + 1:              # lower triangle
                full[i, :i + 1] = row
                full[:i + 1, i] = row
            elif len(row) == n:
                full[i] = row
            else:
                raise ValueError(f"matrix row {i} has {len(row)} entries")
        matrix = tuple(tuple(float(v) for v in full[i]) for i in range(n))
    elif not has_coords:
        raise ValueError("points carry no coordinates and no matrix given")
    facilities = tuple((rec.split()[0], int(rec.split()[1]))
                       for rec in sections["facilities"])
    clients = tuple((rec.split()[0], int(rec.split()[1]))
                    for rec in sections["clients"])
    return InstanceDocument(
        version, tuple(ids),
        tuple(coords) if has_coords else None, matrix,
        facilities, clients, float(scalars["p"]), int(scalars["k"]), ranges)


def document_to_instance(doc: InstanceDocument) -> tuple[MetricInstance, RangeConstraints]:
    group_label = dict(doc.facilities)
    demands = dict(doc.clients)
    fac_ids = tuple(pid for pid, _ in doc.facilities)
    if doc.coords is not None:
        inst = instance_from_coords(doc.point_ids, np.asarray(doc.coords),
                                    fac_ids, group_label, demands, doc.p)
    else:
        inst = MetricInstance(doc.point_ids, np.asarray(doc.matrix),
                              fac_ids, group_label, demands, doc.p)
    return inst, RangeConstraints(doc.k, doc.ranges)


def document_from_instance(inst: MetricInstance, rc: RangeConstraints) -> InstanceDocument:
    coords = None
    matrix = None
    if inst.coords is not None:
        coords = tuple(tuple(float(v) for v in row) for row in inst.coords)
    else:
        matrix = tuple(tuple(float(v) for v in row) for row in inst.dist)
    facilities = tuple((u, inst.group_label[u]) for u in inst.facility_ids)
    clients = tuple((c, inst.client_demands[c]) for c in inst.client_ids)
    return InstanceDocument(FORMAT_VERSION, inst.point_ids, coords, matrix,
                            facilities, clients, inst.p, rc.k, rc.ranges)


def _parse_ranges(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for part in text.split(","):
        a, b = part.split(":")
        out.append((int(a), int(b)))
    return tuple(out)


def _nonnegative_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number >= 0")
    return value


def cmd_solve(args) -> int:
    try:
        with open(args.path) as fh:
            doc = parse_document(fh.read())
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bad instance document: {exc}", file=sys.stderr)
        return 1
    try:
        inst, rc = document_to_instance(doc)
        if args.p is not None or args.k is not None or args.ranges is not None:
            p = args.p if args.p is not None else inst.p
            inst = MetricInstance(inst.point_ids, inst.dist.copy(),
                                  inst.facility_ids, inst.group_label,
                                  inst.client_demands, p, coords=inst.coords)
            rc = RangeConstraints(
                args.k if args.k is not None else rc.k,
                _parse_ranges(args.ranges) if args.ranges is not None else rc.ranges)
        report_v = validate_instance(inst)
        if not report_v.ok and not args.allow_nonmetric:
            for v in report_v.violations[:5]:
                print(f"validation: {v}", file=sys.stderr)
            return 1
    except (ValueError, KeyError) as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 1
    cfg = SolverConfig(rel_tol=SolverConfig.rel_tol if args.tol_override is None
                       else args.tol_override)
    try:
        report = solve_fair_range(inst, rc, cfg)
    except InfeasibleRangesError as exc:
        print(f"infeasible ranges: {exc}", file=sys.stderr)
        return 2
    except CostRangeError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 1
    text = report_to_text(report)
    if args.oracle:
        nF = len(inst.facility_ids)
        if math.comb(nF, rc.k) <= ORACLE_BUDGET:
            oracle_p, _ = brute_force_optimum(inst, rc)
            ratio = ((report.centers.cost_p / oracle_p) ** (1.0 / inst.p)
                     if oracle_p > 0 else 1.0)
            text += ("oracle-cost-p: " + G % oracle_p + "\n"
                     + "ratio: " + G % ratio + "\n")
        else:
            print("oracle skipped: subset count above budget", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_generate(args) -> int:
    try:
        if args.kind == "figure1":
            inst = generate_figure1_instance(
                args.k, args.n, args.m, args.M, p=args.p,
                clients=args.clients, allow_nonmetric=args.allow_nonmetric)
            third = args.k // 3
            rc = RangeConstraints(args.k, ((third, 2 * third),) * 2)
        else:
            inst = random_instance(args.seed, args.n, args.ell, args.p)
            rc = random_ranges(args.seed, inst, args.k, args.ell)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 1
    text = serialize_document(document_from_instance(inst, rc))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    try:
        grid = []
        for cell in args.grid.split(","):
            n, k, ell = (int(v) for v in cell.split(":"))
            grid.append((n, k, ell))
        p_values = [float(v) for v in args.p.split(",")]
        rows, _ = approximation_study(range(args.seeds), grid, p_values)
    except ValueError as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 1
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.n), str(r.k), str(r.ell), G % r.p, str(r.seed),
            G % r.solver_cost, G % r.oracle_cost, G % r.ratio,
            "1" if r.certificates_passed else "0", "%.3f" % r.wall_ms]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fairrange",
        description="Fair range clustering solver with certified rounding")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve an instance file")
    sp.add_argument("path")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--ranges", type=str, default=None,
                    help="a1:b1,a2:b2,... overriding the document")
    sp.add_argument("--oracle", action="store_true",
                    help="also run the exact oracle when within budget")
    sp.add_argument("--allow-nonmetric", action="store_true")
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--tol-override", type=_nonnegative_float, default=None,
                    help="relative certificate tolerance (>= 0)")
    sp.set_defaults(func=cmd_solve)

    gp = sub.add_parser("generate", help="write an instance document")
    gp.add_argument("kind", choices=("figure1", "random"))
    gp.add_argument("--n", type=int, default=24)
    gp.add_argument("--k", type=int, default=6)
    gp.add_argument("--ell", type=int, default=2)
    gp.add_argument("--p", type=float, default=1.0)
    gp.add_argument("--m", type=float, default=1.0)
    gp.add_argument("--M", type=float, default=2.0)
    gp.add_argument("--clients", choices=("all", "blue"), default="all")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--allow-nonmetric", action="store_true")
    gp.add_argument("--out", type=str, default=None)
    gp.set_defaults(func=cmd_generate)

    bp = sub.add_parser("bench", help="solver-versus-oracle CSV")
    bp.add_argument("--grid", type=str, required=True,
                    help="cells n:k:l separated by commas")
    bp.add_argument("--p", type=str, default="1")
    bp.add_argument("--seeds", type=int, default=5)
    bp.add_argument("--out", type=str, default=None)
    bp.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FairRangeError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
