"""Command line front end: instance files, solving, generation, benchmarks.

The instance document is a line-oriented text format built for diffable
golden files.  Scalars sit on `key: value` lines; the block sections
`points`, `matrix`, `facilities`, and `clients` hold one indented record
per line.  Exactly one of coordinates (on the points records) or an
explicit matrix (lower-triangle rows or full rows, one form throughout)
describes the geometry.  A document holds it as a read-only array, and an
instance built from a matrix document reads that array without a copy.
Floats are written with 17 significant digits, so a parse of a serialized
document reproduces it bit for bit.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (CostRangeError, FairRangeError, InfeasibleRangesError,
                     PowerRangeError)
from .instance import (MetricInstance, RangeConstraints, check_power,
                       instance_from_coords, validate_instance)
from .pipeline import (ORACLE_BUDGET, approximation_study,
                       brute_force_optimum, generate_figure1_instance,
                       random_instance, random_ranges, report_to_text,
                       solve_fair_range)

FORMAT_VERSION = 1
G = "%.17g"
CSV_HEADER = "n,k,l,p,seed,solver_cost,oracle_cost,ratio,certificates_passed,wall_ms"


@dataclass(frozen=True, eq=False)
class InstanceDocument:
    format_version: int
    point_ids: tuple[str, ...]
    coords: np.ndarray | None        # n x dim, read-only
    matrix: np.ndarray | None        # n x n, symmetric, read-only
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
        for name in ("coords", "matrix"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _read_only(getattr(self, name)))
        for name in ("facilities", "clients"):
            for pid, count in Counter(pid for pid, _ in getattr(self, name)).most_common(1):
                if count > 1:
                    raise ValueError(f"{name} lists {pid!r} more than once")

    def __eq__(self, other):
        """Field by field; the geometry arrays compare by value."""
        if not isinstance(other, InstanceDocument):
            return NotImplemented
        pairs = ((f.name, getattr(self, f.name), getattr(other, f.name))
                 for f in dataclasses.fields(self))
        return all(np.array_equal(a, b) if name in ("coords", "matrix") else a == b
                   for name, a, b in pairs)


def _read_only(a) -> np.ndarray:
    """a as a read-only float64 array: one that already is one is kept,
    anything else is copied once."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
        a = np.array(a, dtype=float)
        a.setflags(write=False)
    return a


def serialize_document(doc: InstanceDocument) -> str:
    lines = [f"fair-range instance v{doc.format_version}",
             "p: " + G % doc.p,
             f"k: {doc.k}",
             "ranges: " + ",".join(f"{a}:{b}" for a, b in doc.ranges),
             "points:"]
    if doc.coords is not None:
        for pid, row in zip(doc.point_ids, doc.coords.tolist()):
            lines.append("  " + pid + " " + " ".join(G % c for c in row))
    else:
        lines.extend("  " + pid for pid in doc.point_ids)
        lines.append("matrix:")
        for i, row in enumerate(doc.matrix):
            lines.append("  " + " ".join(G % v for v in row[:i + 1].tolist()))
    lines.append("facilities:")
    lines.extend(f"  {pid} {g}" for pid, g in doc.facilities)
    lines.append("clients:")
    lines.extend(f"  {pid} {w}" for pid, w in doc.clients)
    return "\n".join(lines) + "\n"


def parse_document(text: str) -> InstanceDocument:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("fair-range instance v"):
        raise ValueError("not a fair-range instance document")
    version = _parse_field("version", lines[0].rsplit("v", 1)[1], "an integer", int)
    if version != FORMAT_VERSION:
        raise ValueError(f"version {version} is not supported; "
                         f"v{FORMAT_VERSION} is the only format")
    scalars: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("  ") and current is not None:
            current.append(line)        # records are split on whitespace
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
    ids, coords = [], []
    for rec in sections["points"]:
        pid, *xs = rec.split()
        ids.append(pid)
        coords.append([float(v) for v in xs])
    has_coords = any(coords)
    if has_coords and not all(len(c) == len(coords[0]) and c for c in coords):
        raise ValueError("inconsistent coordinate dimensions")
    matrix = None
    if "matrix" in sections:
        if has_coords:
            raise ValueError("both coordinates and matrix present")
        matrix = _parse_matrix(sections["matrix"], len(ids))
    elif not has_coords:
        raise ValueError("points carry no coordinates and no matrix given")
    facilities, clients = (tuple(_id_and_count(name, rec) for rec in sections[name])
                           for name in ("facilities", "clients"))
    return InstanceDocument(
        FORMAT_VERSION, tuple(ids), coords if has_coords else None, matrix,
        facilities, clients, _parse_field("p", scalars["p"], "a number", float),
        _parse_field("k", scalars["k"], "an integer", int),
        _parse_ranges(scalars["ranges"]))


def _parse_field(name: str, text: str, what: str, parse):
    """parse(text), or a ValueError that quotes text under name."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{name} {text!r} is not {what}") from None


def _colon_ints(count: int):
    """A parser of count integers written a:b:..."""
    def parse(text: str) -> tuple[int, ...]:
        parts = text.split(":")
        if len(parts) != count:
            raise ValueError(text)
        return tuple(map(int, parts))
    return parse


def _parse_matrix(rows: list[str], n: int) -> np.ndarray:
    """The read-only n x n matrix of n lower-triangle rows (row i holds
    i + 1 entries, mirrored above the diagonal) or n full rows, filled row
    by row.  Row 0 sets the form; a row of the other form is refused."""
    if len(rows) != n:
        raise ValueError("matrix row count does not match points")
    full = np.zeros((n, n))
    whole = n > 1 and len(rows[0].split()) == n
    for i, rec in enumerate(rows):
        parts = rec.split()
        width = n if whole else i + 1
        if len(parts) != width:
            raise ValueError(f"matrix row {i} has {len(parts)} entries; "
                             f"{'full' if whole else 'lower-triangle'} rows need {width}")
        full[i, :width] = list(map(float, parts))
        if not whole:
            full[:width, i] = full[i, :width]
    full.setflags(write=False)
    return full


def _id_and_count(section: str, rec: str) -> tuple[str, int]:
    """A facilities record (id, group) or a clients record (id, demand)."""
    parts = rec.split()
    if len(parts) != 2:
        raise ValueError(f"{section} record {rec.strip()!r} needs an id and an integer")
    return parts[0], int(parts[1])


def _parse_ranges(text: str) -> tuple[tuple[int, int], ...]:
    """Ranges written lo:hi,lo:hi,... (no ranges when text is empty); a
    part that is not two integers around one colon is refused by quote."""
    return tuple(_parse_field("range", part, "lo:hi", _colon_ints(2))
                 for part in (text.split(",") if text else ()))


def document_to_instance(doc: InstanceDocument) -> tuple[MetricInstance, RangeConstraints]:
    group_label = dict(doc.facilities)
    demands = dict(doc.clients)
    fac_ids = tuple(pid for pid, _ in doc.facilities)
    if doc.coords is not None:
        inst = instance_from_coords(doc.point_ids, doc.coords,
                                    fac_ids, group_label, demands, doc.p)
    else:       # the instance reads the document's read-only matrix, uncopied
        inst = MetricInstance(doc.point_ids, doc.matrix,
                              fac_ids, group_label, demands, doc.p)
    return inst, RangeConstraints(doc.k, doc.ranges)


def document_from_instance(inst: MetricInstance, rc: RangeConstraints) -> InstanceDocument:
    matrix = inst.dist if inst.coords is None else None
    facilities = tuple((u, inst.group_label[u]) for u in inst.facility_ids)
    clients = tuple((c, inst.client_demands[c]) for c in inst.client_ids)
    return InstanceDocument(FORMAT_VERSION, inst.point_ids, inst.coords, matrix,
                            facilities, clients, inst.p, rc.k, rc.ranges)


def _write(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    if args.p is not None:
        try:
            check_power(args.p)
        except ValueError as exc:
            print(f"invalid parameters: {exc}", file=sys.stderr)
            return 1
        # the instance is built once, at the flag's p: a coordinate instance
        # keeps the mirrored mark that a copy with a new p would lose
        doc = dataclasses.replace(doc, p=args.p)
    try:
        inst, rc = document_to_instance(doc)
        report_v = validate_instance(inst)
        if not report_v.ok and not args.allow_nonmetric:
            for v in report_v.violations[:5]:
                print(f"validation: {v}", file=sys.stderr)
            return 1
    except (ValueError, KeyError) as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 1
    try:
        if args.k is not None or args.ranges is not None:
            rc = RangeConstraints(
                args.k if args.k is not None else rc.k,
                _parse_ranges(args.ranges) if args.ranges is not None else rc.ranges)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 1
    try:
        report = solve_fair_range(inst, rc)
    except InfeasibleRangesError as exc:
        print(f"infeasible ranges: {exc}", file=sys.stderr)
        return 2
    except CostRangeError as exc:
        # only p is a solve parameter; the other refusals name a distance or a demand
        at_fault = "parameters" if isinstance(exc, PowerRangeError) else "instance"
        print(f"invalid {at_fault}: {exc}", file=sys.stderr)
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
    _write(text, args.out)
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
    _write(text, args.out)
    return 0


def cmd_bench(args) -> int:
    try:
        grid = [_parse_field("grid cell", cell, "n:k:l", _colon_ints(3))
                for cell in args.grid.split(",")]
        p_values = [_parse_field("p", v, "a number", float) for v in args.p.split(",")]
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
    _write(text, args.out)
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
