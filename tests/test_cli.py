import dataclasses

import numpy as np
import pytest

import fairrange.cli
import fairrange.pipeline
from fairrange.cli import (CSV_HEADER, InstanceDocument, document_from_instance,
                           document_to_instance, main, parse_document,
                           serialize_document)
from fairrange.instance import RangeConstraints
from fairrange.pipeline import (generate_figure1_instance, random_instance, random_ranges,
                                solve_fair_range)

from conftest import line_instance, matrix_instance, with_distance


def roundtrip(doc):
    return parse_document(serialize_document(doc))


def tiny_document():
    inst = line_instance([0.0, 1.0, 5.0, 6.0],
                         group_label={0: 1, 1: 1, 2: 2, 3: 2})
    return document_from_instance(inst, RangeConstraints(2, ((1, 1), (1, 1))))


class TestDocumentRoundTrip:
    def test_coordinate_document(self):
        inst = random_instance(3, 10, 2, 2.0)
        doc = document_from_instance(inst, RangeConstraints(3, ((1, 2), (1, 2))))
        assert doc.coords is not None and doc.matrix is None
        assert roundtrip(doc) == doc

    def test_matrix_document(self):
        inst = generate_figure1_instance(6, 24, 1.0, 2.0)
        doc = document_from_instance(inst, RangeConstraints(6, ((2, 4), (2, 4))))
        assert doc.matrix is not None and doc.coords is None
        assert roundtrip(doc) == doc

    def test_awkward_floats_survive(self):
        inst = line_instance([0.0, 1.0 / 3.0, np.pi, 2.0 ** 0.5], p=1.5)
        doc = document_from_instance(inst, RangeConstraints(1, ((1, 1),)))
        assert roundtrip(doc) == doc

    def test_full_matrix_rows_accepted(self):
        inst = matrix_instance(["a", "b"], [[0.0, 2.0], [2.0, 0.0]],
                               ["a", "b"], {"a": 1, "b": 1}, {"a": 1}, 1.0)
        text = serialize_document(
            document_from_instance(inst, RangeConstraints(1, ((1, 1),))))
        # rewrite the triangle rows as full rows; the parser takes both
        full = text.replace("matrix:\n  0\n  2 0\n", "matrix:\n  0 2\n  2 0\n")
        assert full != text
        doc = parse_document(full)
        assert doc.matrix.tolist() == [[0.0, 2.0], [2.0, 0.0]]

    def test_instance_reconstruction(self):
        inst = random_instance(9, 8, 3, 2.0)
        rc = RangeConstraints(3, ((0, 2), (0, 2), (0, 2)))
        back, rc2 = document_to_instance(roundtrip(document_from_instance(inst, rc)))
        assert back.point_ids == inst.point_ids
        assert back.group_label == inst.group_label
        assert back.client_demands == inst.client_demands
        assert rc2 == rc
        np.testing.assert_allclose(back.dist, inst.dist, rtol=0, atol=0)

    def test_rejects_coords_and_matrix_together(self):
        with pytest.raises(ValueError, match="exactly one"):
            InstanceDocument(("a", "b"), ((0.0,), (1.0,)),
                             ((0.0, 1.0), (1.0, 0.0)),
                             (("a", 1),), (("b", 1),), 1.0, 1, ((1, 1),))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a fair-range"):
            parse_document("hello\n")
        with pytest.raises(ValueError, match="missing k"):
            parse_document("fair-range instance v1\np: 1\n")


class TestOneCopy:
    def test_matrix_is_shared_from_document_to_instance_and_back(self):
        # the document held 4 million Python floats at n=2000 beside the
        # instance's array, and writing it back out rebuilt them
        inst = generate_figure1_instance(6, 24, 1.0, 2.0)
        rc = RangeConstraints(6, ((2, 4), (2, 4)))
        doc = roundtrip(document_from_instance(inst, rc))
        back, _ = document_to_instance(doc)
        again = document_from_instance(back, rc)
        assert np.shares_memory(back.dist, doc.matrix)
        assert np.shares_memory(again.matrix, back.dist)
        for a in (doc.matrix, back.dist, again.matrix):
            assert not a.flags.writeable
        assert again == doc

    def test_coordinates_are_shared_with_the_instance(self):
        inst = random_instance(3, 10, 2, 2.0)
        doc = document_from_instance(inst, RangeConstraints(3, ((1, 2), (1, 2))))
        assert np.shares_memory(doc.coords, inst.coords)
        assert not doc.coords.flags.writeable

    def test_nested_tuples_are_converted_once(self):
        doc = InstanceDocument(("a", "b"), None, ((0.0, 1.0), (1.0, 0.0)),
                               (("a", 1),), (("b", 1),), 1.0, 1, ((1, 1),))
        assert doc.matrix.dtype == np.float64 and not doc.matrix.flags.writeable
        assert dataclasses.replace(doc, matrix=doc.matrix).matrix is doc.matrix
        assert roundtrip(doc) == doc
        assert roundtrip(doc) != dataclasses.replace(doc, matrix=((0.0, 2.0), (2.0, 0.0)))
        assert doc != dataclasses.replace(doc, matrix=None, coords=((0.0,), (1.0,)))


class TestSolveCommand:
    def write(self, tmp_path, doc, name="inst.txt"):
        path = tmp_path / name
        path.write_text(serialize_document(doc))
        return str(path)

    def test_valid_instance_exit_zero(self, tmp_path, capsys):
        assert main(["solve", self.write(tmp_path, tiny_document())]) == 0
        out = capsys.readouterr().out
        centers = out.splitlines()[1].split(": ")[1].split()
        assert len(centers) == 2
        assert set(centers) == {"p0", "p2"} or set(centers) == {"p1", "p3"} \
            or len({c[1] for c in centers}) == 2

    def test_infeasible_ranges_exit_two(self, tmp_path, capsys):
        doc = tiny_document()
        bad = InstanceDocument(doc.point_ids, doc.coords, doc.matrix,
                               doc.facilities, doc.clients, doc.p, 2, ((2, 2), (2, 2)))
        assert main(["solve", self.write(tmp_path, bad)]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.txt")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_nonmetric_matrix_needs_flag(self, tmp_path, capsys):
        inst = matrix_instance(["a", "b", "c"],
                               [[0, 1, 9], [1, 0, 1], [9, 1, 0]],
                               ["a", "b", "c"], {"a": 1, "b": 1, "c": 1},
                               {"a": 1, "b": 1, "c": 1}, 1.0)
        path = self.write(tmp_path,
                          document_from_instance(inst, RangeConstraints(1, ((1, 1),))))
        assert main(["solve", path]) == 1
        assert "triangle" in capsys.readouterr().err
        assert main(["solve", path, "--allow-nonmetric"]) == 0

    def test_oracle_flag_appends_ratio(self, tmp_path, capsys, monkeypatch):
        path = self.write(tmp_path, tiny_document())
        assert main(["solve", path, "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle-cost-p:" in out
        ratio = float(out.splitlines()[-1].split(": ")[1])
        assert ratio >= 1.0 - 1e-9
        # past the budget the report is printed alone, with the oracle's refusal
        monkeypatch.setattr(fairrange.pipeline, "ORACLE_BUDGET", 5)
        assert main(["solve", path, "--oracle"]) == 0
        captured = capsys.readouterr()
        assert "oracle-cost-p:" not in captured.out
        assert captured.err == "oracle skipped: C(4, 2) subsets exceed the oracle budget\n"

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["solve", self.write(tmp_path, tiny_document()),
                     "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("fair-range solve report")

    def test_overrides_replace_document_fields(self, tmp_path, capsys):
        path = self.write(tmp_path, tiny_document())
        assert main(["solve", path, "--k", "3", "--ranges", "1:2,1:2",
                     "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()[1].split(": ")[1].split()) == 3

    def test_p_flag_builds_a_mirrored_instance(self, tmp_path, capsys, monkeypatch):
        # a copy of the built instance with the flag's p lost the mark that
        # lets stage 1 read a coordinate instance along its rows
        inst = random_instance(0, 10, 2, 1.0)
        doc = document_from_instance(inst, random_ranges(0, inst, 3, 2))
        solved = []

        def solve(inst, rc):
            solved.append(inst)
            return solve_fair_range(inst, rc)

        monkeypatch.setattr(fairrange.cli, "solve_fair_range", solve)
        reports = []
        for d, flag in ((doc, ["--p", "2"]), (dataclasses.replace(doc, p=2.0), [])):
            assert main(["solve", self.write(tmp_path, d), *flag]) == 0
            reports.append(capsys.readouterr().out.split("timings-ms:")[0])
        assert [(i.p, i.mirrored) for i in solved] == [(2.0, True)] * 2
        assert reports[0] == reports[1]

    def test_unranged_facility_group_exit_one(self, tmp_path, capsys):
        doc = tiny_document()
        unranged = InstanceDocument(doc.point_ids, doc.coords, doc.matrix,
                                    doc.facilities, doc.clients, doc.p, 2, ((0, 2),))
        assert main(["solve", self.write(tmp_path, unranged)]) == 1
        err = capsys.readouterr().err
        assert "group 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("p", ["nan", "inf", "0.5"])
    def test_non_finite_p_rejected(self, tmp_path, capsys, p):
        # p came from the flag, so the parameters are at fault
        assert main(["solve", self.write(tmp_path, tiny_document()), "--p", p]) == 1
        err = capsys.readouterr().err
        assert err == f"invalid parameters: p must be finite and at least 1, got {float(p)}\n"

    def test_bad_k_flag_is_a_parameter_fault(self, tmp_path, capsys):
        assert main(["solve", self.write(tmp_path, tiny_document()), "--k", "0"]) == 1
        assert capsys.readouterr().err == "invalid parameters: k must be positive\n"

    @pytest.mark.parametrize("clients", ["zero", "none"])
    def test_no_positive_demand_prints_a_report(self, tmp_path, capsys, clients):
        # zero demands and an empty client list fail validation, but with
        # the flag they are solved, at cost 0
        doc = tiny_document()
        doc = dataclasses.replace(doc, clients=tuple((c, 0) for c, _ in doc.clients)
                                  if clients == "zero" else ())
        path = self.write(tmp_path, doc)
        assert main(["solve", path]) == 1
        assert capsys.readouterr().err.startswith("validation: ")
        assert main(["solve", path, "--allow-nonmetric"]) == 0
        out = capsys.readouterr().out
        assert "cost-p: 0\n" in out and out.count(" PASS") == 6
        assert len(out.splitlines()[1].split(": ")[1].split()) == 2

    def test_overflowing_p_exit_one(self, tmp_path, capsys):
        assert main(["solve", self.write(tmp_path, tiny_document()), "--p", "1000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters: p=1000 puts total weight")
        assert "accepts p up to" in err and "Traceback" not in err

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_negative_distance_exit_one(self, tmp_path, capsys, p):
        inst = with_distance(random_instance(3, 8, 2, p), "p000", "p001", -1.0)
        path = self.write(tmp_path,
                          document_from_instance(inst, random_ranges(3, inst, 3, 2)))
        assert main(["solve", path]) == 1
        assert "negativity" in capsys.readouterr().err
        assert main(["solve", path, "--allow-nonmetric"]) == 1
        err = capsys.readouterr().err
        assert err == "invalid instance: distance d(p000, p001) = -1 is negative\n"

    def test_nan_distance_exit_one(self, tmp_path, capsys):
        # this read "p=1 puts total weight * d_max^p at nan, above 1e+300"
        inst = with_distance(random_instance(0, 8, 2, 1.0), "p000", "p001", float("nan"))
        path = self.write(tmp_path,
                          document_from_instance(inst, random_ranges(0, inst, 3, 2)))
        assert main(["solve", path, "--allow-nonmetric"]) == 1
        err = capsys.readouterr().err
        assert err == "invalid instance: distance d(p000, p001) = nan is not a number\n"

    def test_infinite_distance_exit_one(self, tmp_path, capsys):
        # this read "p=1 puts total weight * d_max^p at inf, above 1e+300"
        inst = with_distance(random_instance(0, 8, 2, 1.0), "p000", "p001", float("inf"))
        path = self.write(tmp_path,
                          document_from_instance(inst, random_ranges(0, inst, 3, 2)))
        assert main(["solve", path, "--allow-nonmetric"]) == 1
        err = capsys.readouterr().err
        assert err == "invalid instance: distance d(p000, p001) = inf is not finite\n"

    @pytest.mark.parametrize("section", ["facilities", "clients"])
    @pytest.mark.parametrize("record", ["p1", "p1 1 2"])
    def test_record_without_two_fields_exit_one(self, tmp_path, capsys, section, record):
        # a one-field record raised IndexError out of the parser
        lines = serialize_document(tiny_document()).splitlines()
        at = lines.index(section + ":") + 2
        lines[at] = "  " + record
        path = tmp_path / "short.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"bad instance document: {section} record "
                                f"{record!r} needs an id and an integer\n")

    @pytest.mark.parametrize("section", ["facilities", "clients"])
    def test_repeated_record_exit_one(self, tmp_path, capsys, section):
        # a repeated record was accepted and the last one won: "p1 1" then
        # "p1 3" under clients solved with demand 3
        lines = serialize_document(tiny_document()).splitlines()
        at = lines.index(section + ":") + 2
        lines.insert(at + 1, "  p1 3")
        path = tmp_path / "repeated.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"{section} lists 'p1' more than once"):
            parse_document(path.read_text())
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad instance document: {section} lists 'p1' more than once\n"

    @pytest.mark.parametrize("ranges, part", [
        ("1:2,,0:2", ""), ("1:2:3", "1:2:3"), ("1", "1"), ("1:x", "1:x")])
    def test_malformed_range_part_quoted(self, tmp_path, capsys, ranges, part):
        # the document dropped an empty part while the flag refused it, and
        # "1:2:3" and "1" came out as unpacking errors ("too many values to
        # unpack (expected 2)") on either side
        text = serialize_document(tiny_document())
        bad = tmp_path / "ranges.txt"
        bad.write_text(text.replace("ranges: 1:1,1:1\n", f"ranges: {ranges}\n"))
        assert main(["solve", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad instance document: range {part!r} is not lo:hi\n"
        good = self.write(tmp_path, tiny_document())
        assert main(["solve", good, "--ranges", ranges]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid parameters: range {part!r} is not lo:hi\n"

    @pytest.mark.parametrize("rows, err", [
        (("0 5 7", "9 0", "7 4 0"), "matrix row 1 has 2 entries; full rows need 3"),
        (("0", "5 0 4", "7 4 0"), "matrix row 1 has 3 entries; lower-triangle rows need 2")])
    def test_mixed_matrix_rows_exit_one(self, tmp_path, capsys, rows, err):
        # the full row "0 5 7" for a and then the lower-triangle row "9 0"
        # for b set d(a,b) = 9, dropped the 5, and passed validation
        path = tmp_path / "mixed.txt"
        path.write_text("fair-range instance v1\np: 1\nk: 1\nranges: 1:1\npoints:\n"
                        "  a\n  b\n  c\nmatrix:\n" + "".join(f"  {r}\n" for r in rows)
                        + "facilities:\n  a 1\nclients:\n  b 1\n")
        assert main(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad instance document: {err}\n"

    def test_negative_demand_exit_one(self, tmp_path, capsys):
        # this printed a negative cost-p and exited 0
        doc = tiny_document()
        clients = tuple((c, -3 if c == "p1" else w) for c, w in doc.clients)
        path = self.write(tmp_path, dataclasses.replace(doc, clients=clients))
        assert main(["solve", path]) == 1
        assert "not a positive integer" in capsys.readouterr().err
        assert main(["solve", path, "--allow-nonmetric"]) == 1
        err = capsys.readouterr().err
        assert err == "invalid instance: demand of client p1 = -3 is negative\n"

    def test_demand_past_the_float_range_exit_one(self, tmp_path, capsys):
        # a demand of 10^400 raised OverflowError out of the instance and
        # printed a traceback
        doc = tiny_document()
        clients = tuple((c, 10**400 if c == "p1" else w) for c, w in doc.clients)
        path = self.write(tmp_path, dataclasses.replace(doc, clients=clients))
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err == "invalid instance: demand of client p1 is past the float range\n"

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_coordinate_exit_one(self, tmp_path, capsys, bad):
        # an infinite coordinate once warned "invalid value encountered in
        # subtract" and passed validation with inf distances
        inst = random_instance(3, 8, 2, 1.0)
        doc = document_from_instance(inst, random_ranges(3, inst, 3, 2))
        coords = doc.coords.copy()
        coords[0] = (float(bad), 0.0)
        path = self.write(tmp_path, dataclasses.replace(doc, coords=coords))
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err == f"invalid instance: point 'p000' has a non-finite coordinate: ({bad}, 0)\n"

    def test_nan_distance_named_by_validation(self, tmp_path, capsys):
        # this read "validation: symmetry: d(p000,p001) != transpose"
        inst = with_distance(random_instance(0, 8, 2, 1.0), "p000", "p001", float("nan"))
        path = self.write(tmp_path,
                          document_from_instance(inst, random_ranges(0, inst, 3, 2)))
        assert main(["solve", path]) == 1
        err = capsys.readouterr().err
        assert err == "validation: nan: d(p000,p001) is not a number\n"

    @pytest.mark.parametrize("old, new, err", [
        ("k: 2\n", "k: two\n", "k 'two' is not an integer"),
        ("p: 1\n", "p: one\n", "p 'one' is not a number"),
        ("instance v1\n", "instance v7\n", "version 7 is not supported; v1 is the only format"),
        ("instance v1\n", "instance vX\n", "version 'X' is not an integer")])
    def test_bad_scalar_named(self, tmp_path, capsys, old, new, err):
        # k and p were refused with bare int() and float() messages, and a
        # v7 header was read as v1
        text = serialize_document(tiny_document())
        assert old in text
        bad = tmp_path / "scalar.txt"
        bad.write_text(text.replace(old, new))
        assert main(["solve", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bad instance document: {err}\n"


class TestGenerateCommand:
    def test_figure1_document(self, tmp_path):
        target = tmp_path / "fig.txt"
        assert main(["generate", "figure1", "--out", str(target)]) == 0
        doc = parse_document(target.read_text())
        assert len(doc.point_ids) == 24
        assert doc.k == 6 and doc.ranges == ((2, 4), (2, 4))
        assert {g for _, g in doc.facilities} == {1, 2}
        inst, rc = document_to_instance(doc)
        assert inst.n == 24

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "random", "--n", "10", "--ell", "2",
                "--k", "3", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_metric_guard_exit_one(self, tmp_path, capsys):
        assert main(["generate", "figure1", "--M", "10", "--m", "1"]) == 1
        assert "triangle" in capsys.readouterr().err

    def test_metric_guard_override(self, tmp_path):
        target = tmp_path / "wide.txt"
        assert main(["generate", "figure1", "--M", "10", "--m", "1",
                     "--allow-nonmetric", "--out", str(target)]) == 0
        assert len(parse_document(target.read_text()).point_ids) == 24

    @pytest.mark.parametrize("kind", ["random", "figure1"])
    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_non_finite_p_rejected(self, capsys, kind, p):
        assert main(["generate", kind, "--p", p]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid parameters: p must be finite")

    def test_bad_parameters_exit_one(self, capsys):
        assert main(["generate", "figure1", "--k", "5"]) == 1
        assert "multiple of 6" in capsys.readouterr().err
        # k=0 and ell=0 divided by zero in the generators
        assert main(["generate", "figure1", "--k", "0"]) == 1
        assert capsys.readouterr().err.startswith("invalid parameters: k must be a positive")
        assert main(["generate", "random", "--ell", "0"]) == 1
        assert capsys.readouterr().err.startswith("invalid parameters: need at least one group")
        # n=0 and n=-24 split evenly, into no clusters or negative ones
        for n in ("0", "-24"):
            assert main(["generate", "figure1", "--n", n]) == 1
            assert capsys.readouterr().err.startswith(f"invalid parameters: n={n} must split")


class TestBenchCommand:
    def test_csv_shape_and_ratios(self, tmp_path):
        target = tmp_path / "bench.csv"
        assert main(["bench", "--grid", "8:2:2,9:3:2", "--p", "1,2",
                     "--seeds", "5", "--out", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 20
        for row in lines[1:]:
            parts = row.split(",")
            assert len(parts) == 10
            assert float(parts[7]) >= 1.0 - 1e-9
            assert parts[8] in ("0", "1")

    def test_rerun_identical_modulo_wall(self, tmp_path):
        # wall_ms is a measured duration; everything else must reproduce
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "--grid", "8:2:2", "--p", "1", "--seeds", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        trim = lambda text: [r.rsplit(",", 1)[0] for r in text.splitlines()]
        assert trim(a.read_text()) == trim(b.read_text())

    def test_budget_guard_exit_one(self, capsys):
        assert main(["bench", "--grid", "40:12:2", "--p", "1",
                     "--seeds", "1"]) == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("args, err", [
        (["--grid", "8:2"], "grid cell '8:2' is not n:k:l"),
        (["--grid", "8:2:x"], "grid cell '8:2:x' is not n:k:l"),
        (["--grid", "8:2:2,8:2:2:2"], "grid cell '8:2:2:2' is not n:k:l"),
        (["--grid", "8:2:2", "--p", "1,one"], "p 'one' is not a number")])
    def test_bad_argument_quoted(self, capsys, args, err):
        # these printed unpacking, int() and float() messages
        assert main(["bench", *args, "--seeds", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bench failed: {err}\n"

    def test_zero_groups_exit_one(self, capsys):
        # a cell with l=0 divided by zero in random_instance
        assert main(["bench", "--grid", "6:2:0", "--seeds", "1"]) == 1
        assert capsys.readouterr().err.startswith("bench failed: ")
