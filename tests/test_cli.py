import numpy as np
import pytest

import fairrange.cli
from fairrange.cli import (CSV_HEADER, InstanceDocument, document_from_instance,
                           document_to_instance, main, parse_document,
                           serialize_document)
from fairrange.instance import RangeConstraints
from fairrange.pipeline import generate_figure1_instance, random_instance

from conftest import line_instance, matrix_instance


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
        assert doc.matrix == ((0.0, 2.0), (2.0, 0.0))

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
            InstanceDocument(1, ("a", "b"), ((0.0,), (1.0,)),
                             ((0.0, 1.0), (1.0, 0.0)),
                             (("a", 1),), (("b", 1),), 1.0, 1, ((1, 1),))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a fair-range"):
            parse_document("hello\n")
        with pytest.raises(ValueError, match="missing k"):
            parse_document("fair-range instance v1\np: 1\n")


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
        bad = InstanceDocument(doc.format_version, doc.point_ids, doc.coords,
                               doc.matrix, doc.facilities, doc.clients,
                               doc.p, 2, ((2, 2), (2, 2)))
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

    def test_oracle_flag_appends_ratio(self, tmp_path, capsys):
        assert main(["solve", self.write(tmp_path, tiny_document()),
                     "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle-cost-p:" in out
        ratio = float(out.splitlines()[-1].split(": ")[1])
        assert ratio >= 1.0 - 1e-9

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

    def test_unranged_facility_group_exit_one(self, tmp_path, capsys):
        doc = tiny_document()
        unranged = InstanceDocument(doc.format_version, doc.point_ids,
                                    doc.coords, doc.matrix, doc.facilities,
                                    doc.clients, doc.p, 2, ((0, 2),))
        assert main(["solve", self.write(tmp_path, unranged)]) == 1
        err = capsys.readouterr().err
        assert "group 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_non_finite_p_rejected(self, tmp_path, capsys, p):
        assert main(["solve", self.write(tmp_path, tiny_document()), "--p", p]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid instance: p must be finite") and "Traceback" not in err

    def test_overflowing_p_exit_one(self, tmp_path, capsys):
        assert main(["solve", self.write(tmp_path, tiny_document()), "--p", "1000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters: p=1000 puts total weight")
        assert "accepts p up to" in err and "Traceback" not in err

    def test_tol_override_zero_is_kept(self, tmp_path, monkeypatch):
        seen = []
        real = fairrange.cli.solve_fair_range

        def spy(inst, rc, cfg):
            seen.append(cfg.rel_tol)
            return real(inst, rc, cfg)

        monkeypatch.setattr(fairrange.cli, "solve_fair_range", spy)
        path = self.write(tmp_path, tiny_document())
        assert main(["solve", path, "--tol-override", "0"]) == 0
        assert main(["solve", path]) == 0
        assert seen == [0.0, 1e-6]

    def test_tol_override_negative_rejected(self, tmp_path, capsys):
        path = self.write(tmp_path, tiny_document())
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--tol-override", "-0.5"])
        assert exc.value.code == 2
        assert "not a number >= 0" in capsys.readouterr().err


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
