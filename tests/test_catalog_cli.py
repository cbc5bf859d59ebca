import json
import pathlib

import pytest

from fanoquotients import catalog
from fanoquotients.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
DATA = pathlib.Path(__file__).parent.parent / "src" / "fanoquotients" / "data"

SLUGS = {
    "trivial": "trivial", "I": "i", "II": "ii", "III(1)": "iii1", "III(2)": "iii2",
    "III(3)": "iii3", "III(4)": "iii4", "IV(1)": "iv1", "IV(2)": "iv2", "V": "v",
    "XI": "xi", "XV": "xv", "Z2xZ2": "z2xz2", "S3": "s3", "Z3xZ3": "z3xz3",
    "D2": "d2", "D3": "d3", "D5": "d5", "S3xZ3": "s3xz3",
}


class TestValidation:
    def test_every_shipped_file_validates(self):
        for path in sorted(DATA.glob("*.json")):
            data = json.loads(path.read_text())
            assert catalog.validate_scenario(data) == [], path.name

    def test_bad_gcd_is_diagnosed(self):
        data = json.loads((DATA / "v.json").read_text())
        data["singularities"] = [{"n": 6, "q": 2, "count": 1}]
        diags = catalog.validate_scenario(data)
        assert any("gcd" in d for d in diags)

    def test_fractional_euler_is_diagnosed(self):
        data = json.loads((DATA / "v.json").read_text())
        data["strata"][0]["euler"] = 3
        diags = catalog.validate_scenario(data)
        assert any("integer" in d for d in diags)

    def test_asymmetric_meets_is_diagnosed(self):
        data = json.loads((DATA / "d2.json").read_text())
        data["ramification"][0]["meets"]["R2"] = "7"
        diags = catalog.validate_scenario(data)
        assert any("asymmetric" in d for d in diags)

    def test_bad_stabilizer_order_is_diagnosed(self):
        data = json.loads((DATA / "v.json").read_text())
        data["strata"][0]["stabilizer_order"] = 4
        diags = catalog.validate_scenario(data)
        assert any("divide" in d for d in diags)

    def test_singular_generator_is_diagnosed(self):
        data = json.loads((DATA / "ii.json").read_text())
        data["group"]["generators"][0]["rows"][0] = [0, 0, 0, 0, 0]
        diags = catalog.validate_scenario(data)
        assert any("invertible" in d or "closure failed" in d for d in diags)

    def test_bad_fibration_is_diagnosed(self):
        data = json.loads((DATA / "i.json").read_text())
        data["fibration"]["ramification"] = 3
        diags = catalog.validate_scenario(data)
        assert any("fibration" in d for d in diags)


class TestRunCase:
    def test_order_five_row(self):
        r = catalog.report_for("V")
        assert (r.c1_sq, r.c2, r.q, r.p_g, r.chi) == (9, 15, 1, 2, 2)
        assert r.fiber_genus == 4
        assert r.singularities == "2A4"

    def test_symmetric_group_row(self):
        r = catalog.report_for("S3")
        assert (r.c1_sq, r.c2, r.q, r.p_g, r.chi) == (3, 45, 0, 3, 4)
        assert r.singularities == "27A1"

    def test_trivial_group_is_the_surface_itself(self):
        r = catalog.report_for("trivial")
        assert (r.c1_sq, r.c2, r.q, r.p_g, r.chi) == (45, 27, 5, 10, 6)
        assert r.noether_ok

    def test_case_lookup_is_case_insensitive(self):
        assert catalog.report_for("xi").label == "XI"

    def test_unknown_case(self):
        with pytest.raises(catalog.UnknownCase):
            catalog.report_for("XVII")


class TestReportJson:
    def test_round_trip_and_separation(self):
        report = catalog.report_for("XI")
        payload = json.loads(catalog.render_report(report, "json"))
        assert payload["computed"]["c1_sq"] == -5
        assert payload["computed"]["k2_quotient"] == "45/11"
        # annotations never leak into the computed block
        assert "minimal" not in payload["computed"]
        assert payload["annotations"]["minimal"] == "no"

    def test_rationals_serialise_as_strings(self):
        report = catalog.report_for("XI")
        payload = catalog.report_to_json_dict(report)
        assert payload["computed"]["k2_correction"] == "-100/11"

    def test_json_deterministic(self):
        a = catalog.render_report(catalog.report_for("D3"), "json")
        b = catalog.render_report(catalog.report_for("D3"), "json")
        assert a == b

    def test_golden_reports(self):
        for label, slug in SLUGS.items():
            payload = catalog.report_to_json_dict(catalog.report_for(label))
            frozen = json.loads((GOLDEN / "reports" / f"{slug}.json").read_text())
            assert payload == frozen, label


class TestTables:
    def test_row_counts(self):
        tables = catalog.run_tables()
        assert len(tables[0][1]) == 11
        assert len(tables[1][1]) == 7

    def test_golden_tables(self):
        tables = catalog.run_tables()
        for number, (columns, rows) in enumerate(tables, start=1):
            rendered = catalog.render_table(columns, rows, "text") + "\n"
            assert rendered == (GOLDEN / f"table{number}.txt").read_text()

    def test_json_rows_round_trip(self):
        columns, rows = catalog.run_tables()[0]
        payload = json.loads(catalog.render_table(columns, rows, "json"))
        assert len(payload) == 11
        assert payload[0]["Type"] == "I"

    def test_markdown_rendering(self):
        columns, rows = catalog.run_tables()[1]
        text = catalog.render_table(columns, rows, "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| G |")
        assert len(lines) == 2 + 7
        assert all(line.startswith("|") and line.endswith("|") for line in lines)

    def test_empty_catalog_gives_empty_tables(self, tmp_path):
        tables = catalog.run_tables(tmp_path)
        assert tables[0][1] == [] and tables[1][1] == []

    def test_blank_singularities_render_blank(self):
        columns, rows = catalog.run_tables()[0]
        by_type = {row["Type"]: row for row in rows}
        assert by_type["III(1)"]["Singularities"] == ""
        assert by_type["III(4)"]["Singularities"] == ""

    def test_annotation_columns_are_marked(self):
        for _, rows in catalog.run_tables():
            for row in rows:
                assert row["Min"].endswith("*")
                assert "*" in row["kappa"]


class TestCliExitCodes:
    def test_report_ok(self, capsys):
        assert main(["report", "V"]) == 0
        assert "c1^2 = 9" in capsys.readouterr().out

    def test_report_unknown_case(self, capsys):
        assert main(["report", "XVII"]) == 2

    def test_tables_ok(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_resolve(self, capsys):
        assert main(["resolve", "11", "3"]) == 0
        out = capsys.readouterr().out
        assert "-20/11" in out

    def test_resolve_bad_input(self, capsys):
        assert main(["resolve", "6", "2"]) == 2

    def test_rationality(self, capsys):
        assert main(["rationality", "xv"]) == 0
        assert "rational" in capsys.readouterr().out

    def test_rationality_json(self, capsys):
        assert main(["--format", "json", "rationality", "klein"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"klein-option-1", "klein-option-2"}

    def test_validate_shipped_file(self, capsys):
        assert main(["validate", str(DATA / "xi.json")]) == 0

    def test_validate_broken_file(self, tmp_path, capsys):
        data = json.loads((DATA / "v.json").read_text())
        data["singularities"] = [{"n": 6, "q": 2, "count": 1}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2

    def test_validate_unparseable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2

    def test_every_case_reports_cleanly(self, capsys):
        for label in SLUGS:
            assert main(["report", label]) == 0, label
            capsys.readouterr()

    def test_noether_failure_exits_one(self, tmp_path, capsys):
        # structurally valid scenario whose strata are wrong: integral Euler
        # number, but the Noether identity fails
        data = json.loads((DATA / "v.json").read_text())
        data["label"] = "V-broken"
        data["strata"][0]["euler"] = 7
        (tmp_path / "v_broken.json").write_text(json.dumps(data))
        assert main(["--catalog", str(tmp_path), "report", "V-broken"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out

    def test_custom_catalog_directory(self, tmp_path, capsys):
        (tmp_path / "xi.json").write_text((DATA / "xi.json").read_text())
        assert main(["--catalog", str(tmp_path), "report", "XI"]) == 0
        assert main(["--catalog", str(tmp_path), "report", "V"]) == 2

    def test_tables_exit_one_on_inconsistent_catalog(self, tmp_path, capsys):
        data = json.loads((DATA / "v.json").read_text())
        data["strata"][0]["euler"] = 7
        (tmp_path / "v.json").write_text(json.dumps(data))
        assert main(["--catalog", str(tmp_path), "tables"]) == 1
        assert "Noether check failed" in capsys.readouterr().err


class TestGoldenTranscripts:
    def test_klein(self):
        from fanoquotients.rationality_cases import klein_transcript

        text, _ = klein_transcript(regularity=0)
        assert text == (GOLDEN / "rationality_klein.txt").read_text()

    def test_xv(self):
        from fanoquotients.rationality_cases import xv_transcript

        text, _ = xv_transcript(regularity=0)
        assert text == (GOLDEN / "rationality_xv.txt").read_text()
