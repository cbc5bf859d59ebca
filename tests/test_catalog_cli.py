import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from fanoquotients import catalog
from fanoquotients.cli import main
from fanoquotients.cyclotomic_rep import MAX_GROUP_ORDER

GOLDEN = pathlib.Path(__file__).parent / "golden"
NOT_INTEGERS = "entries, coefficients and exponents must be integers"
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
        r = catalog.find_case("V").report
        assert (r.c1_sq, r.c2, r.q, r.p_g, r.chi) == (9, 15, 1, 2, 2)
        assert r.fiber_genus == 4
        assert r.singularities == "2A4"

    def test_symmetric_group_row(self):
        r = catalog.find_case("S3").report
        assert (r.c1_sq, r.c2, r.q, r.p_g, r.chi) == (3, 45, 0, 3, 4)
        assert r.singularities == "27A1"

    def test_trivial_group_is_the_surface_itself(self):
        r = catalog.find_case("trivial").report
        assert (r.c1_sq, r.c2, r.q, r.p_g, r.chi) == (45, 27, 5, 10, 6)
        assert r.noether_ok

    def test_case_lookup_is_case_insensitive(self):
        assert catalog.find_case("xi").label == "XI"

    def test_unknown_case(self):
        with pytest.raises(catalog.UnknownCase):
            catalog.find_case("XVII")


class TestReportJson:
    def test_round_trip_and_separation(self):
        payload = json.loads(catalog.render_report(catalog.find_case("XI"), "json"))
        assert payload["computed"]["c1_sq"] == -5
        assert payload["computed"]["k2_quotient"] == "45/11"
        # annotations never leak into the computed block
        assert "minimal" not in payload["computed"]
        assert payload["annotations"]["minimal"] == "no"

    def test_rationals_serialise_as_strings(self):
        payload = catalog.report_to_json_dict(catalog.find_case("XI"))
        assert payload["computed"]["k2_correction"] == "-100/11"

    def test_json_deterministic(self):
        a = catalog.render_report(catalog.find_case("D3"), "json")
        b = catalog.render_report(catalog.find_case("D3"), "json")
        assert a == b

    def test_golden_reports(self):
        for label, slug in SLUGS.items():
            payload = catalog.report_to_json_dict(catalog.find_case(label))
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

    def test_resolve_is_bounded(self):
        # the chain of A_{n,n-1} has n - 1 components: a huge n must be refused, not resolved
        env = {**os.environ, "PYTHONPATH": str(DATA.parents[1])}
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "fanoquotients.cli", "resolve", "1000000001", "1000000000"],
                              capture_output=True, text=True, timeout=60, env=env)
        assert time.monotonic() - start < 0.5
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"n must be at most {MAX_GROUP_ORDER}, got 1000000001\n"

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
        # structurally valid scenario whose singularity list is wrong: one A4
        # point too many adds 4 to c2 and nothing to c1^2, so the Noether
        # identity fails (wrong strata are caught earlier, by validation)
        data = json.loads((DATA / "v.json").read_text())
        data["label"] = "V-broken"
        data["singularities"][0]["count"] = 3
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
        data["singularities"][0]["count"] = 3
        (tmp_path / "v.json").write_text(json.dumps(data))
        assert main(["--catalog", str(tmp_path), "tables"]) == 1
        assert "Noether check failed" in capsys.readouterr().err


class TestRationalityCatalog:
    """``rationality`` reads q from the XI or XV scenario of ``--catalog``."""

    @pytest.mark.parametrize("case", ["klein", "xv"])
    def test_empty_catalog_has_no_case(self, tmp_path, capsys, case):
        assert main(["--catalog", str(tmp_path), "rationality", case]) == 2
        assert "unknown case" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["tables"], ["report", "XI"], ["rationality", "klein"]],
                             ids=["tables", "report", "rationality"])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_catalog_path_must_be_a_directory(self, tmp_path, argv, kind):
        # an empty directory is an empty catalog, but a missing path or a file is an input error
        path = tmp_path / "catalog"
        if kind == "file":
            path.write_text("{}")
        env = {**os.environ, "PYTHONPATH": str(DATA.parents[1])}
        proc = subprocess.run([sys.executable, "-m", "fanoquotients.cli", "--catalog", str(path), *argv],
                              capture_output=True, text=True, timeout=60, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"{path}: catalog is not a directory\n")

    def test_catalog_with_only_xi(self, tmp_path, capsys):
        (tmp_path / "xi.json").write_text((DATA / "xi.json").read_text())
        assert main(["--catalog", str(tmp_path), "rationality", "klein"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "rationality_klein.txt").read_text()
        assert main(["--catalog", str(tmp_path), "rationality", "xv"]) == 2
        assert "unknown case 'XV'" in capsys.readouterr().err

    def test_irregular_case_has_no_certificate(self, tmp_path, capsys):
        data = json.loads((DATA / "trivial.json").read_text())
        data["label"] = "XV"  # the surface itself, q = 5
        (tmp_path / "xv.json").write_text(json.dumps(data))
        assert main(["--catalog", str(tmp_path), "rationality", "xv"]) == 1
        assert "irregularity 5 != 0" in capsys.readouterr().err

    def test_irregular_annotated_case_fails_tables(self, tmp_path):
        for path in DATA.glob("*.json"):
            (tmp_path / path.name).write_text(path.read_text())
        data = json.loads((DATA / "d3.json").read_text())
        data["annotations"]["rationality_case"] = "xv"  # q = 1
        (tmp_path / "d3.json").write_text(json.dumps(data))
        env = {**os.environ, "PYTHONPATH": str(DATA.parents[1])}
        proc = subprocess.run([sys.executable, "-m", "fanoquotients.cli", "--catalog", str(tmp_path), "tables"],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 1
        assert "irregularity 1 != 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_swapped_annotation_has_no_certificate(self, tmp_path, capsys):
        # XI has five A11,3 points; the order-15 proof resolves 2 A15,4 + 5 A3,1
        for path in DATA.glob("*.json"):
            (tmp_path / path.name).write_text(path.read_text())
        data = json.loads((DATA / "xi.json").read_text())
        data["annotations"]["rationality_case"] = "xv"
        (tmp_path / "xi.json").write_text(json.dumps(data))
        line = ("case XI: the xv proof resolves the chains {(4, 4): 2, (3,): 5}, "
                "but the scenario's singularities give {(3, 4): 5}\n")
        for argv in (["rationality", "klein"], ["tables"]):
            assert main(["--catalog", str(tmp_path), *argv]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == line

    def test_group_of_another_order_has_no_certificate(self, tmp_path):
        # XI with -I adjoined: same five A11,3 points, but |G| = 22 and the klein proof divides by 11
        data = json.loads((DATA / "xi.json").read_text())
        data["group"]["generators"].append({"rows": [[-int(i == j) for j in range(5)] for i in range(5)]})
        data["strata"] = [{"stabilizer_order": 11, "euler": 5}, {"stabilizer_order": 2, "euler": 77}]
        (tmp_path / "xi.json").write_text(json.dumps(data))
        env = {**os.environ, "PYTHONPATH": str(DATA.parents[1])}

        def fanoq(*argv):
            return subprocess.run([sys.executable, "-m", "fanoquotients.cli", *argv],
                                  capture_output=True, text=True, timeout=60, env=env)

        assert fanoq("validate", str(tmp_path / "xi.json")).returncode == 0
        line = "case XI: the klein proof divides by |G| = 11, but the scenario's group has order 22\n"
        for argv in (["rationality", "klein"], ["tables"]):
            proc = fanoq("--catalog", str(tmp_path), *argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", line)

    def test_unannotated_case_has_no_certificate(self, tmp_path, capsys):
        data = json.loads((DATA / "xi.json").read_text())
        del data["annotations"]["rationality_case"]
        (tmp_path / "xi.json").write_text(json.dumps(data))
        assert main(["--catalog", str(tmp_path), "rationality", "klein"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no rationality case" in captured.err


class TestGoldenTranscripts:
    def test_klein(self):
        from fanoquotients.rationality_cases import transcript

        text, _ = transcript(catalog.find_case("XI"))
        assert text == (GOLDEN / "rationality_klein.txt").read_text()

    def test_xv(self):
        from fanoquotients.rationality_cases import transcript

        text, _ = transcript(catalog.find_case("XV"))
        assert text == (GOLDEN / "rationality_xv.txt").read_text()

    @pytest.mark.parametrize("case", ["klein", "xv"])
    def test_json(self, capsys, case):
        assert main(["--format", "json", "rationality", case]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"rationality_{case}.json").read_text()


class TestHardenedInput:
    """Inputs that contradict the group action or are malformed end in a diagnostic."""

    @pytest.mark.parametrize("file, stratum_euler, from_strata, from_group", [
        ("iii4.json", -9, 3, 9),   # (27 + 2 * -9) / 3 = 3 against 9
        ("v.json", 7, 11, 7),      # (27 + 4 * 7) / 5 = 11 against 7
    ])
    def test_strata_contradicting_the_generators(self, tmp_path, capsys, file, stratum_euler,
                                                 from_strata, from_group):
        data = json.loads((DATA / file).read_text())
        data["strata"][0]["euler"] = stratum_euler
        bad = tmp_path / file
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        out = capsys.readouterr().out
        assert f"e(S/G) = {from_strata} from the strata" in out
        assert f"the generators give {from_group}" in out
        assert main(["--catalog", str(tmp_path), "report", data["label"]]) == 2

    def test_one_case_commands_check_only_their_case(self, tmp_path, capsys):
        # a sound XI next to a V whose strata contradict its generators
        (tmp_path / "xi.json").write_text((DATA / "xi.json").read_text())
        data = json.loads((DATA / "v.json").read_text())
        data["strata"][0]["euler"] = 7
        (tmp_path / "v.json").write_text(json.dumps(data))
        assert main(["--catalog", str(tmp_path), "--format", "json", "report", "XI"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads((GOLDEN / "reports" / "xi.json").read_text())
        for argv in (["report", "V"], ["tables"]):
            assert main(["--catalog", str(tmp_path), *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("v.json: strata: e(S/G) = 11 from the strata, "
                                    "but the generators give 7 (topological Lefschetz)\n")

    def test_singularity_order_must_divide_the_group(self, tmp_path, capsys):
        data = json.loads((DATA / "v.json").read_text())
        data["singularities"] = [{"n": 100001, "q": 100000}]
        path = tmp_path / "v.json"
        path.write_text(json.dumps(data))
        start = time.monotonic()
        assert main(["validate", str(path)]) == 2
        assert time.monotonic() - start < 0.5
        assert "singularities[0].n: 100001 does not divide |G| = 5" in capsys.readouterr().out
        start = time.monotonic()
        assert main(["--catalog", str(tmp_path), "report", "V"]) == 2
        assert time.monotonic() - start < 0.5

    @pytest.mark.parametrize("case", [
        "json-array", "strata", "ramification", "singularities", "group", "catalog-file"])
    def test_malformed_input_gives_a_diagnostic(self, tmp_path, case):
        data = json.loads((DATA / "v.json").read_text())
        broken = {"strata": [1], "ramification": [5], "singularities": ["x"], "group": [1]}
        if case == "json-array":
            data = [data]
        elif case in broken:
            data[case] = broken[case]
        path = tmp_path / "case.json"
        if case == "catalog-file":
            (tmp_path / "xi.json").write_text((DATA / "xi.json").read_text())
            path.write_text("{not json")
            argv = ["--catalog", str(tmp_path), "report", "XI"]
        else:
            path.write_text(json.dumps(data))
            argv = ["validate", str(path)]
        env = {**os.environ, "PYTHONPATH": str(DATA.parents[1])}
        proc = subprocess.run([sys.executable, "-m", "fanoquotients.cli", *argv],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "case.json: " in proc.stdout + proc.stderr

    @pytest.mark.parametrize("rows", [
        [[int(i == j or (i, j) == (0, 1)) for j in range(5)] for i in range(5)],  # a shear: infinite order
        [[int(i == j < 4) for j in range(5)] for i in range(5)],                   # P^2 = P: singular
    ], ids=["shear", "singular"])
    def test_generator_without_finite_order_is_rejected_quickly(self, tmp_path, capsys, rows):
        data = {"schema": 1, "label": "bad", "group": {"conductor": 1, "generators": [{"rows": rows}]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        start = time.monotonic()
        assert main(["validate", str(path)]) == 2
        assert time.monotonic() - start < 0.5
        assert "group: closure failed: generator 0 is singular or of order above 120" in capsys.readouterr().out

    def test_conductor_1000_shear_exits_two_within_a_second(self, tmp_path):
        # L(1000) = 60,000 > the closure bound, so a power walk alone would take 10,000 products
        rows = [[int(i == j or (i, j) == (0, 1)) for j in range(5)] for i in range(5)]
        path = tmp_path / "shear.json"
        path.write_text(json.dumps({"schema": 1, "label": "shear",
                                    "group": {"conductor": 1000, "generators": [{"rows": rows}]}}))
        env = {**os.environ, "PYTHONPATH": str(DATA.parents[1])}
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "fanoquotients.cli", "validate", str(path)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert time.monotonic() - start < 1.0
        assert proc.returncode == 2
        assert proc.stdout == f"{path}: group: closure failed: generator 0 is singular or of order above 10000\n"

    def test_conductor_1000_shear_builds_no_cyclotomic_polynomial(self, tmp_path):
        # its entries are 0 and 1, so reducing them needs only the degree of Phi_1000
        rows = [[int(i == j or (i, j) == (0, 1)) for j in range(5)] for i in range(5)]
        path = tmp_path / "shear.json"
        path.write_text(json.dumps({"schema": 1, "label": "shear",
                                    "group": {"conductor": 1000, "generators": [{"rows": rows}]}}))
        run = ("import sys; from fanoquotients import cli, cyclotomic_rep; rc = cli.main(['validate', sys.argv[1]]); "
               "print(rc, cyclotomic_rep.cyclotomic_poly.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", run, str(path)], capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(DATA.parents[1])})
        assert proc.stdout.splitlines()[-1] == "2 0", proc.stderr

    @pytest.mark.parametrize("file, field, value", [
        ("xi.json", "annotations.rationality_case", "foo"),
        ("v.json", "table", "1"),
        ("v.json", "table_position", "x"),
        ("i.json", "fibration", 7.7),
    ])
    def test_mistyped_field_is_diagnosed(self, tmp_path, capsys, file, field, value):
        data = json.loads((DATA / file).read_text())
        if field == "fibration":
            data["fibration"]["fiber_genus"] = value
        elif field == "annotations.rationality_case":
            data["annotations"]["rationality_case"] = value
        else:
            data[field] = value
        path = tmp_path / file
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert f"{file}: {field}: " in capsys.readouterr().out
        assert main(["--catalog", str(tmp_path), "tables"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{file}: {field}: ")

    @pytest.mark.parametrize("file, path, diagnostic", [
        ("v.json", ("schema",), "schema: "),
        ("xi.json", ("group", "conductor"), "group.conductor: "),
        ("v.json", ("strata", 0, "stabilizer_order"), "strata[0].stabilizer_order: "),
        ("v.json", ("strata", 0, "euler"), "strata[0].euler: "),
        ("iv2.json", ("ramification", 0, "index"), "ramification[0].index: "),
        ("v.json", ("singularities", 0, "n"), "singularities[0]: "),
        ("v.json", ("singularities", 0, "q"), "singularities[0]: "),
        ("v.json", ("singularities", 0, "count"), "singularities[0]: "),
        ("v.json", ("table",), "table: "),
        ("v.json", ("table_position",), "table_position: "),
        ("i.json", ("fibration", "fiber_genus"), "fibration: "),
        ("i.json", ("fibration", "deck_order"), "fibration: "),
        ("i.json", ("fibration", "ramification"), "fibration: "),
        ("ii.json", ("group", "generators", 0, "rows", 2, 2), "group.generators[0].rows: "),  # entry
        ("xi.json", ("group", "generators", 0, "rows", 0, 0, 0, 0), "group.generators[0].rows: "),  # coefficient
        ("xi.json", ("group", "generators", 0, "rows", 0, 0, 0, 1), "group.generators[0].rows: "),  # exponent
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_boolean_is_not_an_integer(self, tmp_path, capsys, file, path, diagnostic):
        # bool is a subclass of int in Python, but JSON true is no integer
        data = json.loads((DATA / file).read_text())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = True
        bad = tmp_path / file
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        assert f"{file}: {diagnostic}" in capsys.readouterr().out
        assert main(["--catalog", str(tmp_path), "tables"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{file}: {diagnostic}")

    @pytest.mark.parametrize("path, value, diagnostic", [
        (("group", "generators", 0, "rows", 0, 0), [[1.0, 1]], "group.generators[0].rows: " + NOT_INTEGERS),
        (("group", "generators", 0, "rows", 0, 1), 0.0, "group.generators[0].rows: " + NOT_INTEGERS),
        (("group", "generators", 0, "rows", 0, 0), [["1", 1]], "group.generators[0].rows: " + NOT_INTEGERS),
        (("group", "generators", 0, "rows", 0, 0), [[1, 1.0]], "group.generators[0].rows: " + NOT_INTEGERS),
        (("group", "generators", 0, "rows", 0, 0), [[1]],
         "group.generators[0].rows: a term must be a [coefficient, exponent] pair"),
        (("strata", 0, "note"), 5, "strata[0].note: must be a string"),
        (("source",), ["a"], "source: must be a string"),
        (("display", "order"), 11, "display: every value must be a string"),
        # a list was rendered through str() into the kappa cell as ['x']*
        (("annotations", "kodaira"), ["x"], "annotations: every value must be a string or an integer"),
        (("annotations", "minimal"), None, "annotations: every value must be a string or an integer"),
        (("schema",), 1.0, "schema: expected 1, got 1.0"),
    ], ids=["float-coefficient", "float-entry", "string-coefficient", "float-exponent", "short-term",
            "note", "source", "display", "annotation-list", "annotation-null", "float-schema"])
    def test_value_the_schema_forbids_is_diagnosed(self, tmp_path, capsys, path, value, diagnostic):
        data = json.loads((DATA / "xi.json").read_text())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "xi.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().out == f"{bad}: {diagnostic}\n"
        assert main(["--catalog", str(tmp_path), "tables"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"xi.json: {diagnostic}\n"

    @pytest.mark.parametrize("file, label, path, digits", [
        ("xi.json", "XI", ("singularities", 0, "count"), 4299),  # validated, then report hit the str() limit
        ("v.json", "V", ("strata", 0, "euler"), 4300),           # validate itself hit the str() limit
        ("v.json", "V", ("strata", 0, "euler"), 19),
    ])
    def test_integer_of_more_than_18_digits_is_rejected_at_load(self, tmp_path, capsys, file, label, path, digits):
        data = json.loads((DATA / file).read_text())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 10 ** (digits - 1)
        bad = tmp_path / file
        bad.write_text(json.dumps(data))
        diagnostic = f"a JSON integer has {digits} digits, more than {catalog.MAX_DIGITS}"
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr() == ("", f"{bad}: {diagnostic}\n")
        assert main(["--catalog", str(tmp_path), "report", label]) == 2
        assert capsys.readouterr() == ("", f"{file}: {diagnostic}\n")

    def test_eighteen_digits_are_the_bound(self):
        assert catalog.parse_json_int("-" + "9" * 18) == 1 - 10 ** 18
        with pytest.raises(ValueError, match="has 19 digits"):
            catalog.parse_json_int("1" + "0" * 18)

    @pytest.mark.parametrize("field", ["self_int", "k_degree", "meets.E2"])
    @pytest.mark.parametrize("value", ["1e3000000", "1/2", "1.5", 1.5, "1e5", " 3", "1_0", "1" * 19])
    def test_intersection_number_is_an_integer(self, tmp_path, capsys, field, value):
        # intersection numbers of curves on the smooth surface S; "1e3000000" took 1.8 s to
        # validate as a Fraction, and report then hit the str() limit
        data = json.loads((DATA / "iii4.json").read_text())
        curve = data["ramification"][0]
        if field == "meets.E2":
            curve["meets"]["E2"] = value
        else:
            curve[field] = value
        bad = tmp_path / "iii4.json"
        bad.write_text(json.dumps(data))
        diagnostic = f"ramification[0].{field}: must be an integer or a string of one, got {value!r}"
        start = time.monotonic()
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr() == (f"{bad}: {diagnostic}\n", "")
        assert main(["--catalog", str(tmp_path), "report", "III(4)"]) == 2
        assert capsys.readouterr() == ("", f"iii4.json: {diagnostic}\n")
        assert time.monotonic() - start < 1.0

    def test_huge_conductor_is_rejected_quickly(self, tmp_path, capsys):
        identity = [[int(i == j) for j in range(5)] for i in range(5)]
        data = {"schema": 1, "label": "huge",
                "group": {"conductor": 100000, "generators": [{"rows": identity}]}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        start = time.monotonic()
        assert main(["validate", str(path)]) == 2
        assert time.monotonic() - start < 0.5
        assert f"from 1 to {catalog.MAX_CONDUCTOR}" in capsys.readouterr().out
