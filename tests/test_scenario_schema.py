"""The scenario schema: catalog.SCHEMA is the one table of fields, an unknown key is an
error, and the rules that relate fields catch what a per-field test cannot."""

import copy
import json
import pathlib
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanoquotients import catalog
from fanoquotients.cli import main

DATA = pathlib.Path(__file__).parent.parent / "src" / "fanoquotients" / "data"
DOC = pathlib.Path(__file__).parent.parent / "docs" / "scenario_schema.md"
FILES = {path.name: json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))}
JSON_PATH = re.compile(r"\w+(\[\d+\]|\.\w+)*: ")


def _edited(file: str, edit) -> dict:
    data = copy.deepcopy(FILES[file])
    edit(data)
    return data


def _rename(obj: dict, key: str, new: str) -> None:
    obj[new] = obj.pop(key)


def _exits_two(tmp_path, capsys, file: str, data: dict, diagnostic: str, command: list[str]):
    """``validate`` on the edited file, then ``command`` on a catalog holding it, both exit 2 with the diagnostic."""
    path = tmp_path / file
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    assert f"{path}: {diagnostic}\n" in capsys.readouterr().out
    assert main(["--catalog", str(tmp_path), *command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{file}: {diagnostic}\n" in captured.err


class TestUnknownKeys:
    @pytest.mark.parametrize("file, edit, diagnostic", [
        ("iii2.json", lambda d: _rename(d, "fibration", "fibraton"), "fibraton: unknown key"),
        ("iii2.json", lambda d: _rename(d, "annotations", "annotatons"), "annotatons: unknown key"),
        ("xi.json", lambda d: _rename(d["singularities"][0], "count", "cuont"), "singularities[0].cuont: unknown key"),
    ], ids=["fibraton", "annotatons", "cuont"])
    def test_misspelt_key_exits_two(self, tmp_path, capsys, file, edit, diagnostic):
        # each was read as absent: the g column, both annotations or a count of 1 went missing
        _exits_two(tmp_path, capsys, file, _edited(file, edit), diagnostic, ["tables"])

    @pytest.mark.parametrize("file, path, diagnostic", [
        ("v.json", (), "extra: unknown key"),
        ("v.json", ("group",), "group.extra: unknown key"),
        ("v.json", ("group", "generators", 0), "group.generators[0].extra: unknown key"),
        ("v.json", ("strata", 0), "strata[0].extra: unknown key"),
        ("iii4.json", ("ramification", 0), "ramification[0].extra: unknown key"),
        ("v.json", ("singularities", 0), "singularities[0].extra: unknown key"),
        ("i.json", ("fibration",), "fibration.extra: unknown key"),
    ], ids=["top", "group", "generator", "stratum", "curve", "singularity", "fibration"])
    def test_every_object_refuses_an_unknown_key(self, file, path, diagnostic):
        data = copy.deepcopy(FILES[file])
        target = data
        for key in path:
            target = target[key]
        target["extra"] = 1
        assert catalog.validate_scenario(data) == [diagnostic]

    @pytest.mark.parametrize("block", ["display", "annotations"])
    def test_free_form_maps_take_any_key(self, block):
        data = copy.deepcopy(FILES["v.json"])
        data[block]["extra"] = "x"
        assert catalog.validate_scenario(data) == []
        assert getattr(catalog.scenario_from_dict(data)[0], block)["extra"] == "x"

    def test_fibration_note_is_read(self, tmp_path, capsys):
        with_note = [name for name, data in FILES.items() if "note" in (data.get("fibration") or {})]
        assert len(with_note) == 8
        data = copy.deepcopy(FILES["iii2.json"])
        assert catalog.validate_scenario(data) == []
        del data["fibration"]["note"]
        assert catalog.scenario_from_dict(data) == catalog.scenario_from_dict(FILES["iii2.json"])
        data["fibration"]["note"] = 5
        _exits_two(tmp_path, capsys, "iii2.json", data, "fibration.note: must be a string", ["report", "III(2)"])


class TestCrossFieldRules:
    def test_table_position_is_reserved_in_annotations(self, tmp_path, capsys):
        # the tables sort by annotations.table_position; a string there next to integers raised TypeError
        shutil.copytree(DATA, tmp_path, dirs_exist_ok=True)
        data = _edited("v.json", lambda d: d.update(table_position=None, annotations={"table_position": "x"}))
        _exits_two(tmp_path, capsys, "v.json", data,
                   "annotations.table_position: reserved for the top-level table_position", ["tables"])

    def test_curve_names_are_unique(self, tmp_path, capsys):
        def rename_r2(data):
            for curve in data["ramification"]:
                if "R2" in curve["meets"]:
                    _rename(curve["meets"], "R2", "R1")
            data["ramification"][1]["name"] = "R1"
        _exits_two(tmp_path, capsys, "d2.json", _edited("d2.json", rename_r2),
                   "ramification[1].name: 'R1' also names ramification[0]", ["report", "D2"])

    def test_a_curve_does_not_meet_itself(self, tmp_path, capsys):
        data = _edited("iii4.json", lambda d: d["ramification"][0]["meets"].update(E1="5"))
        _exits_two(tmp_path, capsys, "iii4.json", data,
                   "ramification[0].meets.E1: a curve's own value is its self_int", ["report", "III(4)"])


def _sites(obj: dict, shape, path: str):
    """(object, key, JSON path, whether the key is named by a table) for every key of ``obj``
    and of the objects below it that the schema reads."""
    rows = {} if isinstance(shape, catalog.Map) else {
        name: row for key, row in shape.items() for name in (key if isinstance(key, tuple) else (key,))}
    for key, value in obj.items():
        where = f"{path}.{key}" if path else key
        yield obj, key, where, key in rows
        inner = rows.get(key, rows.get("*", (None, None, None)))[1]
        if isinstance(inner, list) and isinstance(value, list):
            for i, entry in enumerate(value):
                yield from _sites(entry, inner[0], f"{where}[{i}]")
        elif isinstance(inner, (dict, catalog.Map)) and isinstance(value, dict):
            yield from _sites(value, inner, where)


JSON_VALUES = [None, True, 7, 1.5, "x", [], [1], {}, {"x": 1}]


@st.composite
def mutated_files(draw):
    """A shipped file with one key the schema reads dropped, renamed or given a value of another type."""
    data = copy.deepcopy(FILES[draw(st.sampled_from(sorted(FILES)))])
    obj, key, path, named = draw(st.sampled_from(list(_sites(data, catalog.SCHEMA, ""))))
    action = draw(st.sampled_from(["drop", "rename", "swap"]))
    if action == "drop":
        del obj[key]
    elif action == "rename":
        _rename(obj, key, key + "_x")
    else:
        obj[key] = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(obj[key])]))
    return data, f"{path}_x: unknown key" if action == "rename" and named else None


@given(mutated_files())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_a_mutated_file_parses_or_is_diagnosed_under_a_path(case):
    data, expected = case
    scenario, diags = catalog.scenario_from_dict(data)
    assert (scenario is None) == bool(diags)
    assert all(JSON_PATH.match(d) for d in diags), diags
    if expected is not None:
        assert expected in diags


def _table_paths(table: dict, prefix: str = ""):
    """(JSON path, whether its value is a free-form object) for every key the table names."""
    for key, (_, shape, _) in table.items():
        if isinstance(shape, list):
            shape = shape[0]
        for name in key if isinstance(key, tuple) else (key,):
            free = isinstance(shape, catalog.Map) or isinstance(shape, dict) and "*" in shape
            yield prefix + name, free
            if isinstance(shape, dict) and not free:
                yield from _table_paths(shape, f"{prefix}{name}.")


def _doc_paths():
    """The JSON path of every key in the example block of docs/scenario_schema.md."""
    block = DOC.read_text().split("```")[1]
    stack, pending = [], None
    for match in re.finditer(r'"(\w+)"\s*:|[{}\[\]]', re.sub(r"//.*", "", block)):
        if match[1]:
            pending = match[1]
            yield ".".join(filter(None, stack + [pending]))
        elif match[0] in "{[":
            stack.append(pending)
            pending = None
        else:
            stack.pop()


def test_the_doc_example_names_every_key_of_the_table():
    table = dict(_table_paths(catalog.SCHEMA))
    free = [path for path, is_free in table.items() if is_free]
    documented = {path for path in _doc_paths() if not any(path.startswith(f + ".") for f in free)}
    assert documented == set(table)
