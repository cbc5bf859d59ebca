"""The scenario catalog: JSON data files, validation, reports and tables.

One file per quotient case.  The file format (``schema: 1``) is documented in docs/scenario_schema.md;
numbers in the files are fixed-point and intersection data on the base surface, while everything in
a report is computed from them.  A file is read with no repeated key, checked field by field (SCHEMA),
then across fields, then against its group, whose order each subgroup order in the file must divide.
The catalog annotations (minimality, Kodaira dimension) are literature assertions and are rendered
with a trailing ``*`` so they can never be mistaken for computed values.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .cyclotomic_rep import CycMatrix
from .hj_resolution import CyclicSing
from .quotient_engine import (
    Fibration,
    QuotientScenario,
    RamificationCurve,
    Stratum,
    albanese_fiber_genus,
    euler_quotient,
    lefschetz_euler_quotient,
)

SCHEMA_VERSION = 1
# Phi_n and the table that reduces mod Phi_n grow with n (cost ~ n^2); the catalog needs 15
MAX_CONDUCTOR = 1000
# every integer a scenario file holds, and the text of an intersection number
MAX_DIGITS = 18
_INTEGER_TEXT = rf"-?[0-9]{{1,{MAX_DIGITS}}}"  # compiled on first use, not at import
MAX_CURVES = 100  # the ramification rules check every pair of curves, at most 4,950; the catalog needs 5

TABLE1_COLUMNS = ("O", "Type", "c1^2", "c2", "q", "p_g", "chi", "g", "Singularities", "Min", "kappa")
TABLE2_COLUMNS = ("G", "c1^2", "c2", "q", "p_g", "chi", "g", "Singularities", "Min", "kappa")


class InvalidScenario(ValueError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class UnknownCase(InvalidScenario):
    pass


# ---------------------------------------------------------------------------
# loading


def parse_json_int(text: str) -> int:
    """The ``parse_int`` hook of every scenario file load: a JSON integer of at most
    MAX_DIGITS digits, so no later int <-> str conversion meets Python's digit limit."""
    digits = len(text.lstrip("-"))
    if digits > MAX_DIGITS:
        raise ValueError(f"a JSON integer has {digits} digits, more than {MAX_DIGITS}")
    return int(text)


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The ``object_pairs_hook`` of every scenario file load: JSON readers differ on a repeated key (RFC 8259, 4)."""
    if len(obj := dict(pairs)) < len(pairs):
        seen: set[str] = set()
        raise ValueError(f"duplicate key {next(k for k, _ in pairs if k in seen or seen.add(k))!r}")
    return obj


def read_scenario_file(path: Path, name: str):
    """The JSON value of one scenario file; if it cannot be read, raise InvalidScenario under ``name``."""
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_int=parse_json_int, object_pairs_hook=unique_keys)
    # unreadable, not UTF-8, not JSON, a repeated key, too many digits, or nested past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidScenario([f"{name}: {exc}"]) from exc


class Map(NamedTuple):
    """A free-form object: any keys, and every value passes ``test``, else one ``diagnostic``."""
    test: Callable[[object], bool]
    diagnostic: str


# every intersection number of curves on S: a JSON integer or an integer string
_INTERSECTION = (None, lambda v: type(v) is int or isinstance(v, str) and re.fullmatch(_INTEGER_TEXT, v) is not None,
                 "must be an integer or a string of one, got {!r}")
# the one diagnostic of a fibration, for a value that is no object and for genus data out of range
_FIBRATION = "needs integers fiber_genus >= 0, deck_order >= 1, ramification >= 0"

# The format of docs/scenario_schema.md.  A table maps each key of an object to its row (default,
# shape, diagnostic), and an absent key reads as its default.  A shape is a type (so int refuses
# true), a test, a table for an object, [table] for an array of objects, or a Map.  A value of
# another type, that fails its test or is no object or array is refused: the diagnostic, formatted
# with the value, goes under its JSON path (a table whose default is None admits null).  A tuple of
# keys is tested as one, under the object's path.  A key no row names is refused, unless a "*" row
# reads every other key.
SCHEMA = {
    "schema": (None, lambda v: type(v) is int and v == SCHEMA_VERSION, f"expected {SCHEMA_VERSION}, got {{!r}}"),
    "label": (None, lambda v: type(v) is str and v != "", "missing or empty"),
    "group": ({}, {
        "conductor": (1, lambda v: type(v) is int and 1 <= v <= MAX_CONDUCTOR,
                      f"must be an integer from 1 to {MAX_CONDUCTOR}"),
        "generators": ([], [{"rows": (None, lambda v: True, "")}], "must be an array"),  # see _parse_generator
    }, "must be an object"),
    "strata": ([], [{
        "stabilizer_order": (None, lambda v: type(v) is int and v >= 2, "must be an integer >= 2"),
        "euler": (None, int, "must be an integer"),
        "note": ("", str, "must be a string"),
    }], "must be an array"),
    "ramification": ([], [{
        "name": (None, lambda v: type(v) is str and v != "", "missing"),
        "index": (None, lambda v: type(v) is int and v >= 2, "must be an integer >= 2"),
        "self_int": _INTERSECTION,
        "k_degree": _INTERSECTION,
        "meets": ({}, {"*": _INTERSECTION}, "must be an object"),
    }], "must be an array"),
    "singularities": ([], [{
        ("n", "q", "count"): ((None, None, 1), lambda v: all(type(x) is int for x in v) and v[2] >= 1,
                              "need integer n, q and a positive count"),
    }], "must be an array"),
    "fibration": (None, {  # optional
        ("fiber_genus", "deck_order", "ramification"): (
            (None,) * 3, lambda v: all(type(x) is int and x >= least for x, least in zip(v, (0, 1, 0))), _FIBRATION),
        "note": ("", str, "must be a string"),
    }, _FIBRATION),
    "annotations": ({}, Map(lambda v: type(v) in (str, int), "every value must be a string or an integer"),
                    "must be an object"),  # printed as they are
    "display": ({}, Map(lambda v: type(v) is str, "every value must be a string"), "must be an object"),
    "table": (None, lambda v: v is None or type(v) is int and v in (1, 2), "must be 1, 2 or null"),
    "table_position": (None, lambda v: v is None or type(v) is int, "must be an integer or null"),
    "source": ("", str, "must be a string"),
}


def _read(value, row: tuple, path: str, diags: list[str]):
    """One JSON value read by its row of SCHEMA; an object becomes a dict of every key its table names."""
    default, shape, diagnostic = row
    if callable(shape):
        ok = type(value) is shape if isinstance(shape, type) else shape(value)
    elif isinstance(shape, dict) and isinstance(value, dict):
        prefix, fields = f"{path}." if path else "", {}
        for key, field in shape.items():
            if type(key) is tuple:
                fields.update(zip(key, _read(tuple(map(value.get, key, field[0])), field, path, diags)))
            elif key != "*":
                fields[key] = _read(value.get(key, field[0]), field, prefix + key, diags)
        for key in value:
            if key in fields:
                continue
            if "*" in shape:
                fields[key] = _read(value[key], shape["*"], prefix + key, diags)
            else:
                diags.append(f"{prefix}{key}: unknown key")
        return fields
    elif isinstance(shape, list) and isinstance(value, list):
        return [_read(entry, ({}, shape[0], "must be an object"), f"{path}[{i}]", diags)
                for i, entry in enumerate(value)]
    elif isinstance(shape, Map) and isinstance(value, dict):
        if not all(map(shape.test, value.values())):
            diags.append(f"{path}: {shape.diagnostic}")
        return value
    else:  # no object or array; a default of None admits null
        ok = value is None and default is None
    if not ok:
        diags.append(f"{path}: " + diagnostic.format(value))
    return value


def _parse_generator(rows, conductor: int, path: str, diags: list[str]) -> Optional[CycMatrix]:
    if not isinstance(rows, list) or len(rows) != 5 or any(not isinstance(r, list) or len(r) != 5 for r in rows):
        diags.append(f"{path}.rows: must be a 5x5 array")
        return None
    entries = [e for row in rows for e in row]
    terms = [term for e in entries if isinstance(e, list) for term in e]
    if any(not isinstance(term, list) or len(term) != 2 for term in terms):
        diags.append(f"{path}.rows: a term must be a [coefficient, exponent] pair")
        return None
    # the plain entries, with the coefficients and exponents of the term lists [[coeff, exp], ...]
    numbers = [e for e in entries if not isinstance(e, list)] + [x for term in terms for x in term]
    if bool in set(map(type, numbers)):  # bool subclasses int, but JSON true is no number
        diags.append(f"{path}.rows: true/false is not a number")
        return None
    if any(type(x) is not int for x in numbers):  # 1.0 and "1" are no JSON integers
        diags.append(f"{path}.rows: entries, coefficients and exponents must be integers")
        return None
    return CycMatrix.from_rows(conductor, rows)


def scenario_from_dict(data: dict) -> tuple[Optional[QuotientScenario], list[str]]:
    """Parse and validate one scenario file: (scenario, []), or (None, its diagnostics) on failure.

    SCHEMA checks each field on its own; the rules here relate fields, once every field has passed.
    """
    if not isinstance(data, dict):
        return None, ["scenario: must be a JSON object"]
    diags: list[str] = []
    fields = _read(data, (None, SCHEMA, ""), "", diags)
    if diags or len(fields["ramification"]) > MAX_CURVES:
        return None, diags or [f"ramification: {len(fields['ramification'])} curves, more than {MAX_CURVES}"]
    group = fields["group"]
    generators = [_parse_generator(gen["rows"], group["conductor"], f"group.generators[{i}]", diags)
                  for i, gen in enumerate(group["generators"])]
    names = [curve["name"] for curve in fields["ramification"]]
    for i, curve in enumerate(fields["ramification"]):
        first = names.index(curve["name"])
        if first < i:  # the names key the meets tables
            diags.append(f"ramification[{i}].name: {curve['name']!r} also names ramification[{first}]")
        for other in curve["meets"]:
            if other == curve["name"]:
                diags.append(f"ramification[{i}].meets.{other}: a curve's own value is its self_int")
            elif other not in names:
                diags.append(f"ramification[{i}].meets.{other}: unknown curve name")
    ram = [RamificationCurve(c["name"], c["index"], int(c["self_int"]), int(c["k_degree"]),
                             {other: int(value) for other, value in c["meets"].items()})
           for c in fields["ramification"]]
    for i, r in enumerate(ram):
        for s in ram[i + 1:]:
            a, b = r.meets.get(s.name), s.meets.get(r.name)
            if a is None and b is None:
                diags.append(f"ramification: no intersection value for pair ({r.name}, {s.name})")
            elif a is not None and b is not None and a != b:
                diags.append(f"ramification: asymmetric values for pair ({r.name}, {s.name}): {a} vs {b}")
    sings = []
    for i, sing in enumerate(fields["singularities"]):
        try:
            sings.append((CyclicSing(sing["n"], sing["q"]), sing["count"]))
        except ValueError as exc:
            diags.append(f"singularities[{i}]: {exc}")
    annotations = dict(fields["annotations"])
    if annotations.get("rationality_case", "klein") not in ("klein", "xv"):
        diags.append('annotations.rationality_case: must be "klein", "xv" or absent')
    if "table_position" in annotations:  # the tables sort by the top-level table_position, copied here
        diags.append("annotations.table_position: reserved for the top-level table_position")
    if diags:
        return None, diags
    if fields["table_position"] is not None:
        annotations["table_position"] = fields["table_position"]
    fib = fields["fibration"]
    return QuotientScenario(
        fields["label"], tuple(generators),
        tuple(Stratum(st["stabilizer_order"], st["euler"]) for st in fields["strata"]),
        tuple(ram), tuple(sings),
        fibration=None if fib is None else Fibration(fib["fiber_genus"], fib["deck_order"], fib["ramification"]),
        annotations=annotations, display=dict(fields["display"]), table=fields["table"], source=fields["source"]), []


def _group_diagnostics(scenario: QuotientScenario) -> list[str]:
    """The checks of a parsed scenario that need its group; empty = ok."""
    try:
        order = scenario.group.order
    except Exception as exc:
        return [f"group: closure failed: {exc}"]
    # Lagrange: each is the order of a subgroup of G.  The stabiliser of an A_{n,q} point is cyclic of
    # order n, which also bounds its chain length; the deck group of the fibration acts along the fibers
    fib = scenario.fibration
    subgroups = [*((f"strata[{i}].stabilizer_order", st.order) for i, st in enumerate(scenario.strata)),
                 *((f"ramification[{i}].index", r.index) for i, r in enumerate(scenario.ramification)),
                 *((f"singularities[{i}].n", sing.n) for i, (sing, _) in enumerate(scenario.singularities)),
                 *([] if fib is None else [("fibration.deck_order", fib.deck_order)])]
    diags = [f"{path}: {k} does not divide |G| = {order}" for path, k in subgroups if order % k]
    if not diags:
        try:
            from_strata, from_group = euler_quotient(scenario), lefschetz_euler_quotient(scenario.group)
        except ArithmeticError as exc:
            diags.append(f"strata: {exc}")
        else:
            if from_strata != from_group:
                diags.append(f"strata: e(S/G) = {from_strata} from the strata, but the generators give "
                             f"{from_group} (topological Lefschetz)")
    if fib is not None:
        try:
            albanese_fiber_genus(fib.fiber_genus, fib.deck_order, fib.ramification)
        except ArithmeticError as exc:
            diags.append(f"fibration: {exc}")
    return diags


def validate_scenario(data: dict) -> list[str]:
    """Structural and group validation, then the report's own checks; returns diagnostics (empty = ok)."""
    scenario, diags = scenario_from_dict(data)
    if diags or (diags := _group_diagnostics(scenario)):
        return diags
    try:
        return [f"report: {flag}" for flag in scenario.report.flags]
    except ArithmeticError as exc:
        return [f"report: {exc}"]


class Catalog(dict):
    """Parsed scenarios by label, in file order.

    The checks that need a scenario's group run once per scenario, the first
    time a command asks for it through ``checked``, so a one-case command
    closes one group instead of all of them.
    """

    def __init__(self):
        super().__init__()
        self.unchecked: dict[str, str] = {}  # label -> file name, until its checks pass

    def checked(self, label: str) -> QuotientScenario:
        if label in self.unchecked:
            diags = _group_diagnostics(self[label])
            if diags:
                raise InvalidScenario([f"{self.unchecked[label]}: {d}" for d in diags])
            del self.unchecked[label]
        return self[label]


_CATALOG_CACHE: dict[Optional[str], Catalog] = {}


def load_catalog(catalog_dir: Optional[Path] = None) -> Catalog:
    """Read and parse every ``*.json`` file of the directory (the packaged data by default), keyed by label.

    A missing directory, malformed files and duplicate labels fail here, for
    every command; the group checks wait for ``Catalog.checked``.
    """
    cache_key = str(catalog_dir) if catalog_dir is not None else None
    if cache_key in _CATALOG_CACHE:
        return _CATALOG_CACHE[cache_key]
    root = Path(__file__).with_name("data") if catalog_dir is None else Path(catalog_dir)
    if not root.is_dir():  # a missing directory would otherwise read as an empty catalog
        raise InvalidScenario([f"{root}: catalog is not a directory"])
    catalog = Catalog()
    for name in sorted(entry.name for entry in root.glob("*.json")):
        scenario, diags = scenario_from_dict(read_scenario_file(root / name, name))
        if diags:
            raise InvalidScenario([f"{name}: {d}" for d in diags])
        if scenario.label in catalog:
            raise InvalidScenario(
                [f"{name}: duplicate label {scenario.label}, also in {catalog.unchecked[scenario.label]}"])
        catalog[scenario.label] = scenario
        catalog.unchecked[scenario.label] = name
    _CATALOG_CACHE[cache_key] = catalog
    return catalog


def find_case(label: str, catalog_dir: Optional[Path] = None) -> QuotientScenario:
    """The checked scenario of one case: the exact label, else the one label equal to it up to case."""
    catalog = load_catalog(catalog_dir)
    keys = [label] if label in catalog else [k for k in catalog if k.lower() == label.lower()]
    if len(keys) != 1:
        raise UnknownCase([f"case {label!r} is ambiguous: {', '.join(sorted(keys))}" if keys
                           else f"unknown case {label!r}; known: {', '.join(sorted(catalog))}" if catalog
                           else f"unknown case {label!r}; the catalog is empty"])
    return catalog.checked(keys[0])


# ---------------------------------------------------------------------------
# rendering


def table_rows(scenario: QuotientScenario, certified: bool) -> dict[str, str]:
    report = scenario.report
    row = {
        "c1^2": str(report.c1_sq),
        "c2": str(report.c2),
        "q": str(report.q),
        "p_g": str(report.p_g),
        "chi": str(report.chi),
        "g": "" if report.fiber_genus is None else str(report.fiber_genus),
        "Singularities": report.singularities,
        "Min": f"{scenario.annotations.get('minimal', '?')}*",
        "kappa": f"{scenario.annotations.get('kodaira', '?')}*" + (" certified" if certified else ""),
    }
    if scenario.table == 1:
        row["O"] = scenario.display.get("order", "")
        row["Type"] = scenario.display.get("type", "")
    else:
        row["G"] = scenario.display.get("group", "")
    return row


def run_tables(catalog_dir: Optional[Path] = None):
    """Both classification tables, in catalog order, as (columns, rows) pairs.

    A case's kappa cell says "certified" once its annotated rationality certificate
    exists; a missing one raises ``rationality_cases.NoCertificate``.
    """
    catalog = load_catalog(catalog_dir)
    for label in catalog:
        catalog.checked(label)
    from . import rationality_cases

    certified = {label for label, scenario in catalog.items()
                 if "rationality_case" in scenario.annotations and rationality_cases.certify_rationality(scenario)}
    tables = []
    for table_number, columns in ((1, TABLE1_COLUMNS), (2, TABLE2_COLUMNS)):
        members = sorted(
            (s for s in catalog.values() if s.table == table_number),
            key=lambda s: s.annotations.get("table_position", 0))
        rows = [table_rows(s, s.label in certified) for s in members]
        tables.append((columns, rows))
    return tables


def render_table(columns: tuple[str, ...], rows: list[dict[str, str]], fmt: str = "text") -> str:
    cells = [[row.get(c, "") for c in columns] for row in rows]
    widths = [max(len(columns[i]), *(len(r[i]) for r in cells)) if cells else len(columns[i])
              for i in range(len(columns))]
    if fmt == "markdown":
        head = "| " + " | ".join(columns) + " |"
        sep = "| " + " | ".join("-" * w for w in widths) + " |"
        body = ["| " + " | ".join(r[i] for i in range(len(columns))) + " |" for r in cells]
        return "\n".join([head, sep] + body)
    header = "  ".join(columns[i].ljust(widths[i]) for i in range(len(columns))).rstrip()
    lines = [header, "  ".join("-" * widths[i] for i in range(len(columns))).rstrip()]
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))).rstrip())
    return "\n".join(lines)


def report_to_json_dict(scenario: QuotientScenario) -> dict:
    """The scenario's own fields around its computed record; rationals are written as strings."""
    computed = scenario.report._asdict()
    flags = computed.pop("flags")
    return {
        "label": scenario.label,
        "table": scenario.table,
        "display": scenario.display,
        "computed": {key: str(value) if isinstance(value, Fraction) else value for key, value in computed.items()},
        "annotations": scenario.annotations,
        "flags": list(flags),
        "source": scenario.source,
    }


def render_report(scenario: QuotientScenario, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report_to_json_dict(scenario), indent=2, sort_keys=True)
    report = scenario.report
    items = []
    if scenario.source:
        items.append(f"data source: {scenario.source}")
    items.append(f"c1^2 = {report.c1_sq}   "
                 f"(K^2 of quotient {report.k2_quotient}, "
                 f"resolution correction {report.k2_correction})")
    items.append(f"c2   = {report.c2}   "
                 f"(quotient Euler number {report.euler_quotient} + "
                 f"{report.exceptional_components} exceptional components)")
    items.append(f"q = {report.q}, p_g = {report.p_g}, chi = {report.chi}, h^(1,1) = {report.h11}")
    if report.fiber_genus is not None:
        items.append(f"albanese fiber genus = {report.fiber_genus}")
    if report.singularities:
        items.append(f"singularities: {report.singularities}")
    items.append(f"noether check 12*chi = c1^2 + c2: {'ok' if report.noether_ok else 'FAILED'}")
    for flag in report.flags:
        items.append(f"flag: {flag}")
    annotated = {k: v for k, v in scenario.annotations.items() if k != "table_position"}
    if annotated:
        asserted = ", ".join(f"{k} = {v}*" for k, v in sorted(annotated.items()))
        items.append(f"annotations (asserted, not computed; marked *): {asserted}")
    if fmt == "markdown":
        return "\n".join([f"### case {scenario.label}"] + [f"- {item}" for item in items])
    return "\n".join([f"case {scenario.label}"] + [f"  {item}" for item in items])
