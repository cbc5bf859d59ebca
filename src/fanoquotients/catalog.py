"""The scenario catalog: JSON data files, validation, reports and tables.

One file per quotient case.  The file format (``schema: 1``) is documented in
docs/scenario_schema.md; numbers in the files are fixed-point and
intersection data on the base surface, while everything in a report is
computed from them.  The catalog annotations (minimality, Kodaira dimension)
are literature assertions and are rendered with a trailing ``*`` so they can
never be mistaken for computed values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

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

TABLE1_COLUMNS = ("O", "Type", "c1^2", "c2", "q", "p_g", "chi", "g", "Singularities", "Min", "kappa")
TABLE2_COLUMNS = ("G", "c1^2", "c2", "q", "p_g", "chi", "g", "Singularities", "Min", "kappa")


class UnknownCase(KeyError):
    pass


class InvalidScenario(ValueError):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# loading


def _parse_fraction(value, path: str, diags: list[str]) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        diags.append(f"{path}: not a rational number: {value!r}")
        return Fraction(0)


def _objects(value, path: str, diags: list[str]) -> list[tuple[int, dict]]:
    """The (index, entry) pairs of a JSON array of objects; anything else is a diagnostic."""
    if not isinstance(value, list):
        diags.append(f"{path}: must be an array")
        return []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            diags.append(f"{path}[{i}]: must be an object")
    return [(i, entry) for i, entry in enumerate(value) if isinstance(entry, dict)]


def _parse_generator(entry: dict, conductor: int, path: str, diags: list[str]) -> Optional[CycMatrix]:
    rows = entry.get("rows")
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


def scenario_from_dict(data: dict, *, diagnostics: Optional[list[str]] = None) -> Optional[QuotientScenario]:
    """Parse and validate one scenario file; return None and fill diagnostics on failure."""
    diags: list[str] = [] if diagnostics is None else diagnostics
    if not isinstance(data, dict):
        diags.append("scenario: must be a JSON object")
        return None
    if data.get("schema") != SCHEMA_VERSION or type(data.get("schema")) is bool:
        diags.append(f"schema: expected {SCHEMA_VERSION}, got {data.get('schema')!r}")
    label = data.get("label")
    if not isinstance(label, str) or not label:
        diags.append("label: missing or empty")
        label = "?"
    group = data.get("group", {})
    if not isinstance(group, dict):
        diags.append("group: must be an object")
        group = {}
    conductor = group.get("conductor", 1)
    # integer fields are checked by type(), since bool subclasses int and JSON true is no integer
    if type(conductor) is not int or not 1 <= conductor <= MAX_CONDUCTOR:
        diags.append(f"group.conductor: must be an integer from 1 to {MAX_CONDUCTOR}")
        conductor = 1
    generators = []
    for i, gen in _objects(group.get("generators", []), "group.generators", diags):
        matrix = _parse_generator(gen, conductor, f"group.generators[{i}]", diags)
        if matrix is not None:
            generators.append(matrix)

    strata = []
    for i, st in _objects(data.get("strata", []), "strata", diags):
        order = st.get("stabilizer_order")
        euler = st.get("euler")
        note = st.get("note", "")
        if type(order) is not int or order < 2:
            diags.append(f"strata[{i}].stabilizer_order: must be an integer >= 2")
            continue
        if type(euler) is not int:
            diags.append(f"strata[{i}].euler: must be an integer")
            continue
        if not isinstance(note, str):
            diags.append(f"strata[{i}].note: must be a string")
            continue
        strata.append(Stratum(order, euler, note))

    ram = []
    ram_entries = _objects(data.get("ramification", []), "ramification", diags)
    ram_names = [r.get("name") for _, r in ram_entries]
    for i, r in ram_entries:
        name = r.get("name")
        if not isinstance(name, str) or not name:
            diags.append(f"ramification[{i}].name: missing")
            continue
        index = r.get("index")
        if type(index) is not int or index < 2:
            diags.append(f"ramification[{i}].index: must be an integer >= 2")
            continue
        meets_data = r.get("meets") or {}
        if not isinstance(meets_data, dict):
            diags.append(f"ramification[{i}].meets: must be an object")
            continue
        meets = {}
        for other, value in meets_data.items():
            if other not in ram_names:
                diags.append(f"ramification[{i}].meets.{other}: unknown curve name")
                continue
            meets[other] = _parse_fraction(value, f"ramification[{i}].meets.{other}", diags)
        ram.append(RamificationCurve(
            name, index,
            _parse_fraction(r.get("self_int"), f"ramification[{i}].self_int", diags),
            _parse_fraction(r.get("k_degree"), f"ramification[{i}].k_degree", diags),
            meets))
    for i, r in enumerate(ram):
        for s in ram[i + 1:]:
            a, b = r.meets.get(s.name), s.meets.get(r.name)
            if a is None and b is None:
                diags.append(f"ramification: no intersection value for pair ({r.name}, {s.name})")
            elif a is not None and b is not None and a != b:
                diags.append(f"ramification: asymmetric values for pair ({r.name}, {s.name}): {a} vs {b}")

    sings = []
    for i, s in _objects(data.get("singularities", []), "singularities", diags):
        n, q, count = s.get("n"), s.get("q"), s.get("count", 1)
        if not (type(n) is int and type(q) is int and type(count) is int and count >= 1):
            diags.append(f"singularities[{i}]: need integer n, q and a positive count")
            continue
        try:
            sings.append((CyclicSing(n, q), count))
        except ValueError as exc:
            diags.append(f"singularities[{i}]: {exc}")

    fibration = None
    fib = data.get("fibration")
    if fib is not None:
        values = [fib.get(k) for k in ("fiber_genus", "deck_order", "ramification")] if isinstance(fib, dict) else []
        if values and all(type(v) is int for v in values):
            fibration = Fibration(*values)
        else:
            diags.append("fibration: needs integer fiber_genus, deck_order, ramification")

    for key in ("annotations", "display"):
        if not isinstance(data.get(key, {}), dict):
            diags.append(f"{key}: must be an object")
    display = data.get("display", {})
    if isinstance(display, dict) and any(not isinstance(v, str) for v in display.values()):
        diags.append("display: every value must be a string")  # the table cells are these strings
    annotations = data.get("annotations", {})
    if isinstance(annotations, dict) and "rationality_case" in annotations \
            and annotations["rationality_case"] not in ("klein", "xv"):
        diags.append('annotations.rationality_case: must be "klein", "xv" or absent')
    table = data.get("table")
    if table is not None and not (type(table) is int and table in (1, 2)):
        diags.append("table: must be 1, 2 or null")
    if data.get("table_position") is not None and type(data["table_position"]) is not int:
        diags.append("table_position: must be an integer or null")
    if not isinstance(data.get("source", ""), str):
        diags.append("source: must be a string")
    if diags:
        return None
    annotations = dict(annotations)
    if data.get("table_position") is not None:
        annotations["table_position"] = data["table_position"]
    scenario = QuotientScenario(
        label=label,
        generators=tuple(generators),
        strata=tuple(strata),
        ramification=tuple(ram),
        singularities=tuple(sings),
        fibration=fibration,
        annotations=annotations,
        display=dict(display),
        table=table,
        source=data.get("source", ""),
    )
    return scenario


def _group_diagnostics(scenario: QuotientScenario) -> list[str]:
    """The checks of a parsed scenario that need its group; empty = ok."""
    diags: list[str] = []
    try:
        order = scenario.group().order
    except Exception as exc:
        return [f"group: closure failed: {exc}"]
    for i, st in enumerate(scenario.strata):
        if order % st.order != 0:
            diags.append(f"strata[{i}].stabilizer_order: {st.order} does not divide |G| = {order}")
    for i, r in enumerate(scenario.ramification):
        if order % r.index != 0:
            diags.append(f"ramification[{i}].index: {r.index} does not divide |G| = {order}")
    # the stabiliser of an A_{n,q} point is cyclic of order n; this also bounds its chain length
    for i, (sing, _) in enumerate(scenario.singularities):
        if order % sing.n != 0:
            diags.append(f"singularities[{i}].n: {sing.n} does not divide |G| = {order}")
    if not diags:
        try:
            from_strata, from_group = euler_quotient(scenario), lefschetz_euler_quotient(scenario.group())
        except ArithmeticError as exc:
            diags.append(f"strata: {exc}")
        else:
            if from_strata != from_group:
                diags.append(f"strata: e(S/G) = {from_strata} from the strata, but the generators give "
                             f"{from_group} (topological Lefschetz)")
    if scenario.fibration is not None:
        fib = scenario.fibration
        try:
            albanese_fiber_genus(fib.fiber_genus, fib.deck_order, fib.ramification)
        except ArithmeticError as exc:
            diags.append(f"fibration: {exc}")
    return diags


def validate_scenario(data: dict) -> list[str]:
    """Structural plus semantic validation; returns diagnostics (empty = ok)."""
    diags: list[str] = []
    scenario = scenario_from_dict(data, diagnostics=diags)
    return diags if scenario is None else _group_diagnostics(scenario)


def _data_files(catalog_dir: Optional[Path] = None) -> Iterable[tuple[str, dict]]:
    root = Path(__file__).with_name("data") if catalog_dir is None else Path(catalog_dir)
    if not root.is_dir():  # a missing directory would otherwise read as an empty catalog
        raise InvalidScenario([f"{root}: catalog is not a directory"])
    for entry in sorted(root.glob("*.json")):
        try:
            data = json.loads(entry.read_text())
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise InvalidScenario([f"{entry.name}: {exc}"]) from exc
        yield entry.name, data


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
    """Read and parse every scenario file, keyed by label.

    Malformed files and duplicate labels fail here, for every command; the
    group checks wait for ``Catalog.checked``.
    """
    cache_key = str(catalog_dir) if catalog_dir is not None else None
    if cache_key in _CATALOG_CACHE:
        return _CATALOG_CACHE[cache_key]
    catalog = Catalog()
    for name, data in _data_files(catalog_dir):
        diags: list[str] = []
        scenario = scenario_from_dict(data, diagnostics=diags)
        if diags:
            raise InvalidScenario([f"{name}: {d}" for d in diags])
        if scenario.label in catalog:
            raise InvalidScenario([f"{name}: duplicate label {scenario.label}"])
        catalog[scenario.label] = scenario
        catalog.unchecked[scenario.label] = name
    _CATALOG_CACHE[cache_key] = catalog
    return catalog


def find_case(label: str, catalog_dir: Optional[Path] = None) -> QuotientScenario:
    """The checked scenario of one case; its label matches case-insensitively."""
    catalog = load_catalog(catalog_dir)
    key = label if label in catalog else next((k for k in catalog if k.lower() == label.lower()), None)
    if key is None:
        raise UnknownCase(f"unknown case {label!r}; known: {', '.join(sorted(catalog))}")
    return catalog.checked(key)


# ---------------------------------------------------------------------------
# rendering


def _kappa_text(scenario: QuotientScenario, certified: bool) -> str:
    kappa = str(scenario.annotations.get("kodaira", "?"))
    text = f"{kappa}*"
    if certified:
        text += " certified"
    return text


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
        "kappa": _kappa_text(scenario, certified),
    }
    if scenario.table == 1:
        row["O"] = scenario.display.get("order", "")
        row["Type"] = scenario.display.get("type", "")
    else:
        row["G"] = scenario.display.get("group", "")
    return row


def _certified_cases(catalog: dict[str, QuotientScenario]) -> set[str]:
    """Labels whose annotated rationality certificate actually exists; a
    missing one raises ``rationality_cases.NoCertificate``."""
    from . import rationality_cases

    return {label for label, scenario in catalog.items()
            if "rationality_case" in scenario.annotations and rationality_cases.certify_rationality(scenario)}


def run_tables(catalog_dir: Optional[Path] = None):
    """Both classification tables, in catalog order, as (columns, rows) pairs."""
    catalog = load_catalog(catalog_dir)
    for label in catalog:
        catalog.checked(label)
    certified = _certified_cases(catalog)
    tables = []
    for table_number, columns in ((1, TABLE1_COLUMNS), (2, TABLE2_COLUMNS)):
        members = sorted(
            (s for s in catalog.values() if s.table == table_number),
            key=lambda s: s.annotations.get("table_position", 0))
        rows = [table_rows(s, s.label in certified) for s in members]
        tables.append((columns, rows))
    return tables


def render_table(columns: tuple[str, ...], rows: list[dict[str, str]], fmt: str = "text") -> str:
    if fmt == "json":
        payload = [{c: row.get(c, "") for c in columns} for row in rows]
        return json.dumps(payload, indent=2, sort_keys=True)
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
