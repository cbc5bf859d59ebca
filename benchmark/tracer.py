"""Per-layer timings and counters, taken from outside the package.

``Tracer.install`` replaces each public function listed in ``TARGETS`` by a
wrapper, in every ``fanoquotients`` module that holds a reference to it, so
calls between modules are timed as well as calls from the benchmark.  A
metric's time is inclusive (nested spans of other metrics count in both) and
counts only the outermost call when a metric re-enters itself.  Spans entered
while no other span is open are top-level; their sum over an operation's wall
time is ``trace.coverage``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, metric); the counters are attached in Tracer.install
TARGETS = (
    ("catalog", "load_catalog", "catalog.load_s"),
    ("catalog", "scenario_from_dict", "catalog.parse_s"),
    ("catalog", "validate_scenario", "catalog.validate_s"),
    ("catalog", "render_table", "catalog.render_s"),
    ("catalog", "render_report", "catalog.render_s"),
    ("cyclotomic_rep", "group_closure", "cyclotomic_rep.closure_s"),
    ("cyclotomic_rep", "invariant_dimension", None),  # q_s or pg_s, by character
    ("quotient_engine", "full_report", "quotient_engine.report_s"),
    ("quotient_engine", "k2_quotient", "quotient_engine.k2_euler_s"),
    ("quotient_engine", "euler_quotient", "quotient_engine.k2_euler_s"),
    ("hj_resolution", "hj_continued_fraction", "hj_resolution.chain_s"),
    ("hj_resolution", "ExceptionalChain.from_selfints", "hj_resolution.chain_s"),
    ("mumford", "ResolutionModel.build", "mumford.model_build_s"),
    ("rationality_cases", "klein_stage1", "rationality_cases.stage1_s"),
    ("rationality_cases", "klein_stage2", "rationality_cases.stage2_s"),
    ("rationality_cases", "build_klein_config", "rationality_cases.config_build_s"),
    ("rationality_cases", "build_xv_config", "rationality_cases.config_build_s"),
    ("blowdown", "find_rationality_certificate", "blowdown.search_s"),
)

TOP_LEVEL = "trace.top_s"

# every per-layer metric a pass reports, 0 for a layer the pass never called;
# cli.command_s is the wall time of the cli ops themselves
TIMES = (
    "cli.command_s", "catalog.load_s", "catalog.parse_s", "catalog.validate_s", "catalog.render_s",
    "cyclotomic_rep.closure_s", "cyclotomic_rep.q_s", "cyclotomic_rep.pg_s",
    "quotient_engine.report_s", "quotient_engine.k2_euler_s", "hj_resolution.chain_s",
    "mumford.model_build_s", "rationality_cases.stage1_s", "rationality_cases.stage2_s",
    "rationality_cases.config_build_s", "blowdown.search_s",
)
COUNTS = (
    "catalog.scenarios", "cyclotomic_rep.group_elements", "hj_resolution.chains",
    "hj_resolution.components", "rationality_cases.stage1_solutions", "blowdown.contractions",
)


class Tracer:
    """Accumulates span times and counters until ``take`` hands them over."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._open: dict[str, int] = defaultdict(int)
        self._depth = 0
        self._catalogs_seen: list = []

    def take(self) -> dict[str, float]:
        out = dict(self.values)
        self.values.clear()
        return out

    def _count_catalog(self, catalog) -> list[tuple[str, int]]:
        # load_catalog returns its cached dict on a hit; count each dict once
        if any(catalog is seen for seen in self._catalogs_seen):
            return []
        self._catalogs_seen.append(catalog)
        return [("catalog.scenarios", len(catalog))]

    def span(self, func, metric, count=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            name = metric(args) if callable(metric) else metric
            outermost = self._open[name] == 0
            top = self._depth == 0
            self._open[name] += 1
            self._depth += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                self._open[name] -= 1
                if outermost:
                    self.values[name] += elapsed
                if top:
                    self.values[TOP_LEVEL] += elapsed
            if count is not None:
                for key, value in count(result):
                    self.values[key] += value
            return result

        return wrapper

    def install(self) -> None:
        from fanoquotients import cyclotomic_rep

        counters = {
            "load_catalog": self._count_catalog,
            "group_closure": lambda g: [("cyclotomic_rep.group_elements", g.order)],
            "ExceptionalChain.from_selfints": lambda c: [
                ("hj_resolution.chains", 1), ("hj_resolution.components", len(c))],
            "klein_stage1": lambda s: [("rationality_cases.stage1_solutions", len(s))],
            "find_rationality_certificate": lambda c: (
                [("blowdown.contractions", len(c.contractions))] if c is not None else []),
        }

        def character_metric(args):
            is_pg = args[1] is cyclotomic_rep.exterior_square_trace
            return "cyclotomic_rep.pg_s" if is_pg else "cyclotomic_rep.q_s"

        for module_name, attr, metric in TARGETS:
            module = importlib.import_module(f"fanoquotients.{module_name}")
            count = counters.get(attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                setattr(cls, method, classmethod(self.span(raw.__func__, metric, count)))
                continue
            original = getattr(module, attr)
            wrapped = self.span(original, metric or character_metric, count)
            for name, loaded in list(sys.modules.items()):
                if name == "fanoquotients" or name.startswith("fanoquotients."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)
