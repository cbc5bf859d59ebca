"""Each derived value of a scenario is computed once per command, a one-case
command computes it only for its case, and only ``rationality`` loads the
certificate modules.

The counts come from a fresh interpreter, so no process-level cache filled by
an earlier test can hide repeated work.  Calls are counted by replacing each
function in every ``fanoquotients`` module that holds a reference to it, the
way ``benchmark/tracer.py`` wraps them for timing.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import fanoquotients
from fanoquotients import rationality_cases
from fanoquotients.hj_resolution import ExceptionalChain

SRC = pathlib.Path(fanoquotients.__file__).resolve().parents[1]

COUNTING_RUN = """
import contextlib, importlib, io, json, sys
from fanoquotients import cli

modules = {
    "full_report": "quotient_engine",
    "invariant_dimension": "cyclotomic_rep",
    "exterior_square_trace": "cyclotomic_rep",
    "scenario_from_dict": "catalog",
    "group_closure": "cyclotomic_rep",
    "klein_stage1": "rationality_cases",
    "build_klein_config": "rationality_cases",
    "build_xv_config": "rationality_cases",
    "find_rationality_certificate": "blowdown",
}
names = json.loads(sys.argv[1])
counts = dict.fromkeys(names, 0)
for name in names:
    original = getattr(importlib.import_module("fanoquotients." + modules[name]), name)

    def counted(*args, _name=name, _original=original, **kwargs):
        counts[_name] += 1
        return _original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("fanoquotients"):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, counted)
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[2:])
loaded = sorted(name for name in sys.modules if name.startswith("fanoquotients"))
print(json.dumps({"rc": rc, "modules": loaded, **counts}))
"""


def count_calls(argv, names=()):
    """Run ``fanoq argv`` in a fresh interpreter, counting calls to ``names``;
    only the modules that hold ``names`` are imported before the command runs."""
    proc = subprocess.run([sys.executable, "-c", COUNTING_RUN, json.dumps(list(names)), *argv],
                          capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv, expected", [
    # 19 scenarios: one parse, one closure, one report and two character averages each;
    # the Lefschetz check and p_g share one exterior square per element (113 = sum of |G|)
    # the table's certified marks build and search each certificate configuration once
    (["tables"], {"rc": 0, "full_report": 19, "invariant_dimension": 38, "scenario_from_dict": 19,
                  "group_closure": 19, "klein_stage1": 1, "exterior_square_trace": 113,
                  "build_xv_config": 1, "build_klein_config": 2, "find_rationality_certificate": 3}),
    # the transcript and both certificates share one stage-1 result, the XI report and one
    # build per option
    (["rationality", "klein"], {"rc": 0, "full_report": 1, "klein_stage1": 1, "group_closure": 1,
                                "build_xv_config": 0, "build_klein_config": 2, "find_rationality_certificate": 2}),
    # the transcript prints the matrix of the configuration the certificate starts from
    (["rationality", "xv"], {"rc": 0, "group_closure": 1,
                             "build_xv_config": 1, "build_klein_config": 0, "find_rationality_certificate": 1}),
    # every file is parsed, but only the asked case is closed and reported
    (["report", "XI"], {"rc": 0, "group_closure": 1, "full_report": 1, "scenario_from_dict": 19}),
], ids=["tables", "rationality-klein", "rationality-xv", "report-xi"])
def test_each_value_computed_once(argv, expected):
    counts = count_calls(argv, [key for key in expected if key != "rc"])
    assert {key: counts[key] for key in expected} == expected


@pytest.mark.parametrize("argv", [["report", "XI"], ["resolve", "11", "3"]], ids=["report-xi", "resolve"])
def test_certificate_modules_load_only_for_rationality(argv):
    counts = count_calls(argv)
    assert counts["rc"] == 0
    assert not {"fanoquotients.rationality_cases", "fanoquotients.blowdown", "fanoquotients.mumford"} \
        & set(counts["modules"])


START_UP_RUN = """
import json, sys
preloaded = set(sys.modules)
from fanoquotients import cli
imported = set(sys.modules) - preloaded
rc = cli.main(["rationality", "klein"])
print(json.dumps([rc, sorted(imported), sorted(set(sys.modules) - preloaded)]))
"""


def test_start_up_leaves_out_dataclasses_inspect_and_ast():
    # dataclasses imports inspect, ast, dis and tokenize, and writes the methods of
    # each class with exec: about 8 ms of every fresh-process command
    proc = subprocess.run([sys.executable, "-c", START_UP_RUN], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    rc, after_import, after_command = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    for loaded in (after_import, after_command):
        assert not {"dataclasses", "inspect", "ast"} & set(loaded)


@pytest.mark.parametrize("build, solves", [
    # one solve per (curve, singular point): klein 5 curves x 3 points; xv 3 + 3 + 2 + 2
    *[(lambda option=option: rationality_cases.build_klein_config(option), 15)
      for option in [(4, 1, 5, 4), (5, 4, 4, 1)]],  # the stage-2 survivors
    (rationality_cases.build_xv_config, 10),
], ids=["klein-option-1", "klein-option-2", "xv"])
def test_strict_transforms_solved_once(monkeypatch, build, solves):
    calls = []
    original = ExceptionalChain.solve
    monkeypatch.setattr(ExceptionalChain, "solve", lambda chain, rhs: calls.append(rhs) or original(chain, rhs))
    build()
    assert len(calls) == solves


@pytest.mark.parametrize("option", [(4, 1, 5, 4), (5, 4, 4, 1)], ids=["klein-option-1", "klein-option-2"])
def test_klein_incidences_found_once_per_coefficient_pair(monkeypatch, option):
    # three coefficient pairs, each placed at one point of every curve: one integrality check per pair
    rationality_cases._klein_stages()  # the stages make their own checks, once per process
    calls = []
    original = rationality_cases._whole
    monkeypatch.setattr(rationality_cases, "_whole", lambda x: calls.append(x) or original(x))
    rationality_cases.build_klein_config(option)
    assert len(calls) == 3
