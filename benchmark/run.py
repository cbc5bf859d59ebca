"""Benchmark of the ``fanoq`` command-line tool, end to end and per layer.

    python3 benchmark/run.py --workload tables --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--workload all`` runs every workload in turn.  With ``--trace 0``
the end-to-end metrics are measured: every op of the cli workloads is one
fresh interpreter running the ``fanoq`` entry point, one at a time, so start-up
and the process-level caches cost what a user pays.  With ``--trace 1`` each
workload's ops run in-process in fresh worker interpreters (``worker.py``),
alternately traced and untraced, and the per-layer metrics are reported.
Every output is checked against ``tests/golden/`` or the oracle in
``refs.py``.  The last line of stdout is the result as one JSON object; the
line before it holds the header and details.  METRICS.md describes the
metrics and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from functools import partial
from pathlib import Path

import conjugate
import refs
import selfcheck
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("tables", "lookup", "conjugated", "hj_sweep")
ENTRY = "import sys; from fanoquotients.cli import main; sys.exit(main())"
IMPORT_PROBE = "import time, fanoquotients.cli; print(time.monotonic_ns())"
SETUP_SAMPLES = 5  # before the timed loop, which adds one per second
OP_TIMEOUT_S = 60
HJ_BATCH = 50  # n values per hj_sweep interpreter
HJ_RANGE = (256, 1006)  # n is drawn from one stratum of width 15 per batch slot
TRACE_WARM = 1

# ---------------------------------------------------------------------------
# processes


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], tmp: Path, timeout: float) -> dict:
    """Run one child to completion; wall time, exit code, stdout, peak RSS."""
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"wall": wall, "rc": proc.returncode, "rss_kb": usage.ru_maxrss,
                "stdout": out.read().decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace")}


def run_worker(spec: dict, tmp: Path) -> tuple[dict | None, dict]:
    proc = spawn([str(HERE / "worker.py"), json.dumps(spec)], tmp, OP_TIMEOUT_S * 2)
    if proc["rc"] != 0:
        return None, proc
    return json.loads(proc["stdout"]), proc


def setup_sample(tmp: Path) -> float:
    """Seconds from starting an interpreter to the end of ``import fanoquotients.cli``."""
    start = time.monotonic_ns()
    proc = spawn(["-c", IMPORT_PROBE], tmp, OP_TIMEOUT_S)
    if proc["rc"] != 0:
        raise RuntimeError(f"importing fanoquotients.cli failed: {proc['stderr'][-500:]}")
    return (int(proc["stdout"]) - start) / 1e9


# ---------------------------------------------------------------------------
# workloads: each yields blocks of (argv, checker) ops


def tables_blocks(ctx):
    while True:
        yield [(["tables"], partial(refs.compare, expected=ctx.refs.tables, expected_rc=0))]


def conjugated_blocks(ctx):
    argv = ["--catalog", str(ctx.catalog_dir), "tables"]
    while True:
        yield [(argv, partial(refs.compare, expected=ctx.refs.tables, expected_rc=0))]


def lookup_op(ctx, rng: random.Random, kind: str, labels: list[str]) -> tuple:
    """One op of the given kind, with seeded arguments; reports take their
    label from ``labels``, refilled with a fresh permutation of all 19."""
    r = ctx.refs
    if kind == "report":
        if not labels:
            labels += sorted(r.reports)
            rng.shuffle(labels)
        label = labels.pop()
        text, code = r.reports[label]
        return ["--format", "json", "report", label], partial(refs.compare, expected=text, expected_rc=code)
    if kind in ("klein", "xv"):
        return ["rationality", kind], partial(refs.compare, expected=r.rationality[kind], expected_rc=0)
    if kind == "resolve":
        n = rng.randrange(2, 500)
        q = rng.choice(refs.coprime_residues(n))
        return ["resolve", str(n), str(q)], partial(_check_resolve, n, q)
    data_file = rng.choice(r.data_files)
    return ["validate", data_file], partial(refs.compare, expected=f"{data_file}: ok\n", expected_rc=0)


def _check_resolve(n: int, q: int, got: str, rc: int) -> str | None:
    return f"exit code {rc}, expected 0" if rc else refs.check_resolve_text(n, q, got)


# A block has a fixed mix so every run sees the same proportions.  Sorted by
# time the kinds form clusters (resolve < validate < report < xv < klein); the
# weights put the median well inside the reports and the tail (ten samples
# above it, out of 70 to 100 ops a run) well inside the klein proofs, where a
# few ops more or less in a run cannot move either across a cluster boundary.
LOOKUP_BLOCK = ("resolve",) * 2 + ("validate", "xv") + ("report",) * 3 + ("klein",) * 3


def lookup_blocks(ctx):
    rng = random.Random(f"lookup-{ctx.seed}")
    labels: list[str] = []
    while True:
        block = [lookup_op(ctx, rng, kind, labels) for kind in LOOKUP_BLOCK]
        rng.shuffle(block)
        yield block


def hj_batch(rng: random.Random) -> list[int]:
    lo, hi = HJ_RANGE
    width = (hi - lo) // HJ_BATCH
    return [lo + i * width + rng.randrange(width) for i in range(HJ_BATCH)]


# ---------------------------------------------------------------------------
# end-to-end run


def tail(walls: list[float]) -> tuple[float, float, int]:
    """The value at the highest percentile with at least ten samples above it."""
    ordered = sorted(walls)
    if len(ordered) < 11:
        return statistics.median(ordered), 50.0, len(ordered)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def measure_e2e(ctx, seconds: float) -> tuple[dict, dict]:
    """Ops one at a time for ``seconds``, plus one set-up sample per second of it."""
    walls, rss, failures = [], [], []
    setup = [setup_sample(ctx.tmp) for _ in range(SETUP_SAMPLES)]
    attempted = 0
    start = last_setup = time.perf_counter()
    deadline = start + seconds
    batches = BLOCKS[ctx.workload](ctx)
    while time.perf_counter() < deadline:
        if time.perf_counter() - last_setup >= 1.0:
            setup.append(setup_sample(ctx.tmp))
            last_setup = time.perf_counter()
        batch = next(batches)
        if ctx.workload == "hj_sweep":
            result, proc = run_worker({"ops": [{"kind": "hj", "n": n} for n in batch], "warm": 0,
                                       "trace": False}, ctx.tmp)
            attempted += len(batch)
            rss.append(proc["rss_kb"])
            if result is None:
                failures += [f"worker exit {proc['rc']}: {proc['stderr'][-300:]}"] * len(batch)
                continue
            for op in result["passes"][0]["ops"]:
                walls.append(op["wall"])
                if op["error"]:
                    failures.append(op["error"])
            continue
        for argv, check in batch:
            proc = spawn(["-c", ENTRY, *argv], ctx.tmp, OP_TIMEOUT_S)
            attempted += 1
            walls.append(proc["wall"])
            rss.append(proc["rss_kb"])
            error = check(got=proc["stdout"], rc=proc["rc"])
            if error:
                failures.append(f"fanoq {' '.join(argv)}: {error}")
    elapsed = time.perf_counter() - start
    tail_value, tail_pct, samples = tail(walls)
    correct = attempted - len(failures)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (correct / elapsed, "1/s"),
        "correct_frac": (correct / attempted, "frac"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
    }
    details = {"op_tail_s": {"percentile": round(tail_pct, 2), "samples": samples},
               "failed_frac": {"value": len(failures) / attempted, "unit": "frac"},
               "setup_samples": len(setup), "measured_s": elapsed}
    return {"attempted": attempted, "failures": failures, "metrics": metrics}, details


def hj_blocks(ctx):
    rng = random.Random(f"hj_sweep-{ctx.seed}")
    while True:
        yield hj_batch(rng)


BLOCKS = {"tables": tables_blocks, "lookup": lookup_blocks, "conjugated": conjugated_blocks,
          "hj_sweep": hj_blocks}


# ---------------------------------------------------------------------------
# traced run


def trace_ops(ctx, rng: random.Random) -> tuple[list[dict], list]:
    """The ops one worker runs, with the checkers of its cli ops (the worker
    checks hj ops itself)."""
    if ctx.workload == "hj_sweep":
        return [{"kind": "hj", "n": n} for n in hj_batch(rng)[::6]], []
    if ctx.workload == "lookup":
        kinds = ["report", rng.choice(("klein", "xv")), "resolve", "validate"]
        rng.shuffle(kinds)
        chosen = [lookup_op(ctx, rng, kind, []) for kind in kinds]
    else:
        chosen = next(BLOCKS[ctx.workload](ctx))
    return [{"kind": "cli", "argv": argv} for argv, _ in chosen], [check for _, check in chosen]


def measure_trace(ctx, seconds: float) -> tuple[dict, dict]:
    rng = random.Random(f"trace-{ctx.workload}-{ctx.seed}")
    imports, cold_walls = [], {False: [], True: []}
    cold, warm = [], []
    failures: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not (cold or failures):
        ops, checks = trace_ops(ctx, rng)
        # alternate which of the pair runs first, so drift does not bias the overhead
        for traced in ((False, True) if len(cold) % 2 == 0 else (True, False)):
            result, proc = run_worker({"ops": ops, "warm": TRACE_WARM, "trace": traced}, ctx.tmp)
            attempted += len(ops) * (1 + TRACE_WARM)
            if result is None:
                failures += [f"worker exit {proc['rc']}: {proc['stderr'][-300:]}"] * (len(ops) * (1 + TRACE_WARM))
                continue
            imports.append(result["import_s"])
            for number, p in enumerate(result["passes"]):
                for i, op in enumerate(p["ops"]):
                    error = op["error"] if "error" in op else checks[i](got=op["stdout"], rc=op["rc"])
                    if error:
                        failures.append(f"{ops[i]}: {error}")
                if number == 0:
                    cold_walls[traced].append(sum(op["wall"] for op in p["ops"]))
            if traced:
                values = [layer_values(p) for p in result["passes"]]
                cold.append(values[0])
                warm.append({k: statistics.median(v[k] for v in values[1:]) for k in values[0]})

    def median_of(samples, key):
        return statistics.median(s[key] for s in samples)

    metrics = {"cli.import_s": (statistics.median(imports), "s")}
    for key in tracer.TIMES + tracer.COUNTS:
        unit = "s" if key.endswith("_s") else "count"
        metrics[key] = (median_of(cold, key), unit)
        metrics[f"{key}.warm"] = (median_of(warm, key), unit)
    metrics["trace.coverage"] = (median_of(cold, "trace.coverage"), "frac")
    metrics["trace.overhead_frac"] = (
        statistics.median(cold_walls[True]) / statistics.median(cold_walls[False]) - 1, "frac")
    details = {"workers": len(cold), "ops_per_worker": len(ops), "warm_passes": TRACE_WARM}
    return {"attempted": attempted, "failures": failures, "metrics": metrics}, details


def layer_values(traced_pass: dict) -> dict[str, float]:
    layers = traced_pass["layers"]
    values = {key: layers.get(key, 0.0) for key in tracer.TIMES + tracer.COUNTS}
    values["cli.command_s"] = sum(op["wall"] for op in traced_pass["ops"] if "stdout" in op)
    total = sum(op["wall"] for op in traced_pass["ops"])
    values["trace.coverage"] = layers.get("trace.top_s", 0.0) / total
    return values


# ---------------------------------------------------------------------------
# driver


class Context:
    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.refs = refs.References(ROOT)
        self.catalog_dir = None
        if workload == "conjugated":
            self.catalog_dir = Path(tempfile.mkdtemp(prefix="catalog-", dir=tmp))
            conjugate.write_conjugated_catalog(SRC / "fanoquotients" / "data", self.catalog_dir, seed)


def header(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    py_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in py_files:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    revision = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = git.stdout.strip() or revision
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_revision": revision, "src_sha256": digest.hexdigest()[:16],
        "src_lines": sum(len(p.read_text().splitlines()) for p in py_files),
        "python": platform.python_version(), "nproc": os.cpu_count(),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, tmp: Path) -> tuple[dict, dict]:
    ctx = Context(workload, seed, tmp)
    if trace:
        outcome, details = measure_trace(ctx, seconds)
    else:
        outcome, details = measure_e2e(ctx, seconds)
    if ctx.catalog_dir is not None:
        shutil.rmtree(ctx.catalog_dir)
    for failure in outcome["failures"][:5]:
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    result = {
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(outcome["metrics"].items())},
    }
    return result, {"header": header(workload, seed, seconds, trace), "details": details}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fanoquotients" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"{ROOT} is not a fanoquotients checkout (no src/fanoquotients or tests/golden)",
              file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        selfcheck.run_all(ROOT, tmp)
        compile_src = spawn(["-m", "compileall", "-q", str(SRC)], tmp, OP_TIMEOUT_S)
        if compile_src["rc"] != 0:
            raise RuntimeError(f"compileall failed: {compile_src['stdout'][-500:]}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name], info = run_workload(name, args.seed, args.seconds, bool(args.trace), tmp)
            print(json.dumps(info))
            if args.workload == "all":
                print(json.dumps({"workload": name, **results[name]}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.workload == "all":
        merged = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
        print(json.dumps(merged))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
