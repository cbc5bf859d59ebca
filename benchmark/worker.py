"""Run benchmark operations in-process, in one fresh interpreter.

    python3 benchmark/worker.py SPEC_JSON

SPEC_JSON is {"ops": [...], "warm": k, "trace": bool}.  An op is
{"kind": "cli", "argv": [...]} (``fanoquotients.cli.main(argv)`` with stdout
captured) or {"kind": "hj", "n": n} (every A_{n,q} with gcd(n, q) = 1 through
``CyclicSing(n, q).chain()``, ``.discrepancies`` and ``.k2_correction()``).
The ops run once cold and then ``warm`` more times; with ``trace`` the layer
spans of ``tracer.py`` are recorded per pass.  The result is one JSON object
on stdout.  CLI outputs are returned for the caller to check; hj results are
checked here, after timing, by the integer oracle in ``refs.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def run_cli(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    wall = time.perf_counter() - start
    return {"wall": wall, "rc": rc or 0, "stdout": out.getvalue()}


def run_hj(cyclic_sing, residues: list[int], n: int) -> tuple[dict, list]:
    start = time.perf_counter()
    results = []
    for q in residues:
        sing = cyclic_sing(n, q)
        chain = sing.chain()
        results.append((q, sing.q, chain.selfints, chain.discrepancies, chain.k2_correction()))
    wall = time.perf_counter() - start
    return {"wall": wall, "components": sum(len(r[2]) for r in results)}, results


def main() -> None:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import fanoquotients.cli as cli
    import_s = time.perf_counter() - start

    from fanoquotients.hj_resolution import CyclicSing

    import refs

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    residues = {op["n"]: refs.coprime_residues(op["n"]) for op in spec["ops"] if op["kind"] == "hj"}
    passes = []
    for _ in range(1 + spec["warm"]):
        records = []
        for op in spec["ops"]:
            if op["kind"] == "cli":
                records.append(run_cli(cli, op["argv"]))
                continue
            n = op["n"]
            record, results = run_hj(CyclicSing, residues[n], n)
            record["error"] = next(filter(None, (refs.check_chain(n, *r) for r in results)), None)
            records.append(record)
        passes.append({"ops": records, "layers": tracer.take() if tracer else {}})
    json.dump({"import_s": import_s, "passes": passes}, sys.stdout)


if __name__ == "__main__":
    main()
