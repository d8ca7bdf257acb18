#!/usr/bin/env python3
"""Record the correctness gate's references: run every op of every workload
once and write ``perfbench/reference.json``.

    python3 perfbench/record_reference.py

Solves and sweeps record rho; verifies record the certificate kinds and
their seed-independent constants.  Recording refuses an op whose command
fails or does not converge.  Re-record only when a change is meant to alter
these numbers, and say so with the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    riskmdp = run.load_program()
    reference = {}
    for name in run.WORKLOADS:
        _, ops = run.workload(name)
        work = run.WORK / f"record-{name}-{os.getpid()}"
        try:
            paths = run.write_configs(ops, work)
            entries = {}
            for op in ops:
                rc, wall = run.run_op(riskmdp, op, paths[op.label], seed=0)
                out = paths[op.label].parent / "out"
                if rc != 0:
                    raise SystemExit(f"{name} {op.label}: exit code {rc}")
                if op.command == "solve":
                    res = json.loads((out / "result.json").read_text())
                    if not res["converged"]:
                        raise SystemExit(f"{name} {op.label}: not converged")
                    entries[op.label] = {"rho": res["rho"]}
                elif op.command == "sweep":
                    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
                    entries[op.label] = {"rho": [float(r.split(",")[1]) for r in rows]}
                else:
                    report = json.loads((out / "certificates.json").read_text())
                    entries[op.label] = {"certificates": run.seed_independent(report)}
                print(f"{name} {op.label}: {wall:.2f}s", file=sys.stderr)
            reference[name] = entries
        finally:
            shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
