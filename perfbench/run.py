#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload tall-lstsq --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``
(tracing off); ``--trace 1`` runs the separate traced run and prints the
per-layer metrics.  Human-readable lines come first (host block, one
line per metric with its unit and sample count); the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The metric names and units are read from ``BENCHMARK.json`` at the root
of the checkout; the program is imported from ``src/`` of the same
checkout.  Without either the run exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import NoReturn

sys.dont_write_bytecode = True  # the checkout stays as it was

ROOT = Path(__file__).resolve().parent.parent
#: wall-clock after which a hung run kills its workers and exits
HARD_LIMIT_S = 170.0
#: a run stops issuing operations this long after it started
SOFT_LIMIT_S = 120.0

WORKLOADS = ("tall-lstsq", "square-process")


def _die(msg: str, code: int = 2) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def _watchdog() -> None:
    """Bound a hung run: stop its processes, exit without a result."""
    print(f"perfbench: no result after {HARD_LIMIT_S:.0f} s; aborting",
          file=sys.stderr, flush=True)
    try:
        import common
        common.stop_processes()
    finally:
        os._exit(3)


def _declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _die(f"{path.name} not found at the root of the checkout")
    spec = json.loads(path.read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared = _declared()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _die("no src/repro in this checkout: nothing to measure")
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.monotonic()
    guard = threading.Timer(HARD_LIMIT_S, _watchdog)
    guard.daemon = True
    guard.start()
    import common
    try:
        result = _measure(args, declared, t0 + SOFT_LIMIT_S)
    finally:
        guard.cancel()
        common.stop_processes()
    print(json.dumps(result))
    return 0


def _measure(args, declared: dict, deadline: float) -> dict:
    """Run the workload, print its lines; return the result object."""
    import common
    from repro.runtime import ProcessPool

    import factor_workloads as mod
    res = (mod.run_layers if args.trace else mod.run_end_to_end)(
        args.workload, args.seed, args.seconds, deadline)

    probe = ProcessPool()  # workers start lazily: this starts none
    start_method = probe.start_method
    probe.close()
    print("host: " + json.dumps(common.host_block(args.seed, start_method)))
    print("info: " + json.dumps(res["info"]))

    units = declared["per_layer" if args.trace else "end_to_end"]
    values = res["layers" if args.trace else "metrics"]
    unknown = sorted(set(values) - set(units))
    if unknown:
        _die(f"metrics missing from BENCHMARK.json: {unknown}", 1)
    if not args.trace:
        missing = sorted(set(units) - set(values))
        if missing:
            _die(f"end-to-end metrics not measured: {missing}", 1)
    idle = sorted(set(units) - set(values))
    if idle:  # layers this workload does not run report 0
        print("not exercised by this workload (0): " + ", ".join(idle))
    info = res["info"]
    metrics = {}
    for name, unit in units.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        n = "" if args.trace else (
            f"  (n={info['setup_samples' if name == 'setup_s' else 'samples']})")
        print(f"{name} = {value:.6g} {unit}{n}")
    return {"correct": res["failed"] == 0,
            "attempted": int(res["attempted"]),
            "failed": int(res["failed"]),
            "metrics": metrics}

if __name__ == "__main__":
    sys.exit(main())
