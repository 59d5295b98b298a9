"""One benchmark pass in a fresh interpreter; prints one JSON line.

Set-up (interpreter start, ``import cachegeo``, input generation) ends at
``ready``, a CLOCK_MONOTONIC reading the runner compares with its own
spawn time.  The timed pass then runs cold: nothing is warmed first.
The speed gauge (gauge.py) ticks from the start of ``main`` to the end of
the pass; times are reported raw and in reference seconds.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--smoke] [--spans PATH]
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import gauge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    gauge.start()
    gauge_begin = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None, help="write the traced pass's spans here")
    args = parser.parse_args(argv)

    import cachegeo
    import numpy
    import scipy

    if Path(cachegeo.__file__).resolve().parent != SRC / "cachegeo":
        print(f"cachegeo imported from {cachegeo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    sizes = cls.smoke_sizes if args.smoke else cls.full_sizes
    workdir = ROOT / ".bench_out" / f"pass-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = cls(args.seed, sizes, workdir)
        tracer = tracing.Tracer() if args.trace else None
        ready, ready_pc = time.monotonic(), time.perf_counter()
        if tracer is not None:
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            workload.run(tracer.span if tracer is not None else workloads.untraced)
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            gauge.stop()
            if tracer is not None:
                tracer.uninstall()
        setup_gauge = gauge.window(gauge_begin, ready_pc)
        pass_gauge = gauge.window(wall0, wall0 + wall)
        factor = pass_gauge["factor"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks, estimates = workload.check()
        result = {
            "workload": args.workload,
            "traced": args.trace,
            "ready": ready,
            "wall_s": (wall - pass_gauge["inside_s"]) * factor,
            "cpu_s": (cpu - pass_gauge["inside_s"]) * factor,
            "raw_wall_s": wall,
            "raw_cpu_s": cpu,
            "pass_gauge": pass_gauge,
            "setup_gauge": setup_gauge,
            "peak_rss_mb": peak_rss_mb,
            "checks": checks,
            "estimates": estimates,
            "values": workload.values,
            "digest": workload.digest(),
            "sizes": sizes,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        }
        if tracer is not None:
            result["trace"] = tracer.summary(wall)
            for name, value in result["trace"]["metrics"].items():
                if tracing.PER_LAYER_UNITS[name] in ("s", "us"):
                    result["trace"]["metrics"][name] = value * factor
            if args.spans:
                tracer.dump(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
