"""cachegeo benchmark runner.

    python3 perfbench/run.py --workload {load-models,design-sweep,noise-mc}
                             --seed N --seconds S --trace {0,1} [--smoke]

Runs fresh-interpreter passes of one workload (perfbench/worker.py) until
S seconds have gone, at least one.  Every pass re-creates the same inputs
from the seed, so the passes repeat one measurement; the runner reports
medians.  Times are in reference seconds: each pass's speed gauge
(gauge.py) converts them to the machine speed of a quiet minute, so the
figures do not follow the shared machine's drift.  The raw times stay in
the record.  With --trace 0 the final line holds the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and holds the
per-layer metrics of the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count output
checks (check_fail_ratio = failed / attempted).  The full record, with the
Monte Carlo estimates and their standard errors beside the timings, goes
to .bench_out/result-<workload>-seed<N>-trace<T>.json; the traced run
also writes its spans to .bench_out/spans-<workload>-seed<N>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("load-models", "design-sweep", "noise-mc")
# A run must end within 180 s; no pass may start a timeout past this.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_ratio": "ratio",
}

# The benchmark never uses more threads than it asks for: one per pass.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class PassFailed(RuntimeError):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.env = {**os.environ, **PINNED_ENV}

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def warm_up(self) -> None:
        """Compile bytecode and load libraries once, outside any timed pass."""
        code = ("import sys; sys.path[:0] = ['src', 'perfbench']; "
                "import cachegeo.experiments, tracing, workloads")
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env, check=True,
                       timeout=self.remaining(), stdout=subprocess.DEVNULL)

    def one_pass(self, traced: bool) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed)]
        if traced:
            cmd += ["--trace", "--spans", str(OUT / f"spans-{a.workload}-seed{a.seed}.json")]
        if a.smoke:
            cmd.append("--smoke")
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(1.0, self.remaining()))
        if proc.returncode != 0:
            raise PassFailed(f"pass exited with {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["raw_setup_s"] = result.pop("ready") - spawned
        g = result["setup_gauge"]
        result["setup_s"] = (result["raw_setup_s"] - g["inside_s"]) * g["factor"]
        return result

    def passes(self) -> list[dict]:
        kinds = (False, True) if self.args.trace else (False,)
        done = []
        longest = 0.0
        while True:
            began = time.monotonic()
            for traced in kinds:
                done.append(self.one_pass(traced))
            longest = max(longest, time.monotonic() - began)
            if (time.monotonic() - self.start >= self.args.seconds
                    or self.remaining() < 2.0 * longest):
                return done


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def summarize(args, passes) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = passes[0]
    checks = []
    for i, p in enumerate(passes):
        checks += [dict(c, pass_index=i) for c in p["checks"]]
        if i:
            same = p["digest"] == first["digest"]
            checks.append({"name": "outputs_identical_to_first_pass", "value": float(not same),
                           "limit": 0.0, "ok": same, "pass_index": i})
    failed = sum(not c["ok"] for c in checks)
    end_to_end = {
        "wall_s": median_of(plain, "wall_s"),
        "cpu_s": median_of(plain, "cpu_s"),
        "setup_s": median_of(plain, "setup_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        "check_pass_ratio": 1.0 - failed / len(checks),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": first["sizes"],
        "nproc": len(os.sched_getaffinity(0)),
        "versions": first["versions"],
        "git_commit": git_commit(),
        "pinned_env": PINNED_ENV,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()},
        "check_fail_ratio": failed / len(checks),
        "attempted": len(checks),
        "failed": failed,
        "raw_median_s": {k: median_of(plain, "raw_" + k) for k in ("wall_s", "cpu_s", "setup_s")},
        "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                                      "raw_wall_s", "raw_cpu_s", "raw_setup_s",
                                      "pass_gauge", "setup_gauge")}
                   for p in passes],
        "failed_checks": [c for c in checks if not c["ok"]],
        "checks": first["checks"],
        "estimates": first["estimates"],
        "values": first["values"],
    }
    if traced:
        from tracing import PER_LAYER_UNITS

        per_layer = {}
        for name, unit in PER_LAYER_UNITS.items():
            if name == "trace.overhead_ratio":
                value = median_of(traced, "wall_s") / median_of(plain, "wall_s")
            else:
                value = statistics.median(p["trace"]["metrics"][name] for p in traced)
            per_layer[name] = {"value": value, "unit": unit}
        record["per_layer"] = per_layer
        last = traced[-1]["trace"]
        record["trace_detail"] = {k: last[k] for k in
                                  ("layer_self_s", "span_seconds", "span_calls", "top_level_s")}
        record["trace_detail"]["traced_wall_s"] = traced[-1]["raw_wall_s"]
    return record


def report(record) -> dict:
    """Print every metric by name with its unit; return the final JSON line."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"passes {len(record['passes'])}  nproc {record['nproc']}  "
          f"commit {record['git_commit'][:12]}  {record['versions']}")
    metrics = dict(record["end_to_end"])
    metrics["check_fail_ratio"] = {"value": record["check_fail_ratio"], "unit": "ratio"}
    metrics.update(record.get("per_layer", {}))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    raw = "  ".join(f"{k} {v:.4g} s" for k, v in record["raw_median_s"].items())
    factor = statistics.median(p["pass_gauge"]["factor"] for p in record["passes"])
    print(f"  raw (unscaled) medians: {raw}; median speed factor {factor:.3f}")
    if "trace_detail" in record:
        detail = record["trace_detail"]
        print(f"  self time by layer (raw s), traced raw wall {detail['traced_wall_s']:.4f} s:")
        for layer, seconds in sorted(detail["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:46s} {seconds:.4f}")
    for c in record["failed_checks"]:
        print(f"  FAILED check {c['name']}: {c['value']:.6g} vs limit {c['limit']:.6g}")
    print(f"  {record['attempted']} checks, {record['failed']} failed; "
          f"{len(record['estimates'])} Monte Carlo estimates in the record")
    chosen = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": chosen,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cachegeo" / "__init__.py").is_file():
        print(f"error: no cachegeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args)
    try:
        runner.warm_up()
        passes = runner.passes()
    except (PassFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = summarize(args, passes)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    final = report(record)
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
