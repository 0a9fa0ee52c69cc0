"""gatedqdot benchmark: seeded CLI workloads, end-to-end op timings, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-n400 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One op is one in-process `gatedqdot.cli.run(command, config, out_dir)` call:
config load, compute, artifacts and report.json.  An op fails when it
exits non-zero, raises, or its output fails the workload's checks.  With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` the first half of the time runs untraced and the second half
traced, and the last line holds the per-layer metrics and the tracing
overhead.  Per-op records (exit code, time, body_sha256, check problems)
and the environment go to .perfbench-out/<workload>-seed<n>-trace<t>/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# one BLAS thread: the ops are single-threaded Python around small LAPACK
# calls, and a second thread only adds scheduling noise on a few cores
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# config pool per second of run: five times the fastest op rate measured,
# so a faster program still finds a fresh config for every op
CONFIGS_PER_SECOND = 12
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gatedqdot.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("GATEDQDOT_OUT", None)
    return env


def child_import_seconds(env) -> float:
    """Import time of gatedqdot.cli in a fresh interpreter, as a CLI user pays it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def median_with_failures(seconds, ok, worst):
    """Median op time where a failed op counts as +inf.

    JSON holds no infinity, so a failed op enters as `worst` (the timed
    section's length, longer than any op): every finite median is
    unchanged, and a run where half the ops fail reports `worst`.
    """
    return statistics.median(s if good else worst for s, good in zip(seconds, ok))


class Runner:
    def __init__(self, cli, run_dir):
        self.cli = cli
        self.run_dir = run_dir
        self.fields = []  # FD fields captured during the current op
        self.records = []

    def run(self, ops, start, budget, tracer=None):
        """Run ops from `start` until `budget` seconds of op time are spent."""
        spent = 0.0
        index = start
        batch = []
        while index < len(ops) and spent < budget:
            op = ops[index]
            out_dir = self.run_dir / f"op-{index:04d}"
            self.fields.clear()
            err = io.StringIO()
            if tracer is not None:
                tracer.op = index
                tracer.open("cli.run")
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = self.cli.run(op.command, self.run_dir / "configs" / f"{index:04d}.json", out_dir)
            except Exception as exc:  # the CLI would die with a traceback
                code = type(exc).__name__
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.close()
            spent += seconds
            batch.append(self.finish(index, op, out_dir, code, seconds, err.getvalue(), tracer is not None))
            index += 1
        self.records.extend(batch)
        return batch, index, spent

    def finish(self, index, op, out_dir, code, seconds, stderr, traced):
        record = {
            "op": index, "command": op.command, "kind": op.kind, "traced": traced,
            "seconds": seconds, "exit": code, "ok": False, "problems": [],
        }
        if code == 0:
            report = json.loads((out_dir / "report.json").read_text())
            results = report["results"]
            record["body_sha256"] = report["provenance"]["body_sha256"]
            if op.command == "control":
                record["samples"] = results["samples"]
            record["problems"] = workloads.check_op(op, results, self.fields)
            record["fd_fields_checked"] = len(self.fields)
            record["ok"] = not record["problems"]
        else:
            record["stderr"] = stderr.strip()[-300:]
        record["artifact_bytes"] = sum(p.stat().st_size for p in out_dir.glob("*")) if out_dir.exists() else 0
        shutil.rmtree(out_dir, ignore_errors=True)
        return record


def end_to_end(batch, spent, setup_s):
    ok = [r["ok"] for r in batch]
    good = sum(ok)
    return {
        "op_p50_s": {"value": median_with_failures([r["seconds"] for r in batch], ok, spent), "unit": "s"},
        "ops_per_s": {"value": good / spent, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def run_workload(args) -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("GATEDQDOT_OUT", None)
    if not (SRC / "gatedqdot" / "__init__.py").is_file():
        print(f"error: no gatedqdot package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gatedqdot.cli as cli

    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gatedqdot from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import tracing

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    count = max(10, int(args.seconds * CONFIGS_PER_SECOND))
    env = pinned_env()
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(run_dir / "configs", ignore_errors=True)
        child_s = child_import_seconds(env)
        t0 = time.perf_counter()
        ops = workloads.WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), count)
        (run_dir / "configs").mkdir(parents=True)
        for i, op in enumerate(ops):
            (run_dir / "configs" / f"{i:04d}.json").write_text(json.dumps(op.config))
        setups.append(child_s + time.perf_counter() - t0)
    setup_s = statistics.median(setups)

    runner = Runner(cli, run_dir)
    probes = tracing.Seams()
    probes.wrap(tracing.FD_SEAMS, tracing.capture_results(runner.fields))
    budget = args.seconds / 2 if args.trace else args.seconds
    try:
        batch, index, spent = runner.run(ops, 0, budget)
        metrics = end_to_end(batch, spent, setup_s)
        missing = []
        if args.trace:
            tracer = tracing.Tracer()
            seams = tracing.Seams()
            seams.wrap(tracing.SEAMS, tracer.make_wrapper)
            try:
                traced, _, traced_spent = runner.run(ops, index, budget, tracer)
            finally:
                seams.close()
            overhead = (
                median_with_failures([r["seconds"] for r in traced], [r["ok"] for r in traced], traced_spent)
                - metrics["op_p50_s"]["value"]
            )
            metrics, missing = tracing.layer_metrics(
                tracer, len(traced), statistics.mean(r["artifact_bytes"] for r in traced), overhead
            )
            missing += [f"seam {name}" for name in probes.missing + seams.missing]
            (run_dir / "spans.json").write_text(json.dumps(tracer.spans))
    finally:
        probes.close()

    records = runner.records
    failed = sum(not r["ok"] for r in records)
    correct = not any(r["problems"] for r in records)
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": len(records), "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "import_s_in_process": import_s, "setup_s_samples": setups,
    }
    summary = {"environment": environment, "metrics": metrics, "missing": missing, "ops": records}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    shutil.rmtree(run_dir / "configs", ignore_errors=True)

    print("# environment " + json.dumps(environment))
    for r in records:
        if not r["ok"]:
            last = r.get("stderr", "").splitlines()[-1:]
            print(f"# failed op {r['op']} ({r['command']} {r['kind']}): exit {r['exit']} {r['problems'] or last}")
    for name in missing:
        print(f"# missing {name}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of metrics."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        status |= not result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<55} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
