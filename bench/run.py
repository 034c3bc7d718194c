"""The selfspec benchmark: one workload per process, one JSON result line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload desk-low --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all      # every workload, each in its own process

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
the traced pass and prints the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment and the raw (unscaled) numbers.  The exit code is 0 only
when every output matched the greedy reference; a failed run still prints
its result.  Without ``src/selfspec`` beside this directory the benchmark
exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_package() -> None:
    """Import ``selfspec`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "selfspec" / "__init__.py").is_file():
        print(f"error: no selfspec sources under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import selfspec

    if Path(selfspec.__file__).resolve().parent != (SRC / "selfspec").resolve():
        print(f"error: imported selfspec from {selfspec.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "selfspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads as wls
    from tracing import Instrumentation, Tracer

    spec = load_spec()
    wl = wls.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    probe = wls.HostProbe(wl.probe)
    failures = wls.Failures()
    tracer = Tracer() if trace else None
    instrumentation = Instrumentation(tracer) if trace else None
    if trace:
        with instrumentation.installed():
            inputs, _ = wls.timed_set_up(wl, seed, OUT, probe, tracer)
        values = wls.measure_traced(wl, inputs, seed, seconds, probe, failures, tracer,
                                    instrumentation)
        declared = spec["per_layer"]
        detail = {}
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        inputs, setup_s = wls.timed_set_up(wl, seed, OUT, probe)
        values, detail = wls.measure(wl, inputs, seconds, probe, failures)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        declared = spec["end_to_end"]
    names = {m["name"] for m in declared}
    unknown = set(values) - names
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    for report in failures.reports:
        print(report, file=sys.stderr)
    detail.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "fail_share": failures.failed / max(failures.attempted, 1),
        "failures": failures.reports,
        "env": environment(),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }))
    return 0 if failures.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process, one after another; print a table."""
    import workloads as wls

    status = 0
    results = {}
    for name in wls.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            status = 1
        if len(lines) < 2:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        results[name] = {**result, "detail": detail}
        print(f"== {name} (seed {seed}, exit {proc.returncode}): attempted "
              f"{result['attempted']}, failed {result['failed']}, "
              f"fail_share {detail['fail_share']:.4f}")
        for metric, v in result["metrics"].items():
            print(f"   {metric:<44} {v['value']:>14.6g} {v['unit']}")
        for extra in ("cr", "train_pos_s", "train_loss", "ttft_samples", "ttft_tail_percentile"):
            if extra in detail:
                print(f"   {extra:<44} {detail[extra]:>14.6g}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    import workloads as wls

    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    if args.workload not in wls.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(wls.WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
