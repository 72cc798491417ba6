"""grovertrain benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload runs in fresh
processes (perfbench/workload.py) with one BLAS/OpenMP thread and the
checkout's `src` first on the import path, so set-up time and peak RSS are
that workload's own. SETUPS extra processes only set up; `setup_s` is the
median over them and the measuring process. Every figure is measured on this
process tree alone: no system-wide tracing, no cache dropping, no kernel or
cgroup setting.

The last stdout line is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Lines before it describe
the environment, the inputs and any failure.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("mnist-landscape", "edge-budget", "kcopy-crosscheck")
SETUPS = 6
LIMIT_S = 170  # a run must end within 180 s
HERE = Path(__file__).resolve().parent


def child(args: list[str], env: dict, timeout: float) -> dict:
    """Run workload.py; return its last stdout line as JSON or exit 1."""
    cmd = [sys.executable, str(HERE / "workload.py")] + args
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps it
        sys.exit(f"workload process exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        sys.exit(f"workload process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(env: dict) -> dict:
    """Interpreter, numpy and BLAS of the measuring process."""
    code = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
            "b = c['Build Dependencies']['blas']; "
            "print(json.dumps({'numpy': numpy.__version__, "
            "'blas': f\"{b.get('name')} {b.get('version')}\"}))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    info = json.loads(out.stdout) if out.returncode == 0 else {}
    info.update(python=platform.python_version(), nproc=os.cpu_count(),
                blas_threads=env["OPENBLAS_NUM_THREADS"])
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t0 = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "grovertrain" / "__init__.py").is_file():
        print(f"no grovertrain sources under {root / 'src'}; run this from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "GROVERTRAIN_MNIST_DIR")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = [child(base + ["--setup-only"], env, 60)["setup_s"]
              for _ in range(SETUPS)]
    res = child(base + ["--seconds", str(args.seconds),
                        "--trace", str(args.trace)],
                env, LIMIT_S - (time.monotonic() - t0))
    setups.append(res["setup_s"])

    print("environment " + json.dumps(environment(env)))
    print("inputs " + json.dumps(res["info"]))
    jobs = res["job_s"]
    print(f"jobs untraced={len(jobs)} attempted={res['attempted']} "
          f"failed={res['failed']} "
          f"fail_frac={res['failed'] / res['attempted']:.6g}")
    for name, msgs in res["failures"].items():
        print(f"FAILED {name}: {'; '.join(msgs)}")
    if args.trace:
        metrics = {k: {"value": v, "unit": unit(k)}
                   for k, v in sorted(res["layers"].items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_s": {"value": statistics.median(jobs), "unit": "s"},
            "job_cpu_s": {"value": statistics.median(res["job_cpu_s"]),
                          "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")) or ".self_s." in name:
        return "s"
    if name.endswith("support_frac") or name.endswith("calls_per_plan"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
