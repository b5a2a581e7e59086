#!/usr/bin/env python3
"""xraynet benchmark: one workload per call, measured in a fresh process.

    python3 perfbench/run.py --workload resnet_scratch --seed 1 --seconds 25 --trace 0

Workloads (see README.md): `resnet_scratch`, `densenet_scratch`,
`transfer_hires`. With `--trace 0` the last stdout line is a JSON object
with the end-to-end metrics; with `--trace 1` the workload runs twice, once
plain and once traced, and the line carries the per-layer metrics, the
tracing overhead against the plain run, and `correct` also requires the two
runs' `metrics.csv` to be byte-identical. Human-readable lines and the
children's output go before it (children's to stderr).

Exit status: 0 when every check passed, 1 when a check failed (the JSON line
says `"correct": false`), 2 when the program or a child process could not run
(no JSON line).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("resnet_scratch", "densenet_scratch", "transfer_hires")
E2E_UNITS = {"train_images_per_s": "1/s", "eval_images_per_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MiB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a small shared box a second thread adds more run-to-run
# spread than speed (see README.md).
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, unit in (("_ms", "ms"), ("_mb", "MiB"), ("_mpix", "Mpix"),
                         ("_gflops", "GFLOP/s"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(cmd: list[str]) -> None:
    proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, env=child_env(),
                          stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(cmd[0]).name} exited with status {proc.returncode}")


def run_workload(args, out: Path, trace: int, extra: list[str]) -> dict:
    (out / "result.json").unlink(missing_ok=True)
    run_child([str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out), *extra])
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one xraynet benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "xraynet" / "__init__.py").is_file():
        print(f"xraynet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = HERE / ".out" / f"{args.workload}-s{args.seed}"
    extra: list[str] = []
    try:
        if args.workload == "transfer_hires":
            fixtures_dir = HERE / ".fixtures" / "transfer_hires"
            ckpt = out / "pretrained.xrnc"
            run_child([str(HERE / "fixtures.py"), "--seed", str(args.seed),
                       "--out", str(fixtures_dir), "--checkpoint", str(ckpt)])
            extra = ["--fixtures", str(fixtures_dir), "--checkpoint", str(ckpt)]
        plain = run_workload(args, out / "plain", 0, extra)
        traced = run_workload(args, out / "traced", 1, extra) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 2

    result = traced or plain
    correct = plain["correct"] and result["correct"]
    failures = [r["failure"] for r in (plain, traced) if r and not r["correct"]]
    if traced and correct:
        same_csv = (out / "plain" / "metrics.csv").read_bytes() == \
                   (out / "traced" / "metrics.csv").read_bytes()
        if not same_csv:
            correct = False
            failures.append("traced run's metrics.csv differs from the plain run's")
    metrics: dict[str, float] = {}
    if correct:
        if traced:
            metrics = dict(traced["per_layer"])
            for name in ("train_images_per_s", "eval_images_per_s"):
                slowdown = plain["metrics"][name] / traced["metrics"][name] - 1.0
                metrics[f"trace.{name.split('_')[0]}_overhead_pct"] = 100.0 * slowdown
        else:
            metrics = dict(plain["metrics"])

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"env={json.dumps(plain.get('env', {}), sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    attempted, failed = int(result.get("attempted", 1)), int(result.get("failed", 0))
    print(f"operations attempted {attempted} failed {failed}; checks {'passed' if correct else 'FAILED'}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
