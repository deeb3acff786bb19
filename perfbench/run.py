"""Seeded end-to-end and per-layer benchmark of the sgdist CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dist-large --seed 1 --seconds 55 --trace 0

Generates the workload's inputs from the seed, runs a closed loop with one
client over them in a separate process (so peak RSS is this workload's
alone), checks every output by an independent route, and prints the metrics.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs half untraced and half with span wrappers on each layer and prints the
per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

See perfbench/README.md for the workloads and the definition of each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_LAUNCHES = 16
WORKER_TIMEOUT_S = 150

UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "fraction",
}


def child_env() -> dict[str, str]:
    """Environment for every sgdist process: this checkout's sources, BLAS
    threads capped at the CPUs this process may use, SG_THREADS unset."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SG_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            want = nproc
        env[var] = str(max(want, 1))
    return env


def measure_setup(env: dict[str, str], launches: int) -> list[float]:
    """Wall times of fresh interpreters that only import sgdist.cli."""
    cmd = [sys.executable, "-c", "import sgdist.cli"]
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_worker(wl: workloads.Workload, workdir: Path, seconds: int, trace: int, env) -> dict:
    manifest = {
        "root": str(ROOT),
        "workdir": str(workdir),
        "placeholder": workloads.WORK,
        "ops": [op["argv"] for op in wl.ops],
        "seconds": seconds,
        "trace": trace,
    }
    mpath, rpath = workdir / "manifest.json", workdir / "result.json"
    mpath.write_text(json.dumps(manifest))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(mpath), str(rpath)],
        env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(rpath.read_text())


def check_outputs(wl: workloads.Workload, workdir: Path, records: list) -> tuple[list[bool], list[str]]:
    import checks

    refs: dict = {}
    verdicts: dict[tuple, str | None] = {}  # (op, rc, output digest) -> problem or None
    ok, problems = [], []
    for k, idx, _ns, rc, err in records:
        out = (workdir / "out" / f"{k}.out").read_text(encoding="utf-8")
        key = (idx, rc, hashlib.sha256(out.encode()).digest())
        if key not in verdicts:
            try:
                checks.check(wl.ops[idx]["check"], rc, out, wl.graphs, refs)
                verdicts[key] = None
            except (checks.CheckError, KeyError, TypeError, ValueError, IndexError) as exc:
                detail = f"; stderr: {err.strip().splitlines()[-1]}" if err and err.strip() else ""
                verdicts[key] = f"op {idx} {wl.ops[idx]['argv'][0]}: {type(exc).__name__}: {exc}{detail}"
        ok.append(verdicts[key] is None)
        if verdicts[key] is not None:
            problems.append(verdicts[key])
    return ok, problems


def end_to_end(records: list, ok: list[bool], peak_rss_kb: int, setup_s: float) -> dict[str, float]:
    """End-to-end metrics from the timed operations.

    Each operation of the pass is timed once per pass; its time is the
    median over passes, which keeps a burst of interference from another
    process out of the figures.  The percentiles run over these per-operation
    medians, and ops_per_s is the pass's verified share divided by the sum.
    """
    per_op: dict[int, list[float]] = {}
    for _k, idx, ns, _rc, _err in records:
        per_op.setdefault(idx, []).append(ns / 1e6)
    ms = [statistics.median(v) for v in per_op.values()]
    ok_ratio = sum(ok) / len(records)
    return {
        "ops_per_s": ok_ratio * len(ms) / (sum(ms) / 1e3),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": percentile(ms, 90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "ok_ratio": ok_ratio,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "sgdist" / "cli.py").is_file():
        print(f"error: no sgdist sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    env = child_env()
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        setup_samples = []
        if not args.trace:
            # Half the launches before the loop and half after it, so the
            # median spans the run rather than one moment of it.  A first,
            # untimed launch compiles the bytecode.
            measure_setup(env, 1)
            setup_samples += measure_setup(env, SETUP_LAUNCHES // 2)
        res = run_worker(wl, workdir, args.seconds, args.trace, env)
        if not args.trace:
            setup_samples += measure_setup(env, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
        records = res["records"]
        ok, problems = check_outputs(wl, workdir, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(records) - sum(ok)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": wl.input_sha256(),
        "input_files": len(wl.files),
        "ops_in_pass": len(wl.ops),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        **res["environment"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for p in problems[:10]:
        print(f"FAILED {p}")
    if args.trace:
        metrics = res["layer_metrics"]
        print(f"traced run: {len(records)} operations checked; wrapped {len(res['installed'])} entry points")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g}")
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(records, ok, res["peak_rss_kb"], statistics.median(setup_samples))
        print(f"{len(records)} operations timed and checked, {failed} failed (failed_ratio {failed / len(records):.4g})")
        pct = f" (n={len(records)} timings of {len(wl.ops)} operations)"
        samples = {"ops_per_s": pct, "op_p50_ms": pct, "op_p90_ms": pct, "setup_s": f" (n={len(setup_samples)} launches)"}
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {UNITS[name]}{samples.get(name, '')}")
        units = UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_op", "_per_trial")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
