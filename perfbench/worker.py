"""Closed-loop client for one workload, run in a process of its own.

Usage: python3 perfbench/worker.py MANIFEST.json RESULT.json

The manifest (written by run.py) names the checkout root, the work
directory, the operations and the time budget.  One client drives
``sgdist.cli.run(argv)`` in process with stdout captured, one operation at a
time.  Each captured output is written to the work directory after its
operation's timer stops, so that the checks (run by the parent, with scipy
and networkx loaded) stay outside the timed region and out of this
process's peak RSS.

The loop replays the operation list until the budget is spent, and at
least once.  With tracing on, it spends half the budget untraced and half
traced, each in whole passes, so the traced counters cover a fixed mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns


def _import_cli(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import sgdist.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "sgdist").resolve():
        raise SystemExit(f"sgdist was imported from {cli.__file__}, not from {src}")
    return cli


class Loop:
    def __init__(self, cli, ops: list[list[str]], outdir: Path):
        self.cli = cli
        self.ops = ops
        self.outdir = outdir
        self.records: list[list] = []  # [output number, op index, ns, rc, stderr or None]
        self.output_bytes = 0

    def one(self, idx: int, tracer=None) -> int:
        argv = self.ops[idx]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter_ns()
            try:
                rc = self.cli.run(argv)
            except Exception:
                rc = -1
                err.write(traceback.format_exc())
            ns = perf_counter_ns() - t0
        if tracer is not None:
            tracer.end_op()
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        k = len(self.records)
        (self.outdir / f"{k}.out").write_text(text, encoding="utf-8")
        self.records.append([k, idx, ns, rc, err.getvalue() if rc else None])
        return ns

    def run(self, budget_s: float, whole_passes: bool, tracer=None) -> tuple[int, int, float]:
        """Run operations until the budget is spent and at least one pass is
        complete; returns (ops, busy ns, wall s).  With whole_passes, stop
        only at a pass boundary, so per-pass counters cover a fixed mix."""
        start = perf_counter()
        count = busy = 0
        n = len(self.ops)
        while not (
            count >= n and (not whole_passes or count % n == 0) and perf_counter() - start >= budget_s
        ):
            busy += self.one(count % n, tracer)
            count += 1
        return count, busy, perf_counter() - start


def _environment() -> dict:
    import numpy as np

    env = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError) as exc:  # the config layout varies by numpy version
        env["blas"] = f"unknown ({type(exc).__name__})"
    return env


def main(manifest_path: str, result_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text())
    root = Path(manifest["root"])
    work = manifest["workdir"]
    ops = [[a.replace(manifest["placeholder"], work) for a in argv] for argv in manifest["ops"]]
    outdir = Path(work) / "out"
    outdir.mkdir()
    cli = _import_cli(root)

    warm = Loop(cli, ops, Path(work) / "warmup")  # loads lazy state; not timed or checked
    warm.outdir.mkdir()
    warm.one(0)

    loop = Loop(cli, ops, outdir)
    seconds = manifest["seconds"]
    result: dict = {}
    if not manifest["trace"]:
        loop.run(seconds, whole_passes=False)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, layer_metrics

        plain_ops, plain_busy, _ = loop.run(seconds / 2, whole_passes=True)
        tracer = Tracer()
        tracer.install()
        bytes_before = loop.output_bytes
        try:
            traced_ops, traced_busy, traced_wall = loop.run(seconds / 2, whole_passes=True, tracer=tracer)
        finally:
            tracer.uninstall()
        result["installed"] = tracer.installed
        result["layer_metrics"] = layer_metrics(
            tracer,
            wall_s=traced_wall,
            ops=traced_ops,
            passes=traced_ops // len(ops),
            output_bytes=loop.output_bytes - bytes_before,
            untraced_ops_per_s=plain_ops / (plain_busy / 1e9),
            traced_ops_per_s=traced_ops / (traced_busy / 1e9),
        )
    result["records"] = loop.records
    result["environment"] = _environment()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: worker.py MANIFEST.json RESULT.json")
    sys.exit(main(sys.argv[1], sys.argv[2]))
