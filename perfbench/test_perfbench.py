"""Self-tests of the benchmark: checkers reject corrupted outputs, inputs are
reproducible from the seed, every workload runs, and a checkout without the
program's sources is refused.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from sgdist import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return out.getvalue()


def write_graph(tmp_path: Path, name: str, g) -> str:
    path = tmp_path / f"{name}.sg"
    path.write_text(workloads.sg_text(g))
    return str(path)


@pytest.fixture
def incompatible(tmp_path):
    """A random connected graph with a negative even cycle, so it has incompatible pairs."""
    rng = random.Random(7)
    n, edges = workloads.connected_gnp(rng, 24, 0.15)
    g = (n, edges)
    ref = checks.Reference(g)
    assert ref.incompatible_pairs(), "fixture graph must be incompatible"
    return ref, write_graph(tmp_path, "g", g)


def test_dist_check_rejects_one_flipped_sign(incompatible):
    ref, path = incompatible
    out = run_cli(["dist", path, "--which", "max"])
    checks.check_dist(ref, out, "max", "json")
    d = json.loads(out)
    edge_set = {(u, v) for u, v, _ in ref.g[1]}
    u, v = next((u, v) for u in range(ref.g[0]) for v in range(u + 1, ref.g[0]) if (u, v) not in edge_set)
    d["entries"][u][v] *= -1
    d["entries"][v][u] *= -1  # keep it symmetric: only the reference comparison can catch it
    with pytest.raises(checks.CheckError):
        checks.check_dist(ref, json.dumps(d), "max", "json")


def test_dist_check_reads_csv(incompatible):
    ref, path = incompatible
    checks.check_dist(ref, run_cli(["dist", path, "--which", "min", "--format", "csv"]), "min", "csv")
    with pytest.raises(checks.CheckError):
        checks.check_dist(ref, run_cli(["dist", path, "--which", "max", "--format", "csv"]), "min", "csv")


def test_compat_check_rejects_one_dropped_pair(incompatible):
    ref, path = incompatible
    out = run_cli(["compat", path, "--format", "json"])
    checks.check_compat(ref, out)
    got = json.loads(out)
    got["incompatible_pairs"].pop()
    with pytest.raises(checks.CheckError):
        checks.check_compat(ref, json.dumps(got))


def test_witness_check_rejects_swapped_paths(incompatible):
    ref, path = incompatible
    out = run_cli(["witness", path, "--format", "json"])
    checks.check_witness(ref, out)
    got = json.loads(out)
    w = got["witness"]
    w["path_pos"], w["path_neg"] = w["path_neg"], w["path_pos"]
    with pytest.raises(checks.CheckError):
        checks.check_witness(ref, json.dumps(got))


def test_charpoly_check_rejects_one_wrong_coefficient(tmp_path):
    rng = random.Random(3)
    g = workloads.cycle_with_sign(rng, 15, -1)
    ref = checks.Reference(g)
    out = run_cli(["charpoly", write_graph(tmp_path, "c", g)])
    points = [rng.randrange(1, 2**30) for _ in range(3)]
    checks.check_charpoly(ref, out, points)
    got = json.loads(out)
    got["coefficients"][7] += 1
    with pytest.raises(checks.CheckError):
        checks.check_charpoly(ref, json.dumps(got), points)


def test_spectrum_check_rejects_shifted_eigenvalue(tmp_path):
    g = workloads.cycle_with_sign(random.Random(4), 13, 1)
    ref = checks.Reference(g)
    out = run_cli(["spectrum", write_graph(tmp_path, "c", g), "--format", "json"])
    checks.check_spectrum(ref, out)
    got = json.loads(out)
    got["eigenvalues"][0]["value"] += 1e-3
    with pytest.raises(checks.CheckError):
        checks.check_spectrum(ref, json.dumps(got))


def test_census_check_rejects_swapped_sizes():
    out = run_cli(["petersen-table"])
    checks.check_census(out)
    got = json.loads(out)
    a, b = got["classes"][0], got["classes"][1]
    a["size"], b["size"] = b["size"], a["size"]
    with pytest.raises(checks.CheckError):
        checks.check_census(json.dumps(got))


def test_conjecture_check_rejects_dropped_pair(tmp_path):
    argv = ["conjecture", "--trials", "40", "--max-n", "6", "--seed", "11", "--outdir", str(tmp_path)]
    out = run_cli(argv)
    checks.check_conjecture(out, 11, 40, 6)
    got = json.loads(out)
    rec = next(r for r in got["counterexamples"] if len(r["incompatible_product_pairs"]) > 1)
    rec["incompatible_product_pairs"].pop(0)
    with pytest.raises(checks.CheckError):
        checks.check_conjecture(json.dumps(got), 11, 40, 6)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    a = workloads.build(name, 5, tmp_path / "a")
    b = workloads.build(name, 5, tmp_path / "b")
    c = workloads.build(name, 6, tmp_path / "c")
    assert a.files == b.files and a.input_sha256() == b.input_sha256()
    for fname in a.files:
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()
    assert a.input_sha256() != c.input_sha256()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*BENCHMARK["command"], *args]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_end_to_end(name):
    proc = _bench("--workload", name, "--seed", "2", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced():
    proc = _bench("--workload", "mixed", "--seed", "2", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in ("spectra.charpoly_calls", "spectra.eig_s", "catalog.polys_computed", "distance.oracle_calls"):
        assert metrics[name]["value"] > 0, name
    shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCHMARK["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "mixed", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 2
    assert "no sgdist sources" in proc.stderr
    assert not proc.stdout.strip()
