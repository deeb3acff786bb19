import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import sgdist as sg
from sgdist.cli import _build_parser, _matrix_payload, run

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fixtures(tmp_path):
    files = {}
    for name, g in {
        "pplus": sg.petersen_graph(1),
        "pminus": sg.petersen_graph(-1),
        "c4": sg.cycle_graph(4, [-1, 1, 1, 1]),
        "k2": sg.complete_graph(2, 1),
        "k2n": sg.complete_graph(2, -1),
        "c3": sg.cycle_graph(3, [1, 1, 1]),
        "k1": sg.SignedGraph(1, ()),
    }.items():
        path = tmp_path / f"{name}.sg"
        path.write_text(sg.serialize_edge_list(g), encoding="utf-8")
        files[name] = str(path)
    return files


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info(fixtures, capsys):
    code, out, _ = invoke(capsys, "info", fixtures["pplus"])
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 10 and payload["size"] == 15
    assert payload["is_geodetic"] and payload["is_net_regular"]
    assert payload["net_degrees"] == [3] * 10


def test_spectrum_text_golden(fixtures, capsys):
    code, out, _ = invoke(capsys, "spectrum", fixtures["pplus"])
    assert code == 0
    assert out.strip() == "(15 x1) (0 x4) (-3 x5)"
    code, out, _ = invoke(capsys, "spectrum", fixtures["pminus"])
    assert out.strip() == "(9 x1) (4 x4) (-5 x5)"


@pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
def test_spectrum_bad_tolerance_is_domain_error(tmp_path, capsys, tol, shown):
    path = tmp_path / "c3.sg"
    path.write_text(sg.serialize_edge_list(sg.cycle_graph(3, [1, 1, -1])), encoding="utf-8")
    code, out, err = invoke(capsys, "spectrum", str(path), f"--tol={tol}")
    assert (code, out) == (1, "")
    assert err == f"error: tol must be a finite number >= 0, got {shown}\n"
    code, out, _ = invoke(capsys, "spectrum", str(path))
    assert (code, out.strip()) == (0, "(1 x2) (-2 x1)")


def test_spectrum_incompatible_is_domain_error(fixtures, capsys):
    code, _, err = invoke(capsys, "spectrum", fixtures["c4"])
    assert code == 1
    assert "incompatible" in err


def test_compat_golden(fixtures, capsys):
    code, out, _ = invoke(capsys, "compat", fixtures["c4"])
    assert code == 0
    assert out.strip() == "incompatible: (0,2) (1,3)"
    code, out, _ = invoke(capsys, "compat", fixtures["pplus"])
    assert out.strip() == "compatible"


def test_witness(fixtures, capsys):
    code, out, _ = invoke(capsys, "witness", fixtures["c4"], "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["compatible"] is False
    assert payload["witness"]["pair"] == [0, 2]
    assert payload["witness"]["cycle"] == [0, 3, 2, 1]


def test_dist_json_and_csv(fixtures, capsys):
    code, out, _ = invoke(capsys, "dist", fixtures["c4"], "--which", "min")
    payload = json.loads(out)
    assert payload["order"] == 4
    assert payload["entries"][0] == [0, -1, -2, 1]
    code, out, _ = invoke(capsys, "dist", fixtures["c4"], "--which", "min", "--format", "csv")
    assert out.splitlines()[0] == "0,-1,-2,1"


def test_dist_csv_exact_bytes(capsys, tmp_path):
    # All-negative odd cycle: geodetic, every path of length d has sign (-1)^d.
    n = 23
    path = tmp_path / "c23n.sg"
    path.write_text(sg.serialize_edge_list(sg.cycle_graph(n, [-1] * n)), encoding="utf-8")
    dist = [[min(abs(u - v), n - abs(u - v)) for v in range(n)] for u in range(n)]
    want = "".join(",".join(str((-1) ** d * d) for d in row) + "\n" for row in dist)
    code, out, _ = invoke(capsys, "dist", str(path), "--which", "min", "--format", "csv")
    assert code == 0 and out == want


def test_product_tensor_disconnected_error(fixtures, capsys):
    code, _, err = invoke(capsys, "product", "--kind", "tensor", fixtures["k2"], fixtures["k2"])
    assert code == 1
    assert "tensor product disconnected: neither factor has an odd cycle" in err


def test_product_tensor_edgeless_factor_error(fixtures, capsys):
    # K1 x K3 is three isolated vertices even though K3 has an odd cycle.
    code, out, err = invoke(capsys, "product", "--kind", "tensor", fixtures["k1"], fixtures["c3"])
    assert code == 1
    assert out == ""
    assert "tensor product disconnected: the first factor has no edges" in err
    assert "odd cycle" not in err
    code, out, err = invoke(capsys, "product", "--kind", "tensor", fixtures["c3"], fixtures["k1"])
    assert (code, out) == (1, "")
    assert "tensor product disconnected: the second factor has no edges" in err


def test_product_writes_edge_list(fixtures, capsys, tmp_path):
    out_file = tmp_path / "prod.sg"
    code, out, _ = invoke(
        capsys, "product", "--kind", "cartesian", fixtures["k2"], fixtures["k2"], "-o", str(out_file)
    )
    assert code == 0 and out == ""
    assert sg.parse_edge_list(out_file.read_text()) == sg.cartesian(
        sg.complete_graph(2, 1), sg.complete_graph(2, 1)
    )


def test_dist_formula_ok(fixtures, capsys):
    code, out, _ = invoke(capsys, "dist-formula", "--kind", "cartesian", fixtures["k2n"], fixtures["k2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_direct"] is True
    assert payload["entries"][0][3] == -2


def test_dist_formula_hypothesis_violation(fixtures, capsys, tmp_path):
    mixed = tmp_path / "mixed.sg"
    mixed.write_text(sg.serialize_edge_list(sg.path_graph(3, [1, -1])), encoding="utf-8")
    code, _, err = invoke(capsys, "dist-formula", "--kind", "lex", fixtures["k2"], str(mixed))
    assert code == 1
    assert "all-positive or all-negative" in err


def test_charpoly(fixtures, capsys):
    code, out, _ = invoke(capsys, "charpoly", fixtures["pplus"])
    payload = json.loads(out)
    assert payload["coefficients"] == [1, 0, -135, -1080, -3645, -5832, -3645, 0, 0, 0, 0]


def test_gen_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "c4.sg"
    code, _, _ = invoke(capsys, "gen", "-o", str(out_file), "cycle", "4", "-+++")
    assert code == 0
    assert sg.parse_edge_list(out_file.read_text()) == sg.cycle_graph(4, [-1, 1, 1, 1])
    # -o after the pattern also works
    code, _, _ = invoke(capsys, "gen", "cycle", "4", "-+++", "-o", str(out_file))
    assert code == 0


@pytest.mark.parametrize(
    "params, msg",
    [
        (["path", "abc", "+"], "N must be an integer, got 'abc'"),
        (["cycle", "4.0", "++++"], "N must be an integer, got '4.0'"),
        (["complete", "", "-"], "N must be an integer, got ''"),
        (["complete", "3", "x"], "bad sign 'x' (use + or -)"),
        (["path", "3", "+*"], "bad sign '*' (use + or -)"),
        (["petersen", "+2"], "bad sign '+2' (use + or -)"),
    ],
)
def test_gen_bad_parameters_are_domain_errors(capsys, params, msg):
    assert invoke(capsys, "gen", *params) == (1, "", f"error: {msg}\n")


def test_gen_bad_kind(capsys):
    code, _, err = invoke(capsys, "gen", "moebius", "5")
    assert code == 1 and "unknown kind" in err


def test_usage_error_exit_code(fixtures, capsys):
    code, _, _ = invoke(capsys, "dist", fixtures["c4"], "--which", "median")
    assert code == 2
    code, _, _ = invoke(capsys, "nope")
    assert code == 2


def test_missing_file_is_domain_error(capsys):
    code, _, err = invoke(capsys, "info", "no_such_file.sg")
    assert code == 1 and "cannot read" in err


def test_parse_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.sg"
    bad.write_text("3 3\n0 1 +\n1 2 +\n0 2 +\n0 2 +\n", encoding="utf-8")
    code, _, err = invoke(capsys, "compat", str(bad))
    assert code == 1 and "line 5" in err and "duplicate" in err


@pytest.mark.parametrize(
    "argv, msg",
    [
        (["--trials", "-3"], "trials must be >= 0, got -3"),
        (["--trials", "5", "--max-n", "1"], "max_n must be >= 2, got 1"),
    ],
)
def test_conjecture_bad_arguments_are_domain_errors(capsys, tmp_path, argv, msg):
    code, out, err = invoke(capsys, "conjecture", *argv, "--outdir", str(tmp_path))
    assert (code, out, err) == (1, "", f"error: {msg}\n")
    assert list(tmp_path.iterdir()) == []


def test_conjecture_smoke(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "conjecture", "--trials", "5", "--max-n", "4", "--seed", "7",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 5 and payload["seed"] == 7
    # every reported candidate is persisted as edge lists plus a JSON record
    for rec in payload["counterexamples"]:
        t = rec["trial"]
        assert (tmp_path / f"candidate_{t}_g1.sg").exists()
        assert (tmp_path / f"candidate_{t}_g2.sg").exists()
        assert (tmp_path / f"candidate_{t}.json").exists()


def conjecture_hashes(capsys, tmp_path, trials, max_n):
    """sha256 of stdout, the number of outdir files and the sha256 of their
    manifest, which lists each file as "<name> <sha256>" in name order."""
    code, out, err = invoke(
        capsys, "conjecture", "--trials", str(trials), "--max-n", str(max_n), "--seed", "1", "--outdir", str(tmp_path),
    )
    assert (code, err) == (0, "")
    files = sorted(tmp_path.iterdir())
    manifest = "".join(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in files)
    return hashlib.sha256(out.encode()).hexdigest(), len(files), hashlib.sha256(manifest.encode()).hexdigest()


def test_conjecture_golden(capsys, tmp_path):
    # Pins the bytes of stdout and of every candidate file.
    assert conjecture_hashes(capsys, tmp_path, 300, 7) == (
        "f7fc2686c5a033e070def96b5cad5fe216e88c3d8a3a5e94b7971d44efa9e86c",
        75,
        "f599c9882f707441221e2f56d7a080cdada7fda66d7be0a05ee44fbea52306e1",
    )


def test_conjecture_golden_large_products(capsys, tmp_path):
    # Products of up to 144 vertices span three source words of the pass
    # and fall into several cuts of a window.
    assert conjecture_hashes(capsys, tmp_path, 300, 12) == (
        "8bb3a28a31fe894c3a8806a62004a78b3ced12e9d2bdccd336d229b7cfbb062f",
        39,
        "0c883a7033fa02585611fa0178fb046a99dcb58c622b200d1a527b4dc8b2abec",
    )


def witness_graphs():
    """Seeded connected incompatible graphs: G(n, 2 ln(n)/n) of order 8-120,
    C_150 with one negative edge, and G(300, 6/300) and a negative C_300."""
    rng = random.Random(20)

    def draw(n, p):
        while True:
            g = sg.random_signed_gnp(n, p, rng)
            if sg.is_connected(g) and not sg.is_compatible(g):
                return g

    graphs = [draw(n, min(1.0, 2 * math.log(n) / n)) for n in (8, 8, 11, 15, 20, 28, 40, 55, 75, 100, 120)]
    graphs.append(sg.cycle_graph(150, [-1] + [1] * 149))
    graphs.append(draw(300, 6 / 300))
    signs = [rng.choice((1, -1)) for _ in range(300)]
    signs[0] = -math.prod(signs[1:])
    graphs.append(sg.cycle_graph(300, signs))
    return graphs


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "570836ce6792d6ab80e142bf34e63361e9d71a4983bb3e54b27a9ea1ffcc46da"),
        ("json", "014b855a5ec4bcdb6f416aec6097f66ff46066f751f165d488cc5e041c48f493"),
    ],
    ids=["text", "json"],
)
def test_witness_golden(capsys, tmp_path, fmt, digest):
    # Pins the bytes of `witness`; the least incompatible pairs lie at
    # distance 2 on the random graphs and at 75 and 150 on the cycles.
    out = []
    for i, g in enumerate(witness_graphs()):
        path = tmp_path / f"g{i}.sg"
        path.write_text(sg.serialize_edge_list(g), encoding="utf-8")
        code, printed, err = invoke(capsys, "witness", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        out.append(printed)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("cartesian", "d9e1caa833ad8cc5ef93900badfe73ae91ccd021cd2cd0d47b3cdd221e3de102"),
        ("lex", "734affb0ea23d82a4694e32c2481da8d6e87841d499b3790ff3148a5390a4f8d"),
        ("tensor", "01ceb6ed666fdeb1abd41217d9b02fe9bb99513ee4f0fdc21c7235acaa6ad92b"),
    ],
)
def test_product_golden(fixtures, capsys, kind, digest):
    # Pins the bytes of `product` on the four ordered pairs of P+ and C3.
    out = []
    for a, b in (("pplus", "c3"), ("c3", "pplus"), ("pplus", "pplus"), ("c3", "c3")):
        code, printed, err = invoke(capsys, "product", "--kind", kind, fixtures[a], fixtures[b])
        assert (code, err) == (0, "")
        out.append(printed)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


def test_outputs_deterministic(fixtures, capsys, tmp_path):
    commands = [
        ("info", fixtures["pplus"]),
        ("dist", fixtures["c4"], "--which", "min"),
        ("dist", fixtures["c4"], "--format", "csv"),
        ("compat", fixtures["c4"]),
        ("witness", fixtures["c4"], "--format", "json"),
        ("product", "--kind", "cartesian", fixtures["k2"], fixtures["k2n"]),
        ("dist-formula", "--kind", "lex", fixtures["k2"], fixtures["k2n"]),
        ("charpoly", fixtures["pminus"]),
        ("spectrum", fixtures["pplus"]),
        ("gen", "petersen", "-"),
        ("conjecture", "--trials", "8", "--max-n", "5", "--seed", "3", "--outdir", str(tmp_path)),
    ]
    for argv in commands:
        assert invoke(capsys, *argv) == invoke(capsys, *argv), argv


OUTPUT_COMMANDS = {
    "info": ["{pplus}"],
    "dist": ["{c4}", "--format", "csv"],
    "compat": ["{c4}", "--format", "json"],
    "witness": ["{c4}"],
    "product": ["--kind", "lex", "{k2}", "{c3}"],
    "dist-formula": ["--kind", "cartesian", "{k2n}", "{c3}"],
    "charpoly": ["{pminus}"],
    "spectrum": ["{pplus}", "--format", "json"],
    "gen": ["cycle", "4", "-+++"],
    "petersen-table": [],
    "conjecture": ["--trials", "8", "--max-n", "5", "--seed", "3", "--outdir", "{tmp}"],
}


def test_output_commands_cover_every_subcommand():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OUTPUT_COMMANDS)


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_output_file_holds_printed_bytes(fixtures, capsys, tmp_path, command):
    argv = [command] + [a.format(tmp=tmp_path, **fixtures) for a in OUTPUT_COMMANDS[command]]
    code, printed, err = invoke(capsys, *argv)
    assert (code, err) == (0, "") and printed
    out_file = tmp_path / "out.txt"
    assert invoke(capsys, *argv, "-o", str(out_file)) == (0, "", "")
    written = out_file.read_text(encoding="utf-8")
    # print adds the one newline a payload does not end with
    assert printed == (written if written.endswith("\n") else written + "\n")


def test_petersen_table_cli(capsys):
    code, out, _ = invoke(capsys, "petersen-table")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_signings"] == 32768
    labels = [c["label"] for c in payload["classes"]]
    assert labels == ["+P", "P1", "P2,2", "P2,3", "P3,2", "P3,3"]
    sizes = [c["size"] for c in payload["classes"]]
    assert sum(sizes) == 32768
    for c in payload["classes"]:
        rep = sg.parse_edge_list(c["representative"])
        assert rep.n == 10 and rep.m == 15


def _run_fresh(argv):
    """cli.run as the only call of a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys; from sgdist.cli import run; sys.exit(run(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_run_sequence_matches_fresh_processes(fixtures, capsys, tmp_path):
    # The parser is built once per process; calls that share it, usage and
    # domain errors among them, behave as each does on its own.
    calls = [
        ["info", fixtures["pplus"]],
        ["dist", "--which", "min"],
        ["witness", fixtures["c4"]],
        ["gen", "cycle", "4", "-+++", "-o", "{out}"],
        ["nosuch", fixtures["c4"]],
        ["spectrum", fixtures["c4"]],
        ["compat", fixtures["c4"], "--format", "json"],
        ["info", fixtures["c3"]],
    ]
    codes = set()
    for i, argv in enumerate(calls):
        ours = invoke(capsys, *[a.replace("{out}", str(tmp_path / f"seq{i}.sg")) for a in argv])
        fresh = _run_fresh([a.replace("{out}", str(tmp_path / f"fresh{i}.sg")) for a in argv])
        assert ours == fresh, argv
        codes.add(ours[0])
        if "{out}" in argv:
            assert (tmp_path / f"seq{i}.sg").read_text() == (tmp_path / f"fresh{i}.sg").read_text() != ""
    assert codes == {0, 1, 2}
    assert _build_parser() is _build_parser()


def _int64_matrices(max_side=6):
    """int64 matrices with entries in a distance matrix's range, [-(side-1), side-1]."""
    shape = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return shape.flatmap(lambda s: arrays(np.int64, s, elements=st.integers(-(s[1] - 1), s[1] - 1)))


@settings(max_examples=200, deadline=None)
@given(_int64_matrices())
@example(np.array([[0]]))
@example(np.array([[-4]]))
@example(np.array([[0, -3, 3, 1]]))
@example(np.full((3, 3), 2))
@example(np.array([[-1, -2, -12], [-2, -1, -10]]))
def test_matrix_payload_matches_json_dumps_and_str(mat):
    assert _matrix_payload(mat, "json") == json.dumps({"order": mat.shape[0], "entries": mat.tolist()})
    assert _matrix_payload(mat, "csv") == "\n".join(",".join(map(str, row)) for row in mat.tolist()) + "\n"


def test_dist_payloads_match_json_dumps_on_distance_matrices():
    rng = random.Random(300)
    graphs = [sg.cycle_graph(150, [rng.choice((1, -1)) for _ in range(150)]), sg.petersen_graph(-1)]
    graphs.append(sg.random_signed_gnp(90, 0.1, rng))
    for g in graphs:
        for which in ("max", "min"):
            mat = sg.distance_matrix(g, which)
            assert _matrix_payload(mat, "json") == json.dumps({"order": g.n, "entries": mat.tolist()})
            assert _matrix_payload(mat, "csv") == "".join(",".join(map(str, r)) + "\n" for r in mat.tolist())


@pytest.mark.parametrize(
    "g, n_pairs",
    [
        (sg.petersen_graph(1), 0),
        # C4 with the chord 1-3: only (0, 2) sees paths of both signs.
        (sg.SignedGraph.from_edges(4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (1, 3, 1)]), 1),
        (sg.cycle_graph(150, [-1] + [1] * 149), 75),
        # Pairs at several distances, so (distance, u, v) order is not row order.
        (sg.random_signed_gnp(60, 0.08, random.Random(17)), 590),
    ],
    ids=["no-pairs", "one-pair", "many-pairs", "pairs-by-distance"],
)
def test_compat_json_matches_json_dumps(capsys, tmp_path, g, n_pairs):
    path = tmp_path / "g.sg"
    path.write_text(sg.serialize_edge_list(g), encoding="utf-8")
    pairs = sg.incompatible_pairs(g)
    assert len(pairs) == n_pairs
    want = json.dumps({"compatible": not pairs, "incompatible_pairs": [list(p) for p in pairs]})
    assert invoke(capsys, "compat", str(path), "--format", "json") == (0, want + "\n", "")
    text = "incompatible: " + " ".join(f"({u},{v})" for u, v in pairs) if pairs else "compatible"
    assert invoke(capsys, "compat", str(path)) == (0, text + "\n", "")


def test_module_entry_point_runs_the_cli(fixtures, tmp_path):
    # `python -m sgdist.cli` runs the same commands with the same exit codes.
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def module(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "sgdist.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        return proc.returncode, proc.stdout, proc.stderr

    code, out, err = module("dist", fixtures["c4"], "--which", "min", "--format", "csv")
    assert (code, out, err) == (0, "0,-1,-2,1\n-1,0,1,-2\n-2,1,0,1\n1,-2,1,0\n", "")
    code, out, err = module("dist", str(tmp_path / "missing.sg"))
    assert code == 1 and out == "" and err.startswith("error: cannot read ")
    code, out, err = module("nosuch")
    assert code == 2 and out == "" and "invalid choice" in err


@pytest.mark.parametrize("command", ["dist", "conjecture"])
def test_write_error_is_domain_error(fixtures, tmp_path, command):
    # An output path that cannot be written ends in `error: cannot write`,
    # exit 1, without a traceback: a missing directory for `-o`, an existing
    # file for `--outdir`.
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    if command == "dist":
        target = tmp_path / "missing" / "x.json"
        argv = ["dist", fixtures["c4"], "-o", str(target)]
    else:
        target = blocker
        argv = ["conjecture", "--trials", "50", "--max-n", "7", "--seed", "2", "--outdir", str(target)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "sgdist.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: cannot write {target}") and "Traceback" not in proc.stderr
