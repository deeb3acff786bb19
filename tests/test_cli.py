import argparse
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
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


def test_undecodable_file_is_a_read_error(capsys, tmp_path):
    bad = tmp_path / "latin1.sg"
    bad.write_bytes("2 1\n0 1 +  # \u00e9\n".encode("latin-1"))
    code, out, err = invoke(capsys, "info", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xe9 ")


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


def dist_graphs():
    """The witness graphs, whose cycles run 75 and 150 levels, P_300, which
    needs nine distance planes, and C_1000, whose sources span sixteen words."""
    rng = random.Random(26)
    return witness_graphs() + [
        sg.path_graph(300, [rng.choice((1, -1)) for _ in range(299)]),
        sg.cycle_graph(1000, [rng.choice((1, -1)) for _ in range(1000)]),
    ]


def block_edge_graphs():
    """K1 and seeded connected graphs of orders 63, 64, 65 and 129, around
    the edges of the 64-row blocks: G(n, 2 ln(n)/n) on 63 and 65 vertices
    and signed cycles on 64 and 129."""
    rng = random.Random(28)

    def draw(n):
        while True:
            g = sg.random_signed_gnp(n, 2 * math.log(n) / n, rng)
            if sg.is_connected(g):
                return g

    def cycle(n):
        return sg.cycle_graph(n, [rng.choice((1, -1)) for _ in range(n)])

    return [sg.SignedGraph(1, ()), draw(63), cycle(64), draw(65), cycle(129)]


def command_digest(capsys, tmp_path, graphs, *argv):
    """sha256 of the stdout of `<argv[0]> FILE <argv[1:]>` over the graphs,
    each run exiting 0 without a word on stderr."""
    out = []
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.sg"
        path.write_text(sg.serialize_edge_list(g), encoding="utf-8")
        code, printed, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert (code, err) == (0, "")
        out.append(printed)
    return hashlib.sha256("".join(out).encode()).hexdigest()


@pytest.mark.parametrize(
    "fmt, which, digest",
    [
        ("json", "max", "0b38d86fe16cfe5fb4ce9014f61a238cbf22135aa51fe2aed5b75dab9b891667"),
        ("csv", "min", "20b7224ff49835dcf67e4ac451fef0e8ec2268bc21eafa705cc5ebd7608e25fa"),
    ],
    ids=["json-max", "csv-min"],
)
def test_dist_golden(capsys, tmp_path, fmt, which, digest):
    # Pins the bytes of `dist` on `dist_graphs()`.
    assert command_digest(capsys, tmp_path, dist_graphs(), "dist", "--which", which, "--format", fmt) == digest


@pytest.mark.parametrize(
    "fmt, which, digest",
    [
        ("json", "min", "e37c324542a1b03abea82e926cc3a30aaa5bd94b8f37c9724475ebe493eee856"),
        ("csv", "max", "5099dd9e329d0765ef0e29ca3bfa7a0b778d748d2716f28d5a45e4e0ba235bf2"),
    ],
    ids=["json-min", "csv-max"],
)
def test_dist_golden_other_formats(capsys, tmp_path, fmt, which, digest):
    # The two (format, matrix) pairs `test_dist_golden` leaves out, on its
    # graphs and on orders around the 64-row blocks.
    graphs = dist_graphs() + block_edge_graphs()
    assert command_digest(capsys, tmp_path, graphs, "dist", "--which", which, "--format", fmt) == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "30ba55e6d7e55b4c86ef1e152578f10701584747ee32875e2ec79933d93159d0"),
        ("json", "3a34ae3b01d19299c4532d344c22d5cc9010846fa0a1b85fb5b9587cddd8dcb4"),
    ],
    ids=["text", "json"],
)
def test_compat_golden_on_dist_graphs(capsys, tmp_path, fmt, digest):
    # Pins the bytes of `compat` on incompatible graphs whose pairs lie at
    # many distances, on P_300 and on C_1000.
    assert command_digest(capsys, tmp_path, dist_graphs(), "compat", "--format", fmt) == digest


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("which", ["max", "min"])
def test_dist_output_file_holds_printed_bytes(capsys, tmp_path, fmt, which):
    # `dist -o FILE` writes the bytes `dist` prints, less the newline print
    # adds after json, on every block edge and on C_1000's sixteen blocks.
    for i, g in enumerate(block_edge_graphs() + dist_graphs()[-1:]):
        path = tmp_path / f"g{i}.sg"
        path.write_text(sg.serialize_edge_list(g), encoding="utf-8")
        argv = ["dist", str(path), "--which", which, "--format", fmt]
        code, printed, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        target = tmp_path / f"g{i}.out"
        assert invoke(capsys, *argv, "-o", str(target)) == (0, "", "")
        written = target.read_bytes()
        assert printed.encode() == (written if fmt == "csv" else written + b"\n")


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


def test_info_golden(capsys, tmp_path):
    # Pins the bytes of `info` on the witness graphs, a disconnected graph
    # and K1.
    graphs = witness_graphs() + [sg.SignedGraph(5, ((0, 1, 1), (1, 2, -1), (3, 4, -1))), sg.SignedGraph(1, ())]
    out = []
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.sg"
        path.write_text(sg.serialize_edge_list(g), encoding="utf-8")
        code, printed, err = invoke(capsys, "info", str(path))
        assert (code, err) == (0, "")
        out.append(printed)
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "86e85735a00ca37480af7b8a68f4863ea933ae043ba1785d6df94bb661c1eec0"


def write_graphs(tmp_path, graphs):
    paths = []
    for i, g in enumerate(graphs):
        path = tmp_path / f"f{i}.sg"
        path.write_text(sg.serialize_edge_list(g), encoding="utf-8")
        paths.append(str(path))
    return paths


def dist_formula_pairs(kind):
    """Seeded factor pairs: a signed Petersen graph times signed C5 and C7
    (cartesian) or a signed C11 over K5 of each sign (lex), then every
    ordered pair of K2+ and K2-, K1 with K2+, and C3 over two isolated
    vertices."""
    rng = random.Random(27)
    k1, k2p, k2n = sg.SignedGraph(1, ()), sg.complete_graph(2, 1), sg.complete_graph(2, -1)
    if kind == "cartesian":
        pet = sg.petersen_signing([rng.choice((1, -1)) for _ in range(15)])
        pairs = [(pet, sg.cycle_graph(n, [rng.choice((1, -1)) for _ in range(n)])) for n in (5, 7)]
        ends = [(k1, k2p), (k2p, k1)]
    else:
        c11 = sg.cycle_graph(11, [rng.choice((1, -1)) for _ in range(11)])
        pairs = [(c11, sg.complete_graph(5, 1)), (c11, sg.complete_graph(5, -1))]
        ends = [(k2p, k1), (sg.cycle_graph(3, [1, -1, -1]), sg.SignedGraph(2, ()))]
    return pairs + [(a, b) for a in (k2p, k2n) for b in (k2p, k2n)] + ends


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("cartesian", "f5ec827ecf8d504beddbf6f75e762ce2b23f1784d7d6a4d4e928e3c2743216f4"),
        ("lex", "ad7ff64bfb0fa09d4024d45116fc0ce73e087bd68125c96ae320255eadd58f9d"),
    ],
)
def test_dist_formula_golden(capsys, tmp_path, kind, digest):
    # Pins the bytes of `dist-formula`, whose matrix is checked against the
    # product's own distances.
    out = []
    for g1, g2 in dist_formula_pairs(kind):
        code, printed, err = invoke(capsys, "dist-formula", "--kind", kind, *write_graphs(tmp_path, [g1, g2]))
        assert (code, err) == (0, "")
        out.append(printed)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


K2 = sg.complete_graph(2, 1)
DISCONNECTED = sg.SignedGraph(3, ((0, 1, 1),))
INCOMPATIBLE = sg.cycle_graph(4, [-1, 1, 1, 1])
MIXED = sg.path_graph(3, [1, -1])
NOT_CONNECTED = "error: graph is disconnected; signed distances are undefined\n"
NOT_COMPATIBLE = "error: graph is incompatible: max and min distance matrices differ\n"
ONE_VERTEX = "error: lexicographic formula requires the first factor to have >= 2 vertices\n"
NOT_UNIFORM = "error: lexicographic formula requires the second factor to be all-positive or all-negative\n"


@pytest.mark.parametrize(
    "kind, g1, g2, err",
    [
        ("cartesian", DISCONNECTED, K2, NOT_CONNECTED),
        ("cartesian", DISCONNECTED, INCOMPATIBLE, NOT_CONNECTED),
        ("cartesian", INCOMPATIBLE, DISCONNECTED, NOT_COMPATIBLE),
        ("cartesian", INCOMPATIBLE, INCOMPATIBLE, NOT_COMPATIBLE),
        ("cartesian", K2, DISCONNECTED, NOT_CONNECTED),
        ("cartesian", K2, INCOMPATIBLE, NOT_COMPATIBLE),
        ("lex", DISCONNECTED, K2, NOT_CONNECTED),
        ("lex", INCOMPATIBLE, DISCONNECTED, NOT_COMPATIBLE),
        ("lex", sg.SignedGraph(1, ()), K2, ONE_VERTEX),
        ("lex", sg.SignedGraph(1, ()), MIXED, ONE_VERTEX),
        ("lex", K2, MIXED, NOT_UNIFORM),
        ("lex", DISCONNECTED, MIXED, NOT_UNIFORM),
        ("lex", INCOMPATIBLE, MIXED, NOT_UNIFORM),
    ],
)
def test_dist_formula_refusals(capsys, tmp_path, kind, g1, g2, err):
    # The first refusal in the order: lex hypotheses, then g1 disconnected,
    # g1 incompatible, g2 disconnected, g2 incompatible.
    assert invoke(capsys, "dist-formula", "--kind", kind, *write_graphs(tmp_path, [g1, g2])) == (1, "", err)


@pytest.mark.parametrize("kind", ["cartesian", "lex"])
def test_dist_formula_runs_one_pass(capsys, tmp_path, monkeypatch, kind):
    # The formula and the direct check read the tables of one run.
    real, calls = sg.distance._edge_bitsets, []
    monkeypatch.setattr(sg.distance, "_edge_bitsets", lambda *args: calls.append(1) or real(*args))
    for g1, g2 in dist_formula_pairs(kind):
        calls.clear()
        assert invoke(capsys, "dist-formula", "--kind", kind, *write_graphs(tmp_path, [g1, g2]))[0] == 0
        assert len(calls) == 1


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
    assert "".join(_matrix_payload([mat], len(mat), "json")) == json.dumps({"order": len(mat), "entries": mat.tolist()})
    assert "".join(_matrix_payload([mat], len(mat), "csv")) == "\n".join(",".join(map(str, row)) for row in mat.tolist()) + "\n"


@settings(max_examples=100, deadline=None)
@given(_int64_matrices(), st.data())
@example(np.array([[0, 1], [-5, 0], [0, 9]]), None)
def test_matrix_payload_of_row_blocks_matches_one_block(mat, data):
    # Cut into blocks of rows, some of which widen the range of values.
    if data is None:
        cuts = [1, 2]
    else:
        cuts = sorted(data.draw(st.sets(st.integers(1, len(mat) - 1)))) if len(mat) > 1 else []
    blocks = np.split(mat, cuts)
    for fmt in ("json", "csv"):
        assert "".join(_matrix_payload(blocks, len(mat), fmt)) == "".join(_matrix_payload([mat], len(mat), fmt))


def test_dist_payloads_match_json_dumps_on_distance_matrices():
    rng = random.Random(300)
    graphs = [sg.cycle_graph(150, [rng.choice((1, -1)) for _ in range(150)]), sg.petersen_graph(-1)]
    graphs.append(sg.random_signed_gnp(90, 0.1, rng))
    for g in graphs:
        for which in ("max", "min"):
            mat = sg.distance_matrix(g, which)
            assert "".join(_matrix_payload([mat], g.n, "json")) == json.dumps({"order": g.n, "entries": mat.tolist()})
            assert "".join(_matrix_payload([mat], g.n, "csv")) == "".join(",".join(map(str, r)) + "\n" for r in mat.tolist())


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


@pytest.mark.parametrize("size", [1, 2, 7])
def test_compat_text_does_not_depend_on_its_piece_size(capsys, tmp_path, monkeypatch, size):
    # 590 pairs over pieces of 1, 2 and 7 pairs, the last one short.
    path = tmp_path / "g.sg"
    path.write_text(sg.serialize_edge_list(sg.random_signed_gnp(60, 0.08, random.Random(17))), encoding="utf-8")
    want = [invoke(capsys, "compat", str(path), "--format", fmt) for fmt in ("text", "json")]
    monkeypatch.setattr(sg.cli, "_PAIR_PIECE", size)
    assert [invoke(capsys, "compat", str(path), "--format", fmt) for fmt in ("text", "json")] == want


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


@pytest.mark.parametrize("case", ["dist-missing-dir", "dist-directory", "conjecture-directory"])
def test_unwritable_target_names_path_and_errno(fixtures, capsys, tmp_path, case):
    # A missing directory or a directory in the place of the file: exit 1
    # and `error: cannot write PATH: [Errno N] ...` naming the file.
    if case == "dist-missing-dir":
        target = tmp_path / "missing" / "x.json"
    else:
        target = tmp_path / "candidate_7_g1.sg"
        target.mkdir()
    if case.startswith("dist"):
        argv = ["dist", fixtures["c4"], "-o", str(target)]
    else:
        argv = ["conjecture", "--trials", "50", "--max-n", "7", "--seed", "2", "--outdir", str(tmp_path)]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert re.fullmatch(rf"error: cannot write {re.escape(str(target))}: \[Errno \d+\] .+\n", err), err


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_output_file_longer_than_new_bytes_is_cut(fixtures, capsys, tmp_path, monkeypatch):
    # An existing file longer than the new output ends up holding exactly the
    # new bytes, and is never opened with O_TRUNC.
    flags = []
    real_open = os.open

    def recording_open(path, flag, *rest):
        flags.append((os.fspath(path), flag))
        return real_open(path, flag, *rest)

    monkeypatch.setattr(os, "open", recording_open)
    fresh = tmp_path / "fresh.json"
    assert invoke(capsys, "dist", fixtures["c4"], "-o", str(fresh)) == (0, "", "")
    stale = tmp_path / "stale.json"
    stale.write_text("x" * 10_000 + "\n", encoding="utf-8")
    assert invoke(capsys, "dist", fixtures["c4"], "-o", str(stale)) == (0, "", "")
    assert stale.read_bytes() == fresh.read_bytes()
    opened = [f for p, f in flags if p == str(stale)]
    assert opened and not any(f & os.O_TRUNC for f in opened)


def test_conjecture_candidate_longer_than_new_bytes_is_cut(capsys, tmp_path):
    argv = ["conjecture", "--trials", "50", "--max-n", "7", "--seed", "2", "--outdir"]
    code, out, _ = invoke(capsys, *argv, str(tmp_path / "fresh"))
    trial = json.loads(out)["counterexamples"][0]["trial"]
    stale = tmp_path / "stale"
    stale.mkdir()
    for suffix in ("_g1.sg", "_g2.sg", ".json"):
        (stale / f"candidate_{trial}{suffix}").write_text("0 0\n" * 5_000, encoding="utf-8")
    assert invoke(capsys, *argv, str(stale)) == (code, out, "")
    assert _files(stale) == _files(tmp_path / "fresh")


def test_output_to_dev_null_and_fifo(fixtures, capsys, tmp_path):
    # Targets that cannot be cut are written to and left alone.
    assert invoke(capsys, "dist", fixtures["c4"], "-o", os.devnull) == (0, "", "")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert invoke(capsys, "dist", fixtures["c4"], "-o", str(fifo)) == (0, "", "")
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert invoke(capsys, "dist", fixtures["c4"]) == (0, received.decode() + "\n", "")


def test_new_output_file_mode_matches_write_text(fixtures, capsys, tmp_path):
    old = os.umask(0o027)
    try:
        reference = tmp_path / "reference"
        reference.write_text("", encoding="utf-8")
        target = tmp_path / "out.json"
        assert invoke(capsys, "dist", fixtures["c4"], "-o", str(target)) == (0, "", "")
    finally:
        os.umask(old)
    assert target.stat().st_mode == reference.stat().st_mode == 0o100640


def test_conjecture_rerun_into_one_outdir_matches_fresh_run(capsys, tmp_path):
    # Seed 2 then seed 9 into one outdir: seed 9's stdout and every file it
    # names equal those of a fresh seed-9 run, including the files of the
    # trial both report, which seed 9 writes shorter than seed 2 did.
    def conjecture(seed, outdir):
        code, out, err = invoke(
            capsys, "conjecture", "--trials", "50", "--max-n", "7", "--seed", str(seed), "--outdir", str(outdir)
        )
        assert (code, err) == (0, "")
        names = set()
        for rec in json.loads(out)["counterexamples"]:
            t = rec["trial"]
            names |= {f"candidate_{t}_g1.sg", f"candidate_{t}_g2.sg", f"candidate_{t}.json"}
        return out, names

    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    _, names_a = conjecture(2, shared)
    before = _files(shared)
    out_b, names_b = conjecture(9, shared)
    fresh_out, fresh_names = conjecture(9, fresh)
    assert out_b == fresh_out and names_b == fresh_names
    after, expected = _files(shared), _files(fresh)
    assert {n: after[n] for n in names_b} == expected
    overlap = names_a & names_b
    assert overlap and any(len(expected[n]) < len(before[n]) for n in overlap)


@pytest.mark.parametrize("command", ["dist", "compat", "witness"])
@pytest.mark.parametrize("case", ["parse-error", "disconnected"])
def test_refusal_leaves_an_existing_output_untouched(capsys, tmp_path, command, case):
    # A refused graph exits 1 with its message before any output: the
    # existing -o file keeps its bytes and its mtime, and stdout stays empty.
    graph = tmp_path / "g.sg"
    if case == "parse-error":
        graph.write_text("3 3\n0 1 +\n1 2 +\n0 2 +\n0 2 +\n", encoding="utf-8")
        err = f"error: {graph}: line 5: duplicate edge (0,2)\n"
    else:
        graph.write_text(sg.serialize_edge_list(DISCONNECTED), encoding="utf-8")
        err = NOT_CONNECTED
    target = tmp_path / "out.txt"
    target.write_bytes(b"old bytes\n")
    os.utime(target, ns=(10**18, 10**18))
    assert invoke(capsys, command, str(graph), "-o", str(target)) == (1, "", err)
    assert target.read_bytes() == b"old bytes\n"
    assert target.stat().st_mtime_ns == 10**18


@pytest.mark.parametrize("command", ["dist", "compat", "witness"])
def test_pass_finishes_before_the_output_opens(fixtures, capsys, tmp_path, monkeypatch, command):
    events = []
    real_pass, real_open = sg.distance._edge_bitsets, os.open
    target = tmp_path / "out.txt"

    def recording_pass(*args):
        out = real_pass(*args)
        events.append("pass")
        return out

    def recording_open(path, flags, *rest):
        if os.fspath(path) == str(target):
            events.append("open")
        return real_open(path, flags, *rest)

    monkeypatch.setattr(sg.distance, "_edge_bitsets", recording_pass)
    monkeypatch.setattr(os, "open", recording_open)
    assert invoke(capsys, command, fixtures["c4"], "-o", str(target)) == (0, "", "")
    assert events == ["pass", "open"]


def test_write_takes_a_str_whole_and_pieces_in_turn(tmp_path, monkeypatch):
    # A str is one piece, not one piece per character.
    writes = []
    real_open = open

    class Recording:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            self.f.__enter__()
            return self

        def __exit__(self, *exc):
            return self.f.__exit__(*exc)

        def write(self, text):
            writes.append(text)
            return self.f.write(text)

        def __getattr__(self, name):
            return getattr(self.f, name)

    monkeypatch.setattr(sg.cli, "open", lambda *a, **k: Recording(real_open(*a, **k)), raising=False)
    target = tmp_path / "out.txt"
    sg.cli._write(target, "0,1\n1,0\n")
    assert writes == ["0,1\n1,0\n"] and target.read_text() == "0,1\n1,0\n"
    writes.clear()
    sg.cli._write(target, iter(["0,1\n", "1,0\n"]))
    assert writes == ["0,1\n", "1,0\n"] and target.read_text() == "0,1\n1,0\n"


def order_2000_graph():
    """A seeded connected signed graph of order 2000 with 3n edges: a path
    through a random order of the vertices plus random chords."""
    rng = random.Random(2000)
    n = 2000
    walk = list(range(n))
    rng.shuffle(walk)
    edges = {(min(a, b), max(a, b)) for a, b in zip(walk, walk[1:])}
    while len(edges) < 3 * n:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return sg.SignedGraph.from_edges(n, [(a, b, rng.choice((1, -1))) for a, b in sorted(edges)])


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "--format", "csv", "-o", "{out}"],
        ["witness", "--format", "json"],
        ["compat", "--format", "json", "-o", "{out}"],
    ],
    ids=["dist-csv", "witness-json", "compat-json"],
)
def test_row_block_commands_trace_under_30_mib(capsys, tmp_path, argv):
    # `dist` streams its text and `witness` and `compat` read row blocks:
    # none holds an n x n table, and `compat` sorts int32 vertex arrays.
    # numpy reports its buffers to tracemalloc.
    path = tmp_path / "g.sg"
    path.write_text(sg.serialize_edge_list(order_2000_graph()), encoding="utf-8")
    argv = [argv[0], str(path)] + [a.replace("{out}", str(tmp_path / "out.txt")) for a in argv[1:]]
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (0, "")
    assert peak < 30 * 2**20, f"{peak / 2**20:.1f} MiB"
