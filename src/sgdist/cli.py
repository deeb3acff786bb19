"""Command-line surface: one subcommand per library capability.

Exit codes: 0 success, 1 domain error (bad graph, violated hypothesis),
2 usage error, 3 formula-vs-direct disagreement (reserved for bug
detection).  Results go to stdout (or -o FILE), errors to stderr.

An existing output file (`-o FILE`, or a `conjecture --outdir` candidate)
is overwritten in place: the new text is written over the old bytes and the
file is then cut at its end.  Neither this nor a truncate-first write is
atomic: a crash mid-write can leave old bytes after the new ones, where a
truncate-first write could leave a short file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import catalog, core, distance, products, spectra

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3


def _read_graph(path: str) -> core.SignedGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return core.parse_edge_list(text)
    except core.EdgeListError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write(path: Path, text: str, parents: bool = False) -> None:
    """Write `text` to `path`, after making its missing directories when
    `parents`; ValueError naming the path when either fails.

    The file is not truncated first, but cut after the write, and only when
    it is a regular file (a FIFO or /dev/null cannot be cut): on ext4,
    truncating a file whose blocks are on disk frees them and starts
    writeback when the file is closed.
    """
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as f:
            f.write(text)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _emit(args, payload: str) -> None:
    if args.output:
        _write(Path(args.output), payload)
    else:
        end = "" if payload.endswith("\n") else "\n"
        print(payload, end=end)


def _matrix_payload(mat: np.ndarray, fmt: str) -> str:
    """The json or csv text of a distance matrix, built by one join.

    Each entry is written through a table holding, for every value in
    [min, max], its text followed by its separator, and a row-end variant
    for the last column; the matrix offset by min indexes it, so no Python
    int is made per entry.  A distance matrix of order n has its entries in
    [-(n-1), n-1], so the table is shorter than four rows.
    """
    sep, end = (",", "\n") if fmt == "csv" else (", ", "], [")
    lo, hi = int(mat.min()), int(mat.max())
    texts = [str(x) for x in range(lo, hi + 1)]
    table = np.array([t + sep for t in texts] + [t + end for t in texts], dtype=object)
    codes = mat - lo
    codes[:, -1] += len(texts)
    text = "".join(table[codes].ravel().tolist())
    if fmt == "csv":
        return text
    # The last row ends "], [": keep its "]" and close the list.
    return f'{{"order": {mat.shape[0]}, "entries": [[{text[:-3]}]}}'


def _cmd_info(args) -> int:
    g = _read_graph(args.file)
    preds = core.structural_predicates(g)
    degrees = core.net_degrees(g)
    payload = {
        "order": g.n,
        "size": g.m,
        "is_connected": preds.is_connected,
        "is_two_connected": preds.is_two_connected,
        "is_geodetic": preds.is_geodetic,
        "has_odd_cycle": preds.has_odd_cycle,
        "is_balanced": core.is_balanced(g),
        "net_degrees": degrees,
        "is_net_regular": len(set(degrees)) <= 1,
    }
    _emit(args, json.dumps(payload))
    return EXIT_OK


def _cmd_dist(args) -> int:
    g = _read_graph(args.file)
    mat = distance.distance_matrix(g, args.which)
    _emit(args, _matrix_payload(mat, args.format))
    return EXIT_OK


def _cmd_compat(args) -> int:
    g = _read_graph(args.file)
    u, v = distance._sorted_pair_arrays(distance.signed_distances(g))
    # The pairs' text, joined from "[u, " and "v], " pieces for json or
    # "(u," and "v) " pieces for text, written through tables over the
    # vertices; the separator after the last pair is cut.
    lead, mid, end = ("[", ", ", "], ") if args.format == "json" else ("(", ",", ") ")
    pieces = np.empty(2 * len(u), dtype=object)
    pieces[0::2] = np.array([f"{lead}{x}{mid}" for x in range(g.n)], dtype=object)[u]
    pieces[1::2] = np.array([f"{x}{end}" for x in range(g.n)], dtype=object)[v]
    body = "".join(pieces.tolist()).rstrip(", ")
    if args.format == "json":
        _emit(args, f'{{"compatible": {json.dumps(not len(u))}, "incompatible_pairs": [{body}]}}')
    elif len(u):
        _emit(args, "incompatible: " + body)
    else:
        _emit(args, "compatible")
    return EXIT_OK


def _cmd_witness(args) -> int:
    g = _read_graph(args.file)
    w = distance.least_incompatible_witness(g)
    if args.format == "json":
        payload = None
        if w is not None:
            payload = {
                "pair": list(w.pair),
                "path_pos": list(w.path_pos),
                "path_neg": list(w.path_neg),
                "cycle": list(w.cycle),
                "distance": w.k,
            }
        _emit(args, json.dumps({"compatible": w is None, "witness": payload}))
    elif w is None:
        _emit(args, "compatible")
    else:
        _emit(
            args,
            f"incompatible pair ({w.pair[0]},{w.pair[1]}) at distance {w.k}\n"
            f"positive path: {' '.join(map(str, w.path_pos))}\n"
            f"negative path: {' '.join(map(str, w.path_neg))}\n"
            f"negative cycle of length {len(w.cycle)}: {' '.join(map(str, w.cycle))}",
        )
    return EXIT_OK


def _cmd_product(args) -> int:
    g1 = _read_graph(args.file1)
    g2 = _read_graph(args.file2)
    if args.kind == "cartesian":
        prod = products.cartesian(g1, g2)
    elif args.kind == "lex":
        prod = products.lexicographic(g1, g2)
    else:
        products._check_tensor_connected(g1, g2)
        prod = products.tensor(g1, g2)
    _emit(args, core.serialize_edge_list(prod))
    return EXIT_OK


def _cmd_dist_formula(args) -> int:
    g1 = _read_graph(args.file1)
    g2 = _read_graph(args.file2)
    if args.kind == "cartesian":
        sd1, sd2, direct = distance._Run.of([g1, g2, products.cartesian(g1, g2)]).tables()
        formula = spectra._cartesian_formula(sd1, sd2)
    else:
        spectra._check_lexicographic(g1, g2)
        sd1, direct = distance._Run.of([g1, products.lexicographic(g1, g2)]).tables()
        formula = spectra._lexicographic_formula(sd1, g2)
    if not (np.array_equal(formula, direct.d_max) and np.array_equal(formula, direct.d_min)):
        print("formula route disagrees with direct distance computation", file=sys.stderr)
        return EXIT_MISMATCH
    _emit(args, _matrix_payload(formula, "json")[:-1] + ', "matches_direct": true}')
    return EXIT_OK


def _cmd_charpoly(args) -> int:
    g = _read_graph(args.file)
    poly = spectra.char_poly(distance.distance_matrix(g, args.which))
    _emit(args, json.dumps({"coefficients": poly.to_json(), "rendered": str(poly)}))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = _read_graph(args.file)
    spec = spectra.eig_symmetric(spectra.compatible_distance_matrix(g), tol=args.tol)
    if args.format == "json":
        _emit(
            args,
            json.dumps(
                {
                    "eigenvalues": [{"value": v, "multiplicity": m} for v, m in spec.entries],
                    "tol": spec.tol,
                }
            ),
        )
    else:
        _emit(args, str(spec))
    return EXIT_OK


def _cmd_gen(args) -> int:
    # Sign patterns such as "-+++" look like options, so `params` is a
    # REMAINDER capture; pull a trailing -o/--output out of it by hand.
    params = list(args.params)
    for flag in ("-o", "--output"):
        if flag in params:
            i = params.index(flag)
            if i + 1 >= len(params):
                raise ValueError(f"{flag} needs a file argument")
            args.output = params[i + 1]
            del params[i : i + 2]
    g = catalog.generate(args.kind, params)
    _emit(args, core.serialize_edge_list(g))
    return EXIT_OK


def _cmd_petersen_table(args) -> int:
    table = catalog.enumerate_petersen_signings()
    payload = {
        "total_signings": table.total,
        "classes": [
            {
                "label": c.label,
                "size": c.size,
                "char_poly": c.char_poly.to_json(),
                "rendered": str(c.char_poly),
                "representative": core.serialize_edge_list(c.representative),
            }
            for c in table.classes
        ],
    }
    _emit(args, json.dumps(payload))
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    found = products.conjecture_search(args.trials, max_n=args.max_n, seed=args.seed)
    outdir = Path(args.outdir)
    # Each record is encoded once: its text is both the candidate's .json
    # file and its entry in stdout's list, which json.dumps joins by ", ".
    texts = []
    for cand in found:
        g1, g2 = core.serialize_edge_list(cand.g1), core.serialize_edge_list(cand.g2)
        texts.append(
            json.dumps(
                {
                    "trial": cand.trial,
                    "g1": g1,
                    "g2": g2,
                    "incompatible_product_pairs": [list(p) for p in cand.product_pairs],
                }
            )
        )
        # outdir is made with the first candidate's file, so a search that
        # finds nothing makes no directory.
        _write(outdir / f"candidate_{cand.trial}_g1.sg", g1, parents=len(texts) == 1)
        _write(outdir / f"candidate_{cand.trial}_g2.sg", g2)
        _write(outdir / f"candidate_{cand.trial}.json", texts[-1])
    head = json.dumps({"trials": args.trials, "max_n": args.max_n, "seed": args.seed})
    _emit(args, f'{head[:-1]}, "counterexamples": [{", ".join(texts)}]}}')
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sgdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="order, size, predicates, balance, net-degrees")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("dist", help="signed distance matrix")
    p.add_argument("file")
    p.add_argument("--which", choices=("max", "min"), default="max")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("compat", help="compatibility verdict and incompatible pairs")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compat)

    p = sub.add_parser("witness", help="least-distance incompatibility witness")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("product", help="signed graph product, emitted as an edge list")
    p.add_argument("--kind", choices=("cartesian", "lex", "tensor"), required=True)
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("dist-formula", help="Kronecker-form product distance matrix, checked against direct BFS")
    p.add_argument("--kind", choices=("cartesian", "lex"), required=True)
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_dist_formula)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial of the distance matrix")
    p.add_argument("file")
    p.add_argument("--which", choices=("max", "min"), default="max")
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("spectrum", help="distance spectrum of a compatible signed graph")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("gen", help="generate a named graph (path/cycle/complete/petersen)")
    p.add_argument("kind")
    p.add_argument("params", nargs=argparse.REMAINDER)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("petersen-table", help="census of all 2^15 Petersen signings")
    p.set_defaults(func=_cmd_petersen_table)

    p = sub.add_parser("conjecture", help="randomized tensor-compatibility counterexample search")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--max-n", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=_cmd_conjecture)

    for p in sub.choices.values():
        p.add_argument("-o", "--output")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
