"""Seeded input generation and command lists for the four workloads.

Inputs depend only on the workload name and the seed: every random choice
comes from one ``random.Random`` seeded with the string ``"<workload>:<seed>"``,
and the ``.sg`` files are written by this module, not by the program under
test, so the same seed always yields byte-identical files.

A workload is a list of operations, each a ``cli.run`` argv plus the spec its
output checker needs.  The closed loop replays the list from the start, one
operation at a time; one traversal of the list is a *pass*.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

Graph = tuple[int, list[tuple[int, int, int]]]  # (n, sorted edges (u, v, sign), u < v)

WORKLOADS = ("dist-large", "mixed")

# dist-large: graphs per pass, alternating G(n, 6/n) and C_n.  The mixed
# workload's pass runs the spectral operations, one Petersen census and the
# conjecture searches, in that order.
DIST_N = 300
DIST_GRAPHS = 2
# Spectral rounds per pass, each round with fresh signs; across a pass each
# cycle length appears once with either cycle sign.
SPECTRA_ROUNDS = 2
CHARPOLY_CYCLES = (31, 35, 39)
SPECTRUM_CYCLES = (45, 55)
LEX_CYCLE, LEX_CLIQUE = 11, 5
# Conjecture searches per pass, each with its own derived seed.
CONJ_OPS = 60
CONJ_TRIALS = 50
CONJ_MAX_N = 7


@dataclass
class Workload:
    name: str
    ops: list[dict] = field(default_factory=list)  # {"argv": [...], "check": {...}}
    graphs: dict[str, Graph] = field(default_factory=dict)
    files: dict[str, bytes] = field(default_factory=dict)  # file name -> contents

    def input_sha256(self) -> str:
        """Hash of every generated file and every argv (paths kept relative)."""
        h = hashlib.sha256()
        for op in self.ops:
            h.update(repr(op["argv"]).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        return h.hexdigest()


# argv entries name input files as WORK + "/<file>"; the loop substitutes the
# run's work directory, so argv (and the input hash) do not depend on it.
WORK = "{work}"


# --------------------------------------------------------------------------
# graphs


def norm_edges(edges) -> list[tuple[int, int, int]]:
    return sorted((min(u, v), max(u, v), s) for u, v, s in edges)


def sg_text(g: Graph) -> str:
    n, edges = g
    lines = [f"{n} {len(edges)}"]
    lines += [f"{u} {v} {'+' if s > 0 else '-'}" for u, v, s in edges]
    return "\n".join(lines) + "\n"


def is_connected(g: Graph) -> bool:
    n, edges = g
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_sign(rng: random.Random) -> int:
    return 1 if rng.random() < 0.5 else -1


def signed_cycle(rng: random.Random, n: int) -> Graph:
    return n, norm_edges((i, (i + 1) % n, random_sign(rng)) for i in range(n))


def cycle_with_sign(rng: random.Random, n: int, sign: int) -> Graph:
    """Random signs with the product forced to `sign` by flipping one edge.

    A signed cycle's distance matrix is similar to that of the all-positive
    cycle or of the cycle with one negative edge, by its sign; exact
    char-poly and eigenvalue costs follow that class.  Fixing the class
    keeps the seed from changing a workload's cost through it.
    """
    signs = [random_sign(rng) for _ in range(n)]
    if math.prod(signs) != sign:
        i = rng.randrange(n)
        signs[i] = -signs[i]
    return n, norm_edges((i, (i + 1) % n, signs[i]) for i in range(n))


def connected_gnp(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p) with uniform random signs, redrawn until connected."""
    while True:
        edges = [
            (u, v, random_sign(rng))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = (n, edges)
        if is_connected(g):
            return g


def uniform_clique(n: int, sign: int) -> Graph:
    return n, [(u, v, sign) for u in range(n) for v in range(u + 1, n)]


PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
)


def signed_petersen(rng: random.Random) -> Graph:
    return 10, norm_edges((u, v, random_sign(rng)) for u, v in PETERSEN)


def cartesian(g1: Graph, g2: Graph) -> Graph:
    """Row-major product vertex order (i, k) -> i * n2 + k, as the CLI uses."""
    (n1, e1), (n2, e2) = g1, g2
    edges = [(i * n2 + j, k * n2 + j, s) for i, k, s in e1 for j in range(n2)]
    edges += [(i * n2 + j, i * n2 + l, s) for j, l, s in e2 for i in range(n1)]
    return n1 * n2, norm_edges(edges)


def lexicographic(g1: Graph, g2: Graph) -> Graph:
    (n1, e1), (n2, e2) = g1, g2
    edges = [(i * n2 + j, k * n2 + l, s) for i, k, s in e1 for j in range(n2) for l in range(n2)]
    edges += [(i * n2 + j, i * n2 + l, s) for i in range(n1) for j, l, s in e2]
    return n1 * n2, norm_edges(edges)


def tensor(g1: Graph, g2: Graph) -> Graph:
    (n1, e1), (n2, e2) = g1, g2
    edges = []
    for i, k, s1 in e1:
        for j, l, s2 in e2:
            edges.append((i * n2 + j, k * n2 + l, s1 * s2))
            edges.append((i * n2 + l, k * n2 + j, s1 * s2))
    return n1 * n2, norm_edges(edges)


# --------------------------------------------------------------------------
# workloads


class _Generator:
    def __init__(self, name: str, seed: int):
        self.w = Workload(name)
        self.rng = random.Random(f"{name}:{seed}")

    def graph(self, gid: str, g: Graph) -> str:
        """Register a graph and return the path of its .sg file."""
        self.w.graphs[gid] = g
        fname = f"{gid}.sg"
        self.w.files[fname] = sg_text(g).encode()
        return f"{WORK}/{fname}"

    def op(self, argv: list[str], **check) -> None:
        self.w.ops.append({"argv": argv, "check": check})


def _dist_large(b: _Generator) -> None:
    for i in range(DIST_GRAPHS):
        if i % 2 == 0:
            g = connected_gnp(b.rng, DIST_N, 6 / DIST_N)
        else:
            g = signed_cycle(b.rng, DIST_N)
        gid = f"g{i}"
        path = b.graph(gid, g)
        b.op(["info", path], kind="info", graph=gid)
        b.op(["dist", path, "--which", "max"], kind="dist", graph=gid, which="max", format="json")
        b.op(["dist", path, "--which", "min", "--format", "csv"], kind="dist", graph=gid, which="min", format="csv")
        b.op(["compat", path, "--format", "json"], kind="compat", graph=gid)
        b.op(["witness", path, "--format", "json"], kind="witness", graph=gid)


def _spectra(b: _Generator) -> None:
    rng = b.rng
    for r in range(SPECTRA_ROUNDS):
        petersen = b.graph(f"r{r}-P", signed_petersen(rng))
        pet = b.w.graphs[f"r{r}-P"]
        for j, n in enumerate(CHARPOLY_CYCLES):
            gid = f"r{r}-C{n}"
            path = b.graph(gid, cycle_with_sign(rng, n, (-1) ** (r + j)))
            b.op(["charpoly", path], kind="charpoly", graph=gid, lambdas=[rng.randrange(1, 2**30) for _ in range(3)])
        gid = f"r{r}-PxC3"
        path = b.graph(gid, cartesian(pet, signed_cycle(rng, 3)))
        b.op(["charpoly", path], kind="charpoly", graph=gid, lambdas=[rng.randrange(1, 2**30) for _ in range(3)])
        for j, n in enumerate(SPECTRUM_CYCLES):
            gid = f"r{r}-C{n}"
            path = b.graph(gid, cycle_with_sign(rng, n, (-1) ** (r + j)))
            b.op(["spectrum", path, "--format", "json"], kind="spectrum", graph=gid)
        c5 = signed_cycle(rng, 5)
        c7 = signed_cycle(rng, 7)
        gid = f"r{r}-PxC5"
        path = b.graph(gid, cartesian(pet, c5))
        b.op(["spectrum", path, "--format", "json"], kind="spectrum", graph=gid)
        for k, ck in ((5, c5), (7, c7)):
            gid = f"r{r}-C{k}"
            path = b.graph(gid, ck)
            b.op(
                ["dist-formula", "--kind", "cartesian", petersen, path],
                kind="dist-formula", product="cartesian", graphs=[f"r{r}-P", gid],
            )
        g1 = f"r{r}-C{LEX_CYCLE}"
        g2 = f"r{r}-K{LEX_CLIQUE}"
        p1 = b.graph(g1, signed_cycle(rng, LEX_CYCLE))
        p2 = b.graph(g2, uniform_clique(LEX_CLIQUE, random_sign(rng)))
        b.op(["dist-formula", "--kind", "lex", p1, p2], kind="dist-formula", product="lex", graphs=[g1, g2])
    b.op(["petersen-table"], kind="census")


def _conjecture(b: _Generator) -> None:
    for i in range(CONJ_OPS):
        seed = b.rng.randrange(2**31)
        outdir = f"{WORK}/conj{i}"
        b.op(
            ["conjecture", "--trials", str(CONJ_TRIALS), "--max-n", str(CONJ_MAX_N),
             "--seed", str(seed), "--outdir", outdir],
            kind="conjecture", seed=seed, trials=CONJ_TRIALS, max_n=CONJ_MAX_N,
        )


def _mixed(b: _Generator) -> None:
    _spectra(b)
    _conjecture(b)


_GENERATORS = {
    "dist-large": _dist_large,
    "mixed": _mixed,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs from the seed and write them under workdir."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")
    b = _Generator(name, seed)
    _GENERATORS[name](b)
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, data in b.w.files.items():
        (workdir / fname).write_bytes(data)
    return b.w
