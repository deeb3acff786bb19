"""Output checks by routes independent of sgdist's own algorithms.

Reference signed distances come from scipy's unweighted shortest paths for
|D| and from level-by-level propagation of "a positive / a negative shortest
path exists" as float32 matrix products for the signs, not from a per-source
BFS.  Characteristic polynomials are checked modulo a 31-bit prime at random
points against determinants by modular elimination; spectra against
``numpy.linalg.eigvalsh``; path claims against networkx.

Every checker raises CheckError with a message when the output is wrong.
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from workloads import PETERSEN, Graph, cartesian, lexicographic, norm_edges, tensor

PRIME = 2**31 - 1

# Distance characteristic polynomials of the six signed Petersen classes and
# the number of the 2^15 signings in each, in the order the census lists them.
PETERSEN_CENSUS = (
    ("+P", 512, (1, 0, -135, -1080, -3645, -5832, -3645, 0, 0, 0, 0)),
    ("P1", 7680, (1, 0, -135, -504, 2851, 15688, -5229, -122256, -157680, 0, 0)),
    ("P2,2", 15360, (1, 0, -135, -216, 5587, 13648, -77957, -220888, 243912, 645984, -308880)),
    ("P2,3", 7680, (1, 0, -135, -184, 6211, 13720, -111981, -295840, 690800, 1968000, 0)),
    ("P3,2", 1024, (1, 0, -135, 40, 6675, -4848, -140725, 195240, 986040, -2613600, 1724976)),
    ("P3,3", 512, (1, 0, -135, -120, 6435, 6696, -145725, -126000, 1620000, 800000, -7200000)),
)
CENSUS_POINTS = (2, 7, 1000003)


class CheckError(Exception):
    pass


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def parse_sg(text: str) -> Graph:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    n, m = int(lines[0][0]), int(lines[0][1])
    edges = [(int(u), int(v), 1 if s in ("+", "+1") else -1) for u, v, s in lines[1:]]
    require(len(edges) == m, f"edge list declares {m} edges, has {len(edges)}")
    return n, norm_edges(edges)


def nx_graph(g: Graph) -> nx.Graph:
    gx = nx.Graph()
    gx.add_nodes_from(range(g[0]))
    for u, v, s in g[1]:
        gx.add_edge(u, v, sign=s)
    return gx


def _load_json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


# --------------------------------------------------------------------------
# reference distances


class Reference:
    """Hop distances and both signed distance matrices of one graph."""

    def __init__(self, g: Graph):
        n, edges = g
        self.g = g
        rows = [u for u, _, _ in edges]
        cols = [v for _, v, _ in edges]
        adj = csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(n, n))
        hop = shortest_path(adj, directed=False, unweighted=True)
        require(np.isfinite(hop).all(), "input graph is disconnected")
        self.hop = hop.astype(np.int64)
        plus = np.zeros((n, n), dtype=np.float32)
        minus = np.zeros((n, n), dtype=np.float32)
        for u, v, s in edges:
            a = plus if s > 0 else minus
            a[u, v] = a[v, u] = 1
        pos = np.eye(n, dtype=bool)  # a positive shortest path exists
        neg = np.zeros((n, n), dtype=bool)  # a negative shortest path exists
        for level in range(1, int(self.hop.max(initial=0)) + 1):
            prev = self.hop == level - 1
            p = (pos & prev).astype(np.float32)
            q = (neg & prev).astype(np.float32)
            cur = self.hop == level
            pos |= cur & ((p @ plus + q @ minus) > 0)
            neg |= cur & ((p @ minus + q @ plus) > 0)
        self.dmax = np.where(pos, self.hop, -self.hop)
        self.dmin = np.where(neg, -self.hop, self.hop)

    def incompatible_pairs(self) -> list[tuple[int, int]]:
        us, vs = np.nonzero(np.triu(self.dmax != self.dmin))
        return sorted(zip(us.tolist(), vs.tolist()), key=lambda p: (self.hop[p], p))


# --------------------------------------------------------------------------
# exact arithmetic mod PRIME


def det_mod(m: np.ndarray, p: int = PRIME) -> int:
    """Determinant of an integer matrix modulo p by Gaussian elimination."""
    a = np.array(m, dtype=np.int64) % p
    n = a.shape[0]
    det = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if not len(nz):
            return 0
        r = c + int(nz[0])
        if r != c:
            a[[c, r]] = a[[r, c]]
            det = -det
        piv = int(a[c, c])
        det = det * piv % p
        f = a[c + 1 :, c] * pow(piv, p - 2, p) % p
        a[c + 1 :, c:] = (a[c + 1 :, c:] - f[:, None] * a[c, c:] % p) % p
    return det % p


def poly_at_mod(coeffs, x: int, p: int = PRIME) -> int:
    acc = 0
    for c in coeffs:
        acc = (acc * x + int(c)) % p
    return acc


def require_charpoly(coeffs, d: np.ndarray, points) -> None:
    n = d.shape[0]
    require(len(coeffs) == n + 1 and coeffs[0] == 1, f"expected a monic degree-{n} polynomial")
    for x in points:
        want = det_mod(x * np.eye(n, dtype=np.int64) - d)
        require(poly_at_mod(coeffs, x) == want, f"p({x}) != det({x}I - D) mod {PRIME}")


# --------------------------------------------------------------------------
# per-command checks


def check_info(ref: Reference, out: str) -> None:
    n, edges = ref.g
    got = _load_json(out)
    require(got.get("order") == n and got.get("size") == len(edges), "order or size wrong")
    require(got.get("is_connected") is True, "connected input reported disconnected")
    net = [0] * n
    for u, v, s in edges:
        net[u] += s
        net[v] += s
    require(got.get("net_degrees") == net, "net degrees wrong")
    require(got.get("has_odd_cycle") == (not nx.is_bipartite(nx_graph(ref.g))), "has_odd_cycle wrong")


def parse_matrix(out: str, fmt: str) -> np.ndarray:
    if fmt == "csv":
        try:
            return np.array([[int(x) for x in ln.split(",")] for ln in out.splitlines() if ln], dtype=np.int64)
        except ValueError as exc:
            raise CheckError(f"bad CSV matrix: {exc}") from None
    got = _load_json(out)
    mat = np.array(got.get("entries"), dtype=np.int64)
    require(got.get("order") == mat.shape[0], "order field disagrees with the matrix")
    return mat


def check_dist(ref: Reference, out: str, which: str, fmt: str) -> None:
    d = parse_matrix(out, fmt)
    require(d.shape == ref.hop.shape, f"matrix shape {d.shape}, expected {ref.hop.shape}")
    require(np.array_equal(np.abs(d), ref.hop), "|D| differs from the hop distances")
    require(np.array_equal(d, d.T), "D is not symmetric")
    for u, v, s in ref.g[1]:
        require(d[u, v] == s, f"edge entry ({u},{v}) is not its sign {s}")
    require((ref.dmax >= ref.dmin).all(), "reference D_max < D_min")
    want = ref.dmax if which == "max" else ref.dmin
    bad = np.argwhere(d != want).tolist()
    require(not bad, f"D_{which} wrong at {len(bad)} entries, first {bad[0] if bad else ''}")


def check_compat(ref: Reference, out: str) -> None:
    got = _load_json(out)
    want = ref.incompatible_pairs()
    pairs = [tuple(p) for p in got.get("incompatible_pairs", [])]
    require(pairs == want, f"incompatible pairs: got {len(pairs)}, expected {len(want)} (D_max != D_min)")
    require(got.get("compatible") == (not want), "compatible flag wrong")


def _path_sign(path, signs: dict) -> int:
    s = 1
    for a, b in zip(path, path[1:]):
        require((a, b) in signs, f"({a},{b}) is not an edge")
        s *= signs[(a, b)]
    return s


def check_witness(ref: Reference, out: str) -> None:
    got = _load_json(out)
    incompatible = ref.incompatible_pairs()
    w = got.get("witness")
    if not incompatible:
        require(got.get("compatible") is True and w is None, "compatible graph given a witness")
        return
    require(got.get("compatible") is False and w is not None, "incompatible graph given no witness")
    u, v = w["pair"]
    k = w["distance"]
    pos, neg, cycle = w["path_pos"], w["path_neg"], w["cycle"]
    signs = {}
    for a, b, s in ref.g[1]:
        signs[(a, b)] = signs[(b, a)] = s
    require(k == ref.hop[u, v], "witness distance is not the hop distance")
    require(k == min(ref.hop[p] for p in incompatible), "a closer incompatible pair exists")
    for path, want in ((pos, 1), (neg, -1)):
        require(path[0] == u and path[-1] == v and len(path) == k + 1, "path endpoints or length wrong")
        require(len(set(path)) == len(path), "path repeats a vertex")
        require(_path_sign(path, signs) == want, f"path sign is not {want}")
    require(not set(pos[1:-1]) & set(neg[1:-1]), "paths are not internally disjoint")
    require(len(cycle) == 2 * k and len(set(cycle)) == 2 * k, "cycle length or vertices wrong")
    require(_path_sign(list(cycle) + [cycle[0]], signs) == -1, "cycle is not negative")


def check_charpoly(ref: Reference, out: str, points) -> None:
    got = _load_json(out)
    require_charpoly(got.get("coefficients", []), ref.dmax, points)


def check_spectrum(ref: Reference, out: str) -> None:
    got = _load_json(out)
    n = ref.hop.shape[0]
    require(np.array_equal(ref.dmax, ref.dmin), "spectrum input is not compatible")
    entries = got.get("eigenvalues", [])
    require(sum(e["multiplicity"] for e in entries) == n, "multiplicities do not sum to n")
    tol = got.get("tol", 1e-6)
    want = np.sort(np.linalg.eigvalsh(ref.dmax.astype(np.float64)))[::-1]
    i = 0
    for e in entries:
        for _ in range(e["multiplicity"]):
            slack = tol * e["multiplicity"] + 1e-9 * max(1.0, abs(want[i]))
            require(abs(e["value"] - want[i]) <= slack, f"eigenvalue {e['value']} vs eigvalsh {want[i]}")
            i += 1


def check_dist_formula(prod: Reference, out: str) -> None:
    got = _load_json(out)
    require(got.get("order") == prod.hop.shape[0], "product order wrong")
    require(got.get("matches_direct") is True, "formula not confirmed by the direct route")
    require(np.array_equal(np.array(got.get("entries"), dtype=np.int64), prod.dmax), "product D wrong")


def check_census(out: str) -> None:
    got = _load_json(out)
    classes = got.get("classes", [])
    require(got.get("total_signings") == 1 << 15, "total is not 2^15")
    require(len(classes) == len(PETERSEN_CENSUS), "expected six classes")
    pet = sorted((min(u, v), max(u, v)) for u, v in PETERSEN)
    for c, (label, size, poly) in zip(classes, PETERSEN_CENSUS):
        require(c.get("label") == label, f"class {c.get('label')!r} where {label!r} belongs")
        require(c.get("size") == size, f"class {label} has size {c.get('size')}, expected {size}")
        require(tuple(c.get("char_poly", ())) == poly, f"class {label} polynomial wrong")
        rep = parse_sg(c["representative"])
        require(rep[0] == 10 and sorted((u, v) for u, v, _ in rep[1]) == pet, f"{label} representative is not Petersen")
        require_charpoly(poly, Reference(rep).dmax, CENSUS_POINTS)


def _nx_signs(g: Graph, u: int, v: int) -> set[int]:
    gx = nx_graph(g)
    out = set()
    for path in nx.all_shortest_paths(gx, u, v):
        s = 1
        for a, b in zip(path, path[1:]):
            s *= gx.edges[a, b]["sign"]
        out.add(s)
    return out


def check_conjecture(out: str, seed: int, trials: int, max_n: int) -> None:
    got = _load_json(out)
    require((got.get("trials"), got.get("max_n"), got.get("seed")) == (trials, max_n, seed), "echoed arguments wrong")
    last = -1
    for rec in got.get("counterexamples", []):
        require(last < rec["trial"] < trials, "trial numbers not increasing within range")
        last = rec["trial"]
        g1, g2 = parse_sg(rec["g1"]), parse_sg(rec["g2"])
        odd = False
        for g in (g1, g2):
            require(2 <= g[0] <= max_n, "factor order out of range")
            r = Reference(g)
            require(np.array_equal(r.dmax, r.dmin), "factor is not compatible")
            odd = odd or not nx.is_bipartite(nx_graph(g))
        require(odd, "both factors bipartite: tensor product disconnected")
        prod = tensor(g1, g2)
        pairs = [tuple(p) for p in rec["incompatible_product_pairs"]]
        require(pairs and pairs == Reference(prod).incompatible_pairs(), "reported product pairs wrong")
        for u, v in {pairs[0], pairs[-1]}:
            require(_nx_signs(prod, u, v) == {1, -1}, f"pair ({u},{v}) has shortest paths of one sign")


def check(spec: dict, rc: int, out: str, graphs: dict[str, Graph], refs: dict[str, Reference]) -> None:
    """Check one operation's exit code and output against its spec."""
    require(rc == 0, f"exit code {rc}")

    def ref(gid: str) -> Reference:
        if gid not in refs:
            refs[gid] = Reference(graphs[gid])
        return refs[gid]

    def product_ref(kind: str, gid1: str, gid2: str) -> Reference:
        key = f"{kind}:{gid1}:{gid2}"
        if key not in refs:
            build = cartesian if kind == "cartesian" else lexicographic
            refs[key] = Reference(build(graphs[gid1], graphs[gid2]))
        return refs[key]

    kind = spec["kind"]
    if kind == "info":
        check_info(ref(spec["graph"]), out)
    elif kind == "dist":
        check_dist(ref(spec["graph"]), out, spec["which"], spec["format"])
    elif kind == "compat":
        check_compat(ref(spec["graph"]), out)
    elif kind == "witness":
        check_witness(ref(spec["graph"]), out)
    elif kind == "charpoly":
        check_charpoly(ref(spec["graph"]), out, spec["lambdas"])
    elif kind == "spectrum":
        check_spectrum(ref(spec["graph"]), out)
    elif kind == "dist-formula":
        check_dist_formula(product_ref(spec["product"], *spec["graphs"]), out)
    elif kind == "census":
        check_census(out)
    elif kind == "conjecture":
        check_conjecture(out, spec["seed"], spec["trials"], spec["max_n"])
    else:
        raise CheckError(f"no checker for {kind!r}")
