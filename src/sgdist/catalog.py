"""Named signed graph generators and the signed Petersen census.

The Petersen graph uses the canonical numbering: outer 5-cycle 0..4, inner
pentagram 5..9 (5+i adjacent to 5+((i+2) mod 5)), spokes i to i+5.  Sign
vectors for Petersen signings follow PETERSEN_EDGES order: the five outer
edges, then the five inner edges, then the five spokes.

Every signing of the Petersen graph is geodetic, hence compatible, so each
one has a single distance matrix D.  Grouping all 2^15 signings by the
characteristic polynomial of D recovers exactly six classes, one per
switching isomorphism type of minimal signed Petersen graph.  The census
computes one polynomial per switching class (64 of them, told apart by the
signs of the 6 fundamental cycles of a spanning tree) and takes class sizes
and representatives from array reductions over all codes.  The matrices
come from one all-sources signed pass over every signing the census builds,
which checks each for compatibility rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import SignedGraph, _SIGN_TOKENS, _bfs, _check_sign, _vertex_count
from .distance import _connected_run
from .spectra import IntPolynomial, _compatible_matrix, char_poly_batch

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "petersen_graph",
    "petersen_signing",
    "PETERSEN_EDGES",
    "PETERSEN_CLASS_POLYNOMIALS",
    "generate",
    "PetersenClass",
    "PetersenClassTable",
    "enumerate_petersen_signings",
]


def _check_pattern(signs: Sequence[int], expected: int, what: str) -> tuple[int, ...]:
    if len(signs) != expected:
        raise ValueError(f"{what} needs {expected} signs, got {len(signs)}")
    return tuple(_check_sign(s) for s in signs)


def path_graph(n: int, signs: Sequence[int]) -> SignedGraph:
    """Path 0-1-...-(n-1) with one sign per edge."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    pat = _check_pattern(signs, n - 1, f"path on {n} vertices")
    return SignedGraph(n, tuple((i, i + 1, s) for i, s in enumerate(pat)))


def cycle_graph(n: int, signs: Sequence[int]) -> SignedGraph:
    """Cycle 0-1-...-(n-1)-0; signs[i] labels the edge (i, i+1 mod n)."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    pat = _check_pattern(signs, n, f"cycle on {n} vertices")
    return SignedGraph.from_edges(n, [(i, (i + 1) % n, pat[i]) for i in range(n)])


def complete_graph(n: int, sign: int = 1) -> SignedGraph:
    """Complete graph with one uniform sign."""
    n = _vertex_count(n)
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    s = _check_sign(sign)
    return SignedGraph._trusted(n, tuple((u, v, s) for u in range(n) for v in range(u + 1, n)))


# Canonical edge order for Petersen sign vectors: outer, inner, spokes.
PETERSEN_EDGES: tuple[tuple[int, int], ...] = tuple(
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
)


def petersen_signing(signs: Sequence[int]) -> SignedGraph:
    """Signed Petersen graph from 15 signs in PETERSEN_EDGES order."""
    pat = _check_pattern(signs, 15, "Petersen signing")
    return SignedGraph.from_edges(10, [(u, v, s) for (u, v), s in zip(PETERSEN_EDGES, pat)])


def petersen_graph(sign: int = 1) -> SignedGraph:
    """Petersen graph with one uniform sign."""
    _check_sign(sign)
    return petersen_signing([sign] * 15)


def generate(kind: str, params: Sequence[str]) -> SignedGraph:
    """Build a named graph from string parameters (the CLI `gen` surface).

    path N PATTERN / cycle N PATTERN / complete N SIGN / petersen SIGN,
    where PATTERN is a string over '+'/'-' and SIGN is '+' or '-'.
    """
    def parse_n(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"N must be an integer, got {tok!r}") from None

    def parse_sign(tok: str) -> int:
        if tok not in _SIGN_TOKENS:
            raise ValueError(f"bad sign {tok!r} (use + or -)")
        return _SIGN_TOKENS[tok]

    def parse_pattern(tok: str) -> list[int]:
        return [parse_sign(ch) for ch in tok]

    if kind == "path":
        if len(params) != 2:
            raise ValueError("usage: gen path N PATTERN")
        return path_graph(parse_n(params[0]), parse_pattern(params[1]))
    if kind == "cycle":
        if len(params) != 2:
            raise ValueError("usage: gen cycle N PATTERN")
        return cycle_graph(parse_n(params[0]), parse_pattern(params[1]))
    if kind == "complete":
        if len(params) != 2:
            raise ValueError("usage: gen complete N SIGN")
        return complete_graph(parse_n(params[0]), parse_sign(params[1]))
    if kind == "petersen":
        if len(params) != 1:
            raise ValueError("usage: gen petersen SIGN")
        return petersen_graph(parse_sign(params[0]))
    raise ValueError(f"unknown kind {kind!r} (use path, cycle, complete or petersen)")


# Distance characteristic polynomials of the six minimal signed Petersen
# types, keyed by type label.  The census below must reproduce exactly this
# set; anything else is a hard failure.
PETERSEN_CLASS_POLYNOMIALS: dict[str, tuple[int, ...]] = {
    "+P": (1, 0, -135, -1080, -3645, -5832, -3645, 0, 0, 0, 0),
    "P1": (1, 0, -135, -504, 2851, 15688, -5229, -122256, -157680, 0, 0),
    "P2,2": (1, 0, -135, -216, 5587, 13648, -77957, -220888, 243912, 645984, -308880),
    "P2,3": (1, 0, -135, -184, 6211, 13720, -111981, -295840, 690800, 1968000, 0),
    "P3,2": (1, 0, -135, 40, 6675, -4848, -140725, 195240, 986040, -2613600, 1724976),
    "P3,3": (1, 0, -135, -120, 6435, 6696, -145725, -126000, 1620000, 800000, -7200000),
}

_CLASS_ORDER = ("+P", "P1", "P2,2", "P2,3", "P3,2", "P3,3")


@dataclass(frozen=True)
class PetersenClass:
    label: str
    representative: SignedGraph
    char_poly: IntPolynomial
    size: int


@dataclass(frozen=True)
class PetersenClassTable:
    """The six signing classes, in label order, covering all 2^15 signings."""

    classes: tuple[PetersenClass, ...]

    def by_label(self, label: str) -> PetersenClass:
        for c in self.classes:
            if c.label == label:
                return c
        raise KeyError(label)

    @property
    def total(self) -> int:
        return sum(c.size for c in self.classes)


def _signing(code: int) -> SignedGraph:
    """Petersen signing whose edge b (PETERSEN_EDGES order) is negative iff
    bit b of code is set."""
    return petersen_signing([1 - 2 * ((code >> b) & 1) for b in range(15)])


def _fundamental_cycle_masks() -> list[int]:
    """15-bit edge masks of the 6 fundamental cycles of a BFS spanning tree.

    Bit b stands for edge b of PETERSEN_EDGES.  With edge b alone negative,
    the tree-path signs of `core._bfs` from vertex 0 are -1 exactly at the
    vertices whose root path runs through b: b is a tree edge iff some sign
    is -1.  A non-tree edge uv closes the cycle of uv and the tree path
    between u and v, which holds tree edge b iff b is on exactly one of the
    two root paths, i.e. the signs of u and v differ with b negative.
    """
    signs = [_bfs(_signing(1 << b), (0,))[1] for b in range(15)]
    tree = [b for b in range(15) if -1 in signs[b]]
    return [
        (1 << i) | sum(1 << b for b in tree if signs[b][u] != signs[b][v])
        for i, (u, v) in enumerate(PETERSEN_EDGES)
        if i not in tree
    ]


_CYCLE_MASKS = _fundamental_cycle_masks()


def _switching_classes(codes: np.ndarray) -> np.ndarray:
    """Switching class id in 0..63 per signing code: bit j is the parity of
    the negative edges on fundamental cycle j.

    Two signings of a connected graph are switching equivalent iff every
    cycle has the same sign in both, and the fundamental cycles of a
    spanning tree generate the cycle space (Zaslavsky, 1982).
    """
    ids = np.zeros_like(codes)
    for j, mask in enumerate(_CYCLE_MASKS):
        x = codes & mask
        for shift in (8, 4, 2, 1):
            x ^= x >> shift
        ids |= (x & 1) << j
    return ids


def _representative_keys(codes: np.ndarray) -> np.ndarray:
    """Order key per code: fewest negative edges first, then the
    lexicographically smallest sign tuple.

    Edge 0 is the first tuple position and -1 < +1, so among codes with
    equal popcount the smaller tuple has the larger bit-reversed code.
    """
    # Popcount and bit reversal accumulate over the 15 edge bits of the 1-D
    # codes, so the census builds no (codes, 15) int64 bit matrix (3.9 MB).
    count = np.zeros_like(codes)
    reversed_code = np.zeros_like(codes)
    for k in range(15):
        bit = codes >> k & 1
        count += bit
        reversed_code |= bit << (14 - k)
    return (count << 15) | ((1 << 15) - 1 - reversed_code)


def _distance_matrices(codes: list[int]) -> np.ndarray:
    """The stacked distance matrices D of the signings with these codes.

    All come from the tables of one run of the all-sources pass over the
    batch of signings; ValueError if one is incompatible.
    """
    return np.stack([_compatible_matrix(sd) for sd in _connected_run([_signing(c) for c in codes]).tables()])


def enumerate_petersen_signings() -> PetersenClassTable:
    """Census of all 2^15 Petersen signings by distance characteristic
    polynomial.

    Returns the six classes with sizes and a canonical representative per
    class (fewest negative edges, then lexicographically smallest sign
    vector).  Raises RuntimeError if the census does not produce exactly
    the six known polynomials.

    Switching conjugates D by a diagonal +-1 matrix and so keeps its
    characteristic polynomial: one polynomial per switching class (64
    classes of 512 signings) covers every code.  The matrices come from one
    all-sources signed pass over the 64 class signings and 3 anchors, and
    ValueError is raised if a signing is incompatible.
    """
    total = 1 << 15
    codes = np.arange(total, dtype=np.int64)
    class_ids = _switching_classes(codes)
    ids, first = np.unique(class_ids, return_index=True)
    # The class matrices, then the three anchors' (see below), from one pass.
    mats = _distance_matrices(codes[first].tolist() + [0, 1, total - 1])
    polys = char_poly_batch(mats[:-3])

    expected = {poly: label for label, poly in PETERSEN_CLASS_POLYNOMIALS.items()}
    distinct = {p.coeffs for p in polys}
    if len(distinct) != 6 or distinct != set(expected):
        raise RuntimeError(
            f"Petersen census produced {len(distinct)} polynomial classes; "
            "expected the six known ones"
        )
    # Anchor signings pin three labels independently of the polynomial table:
    # all-positive is +P, a single negative edge lands in P1, all-negative in P3,3.
    anchor_polys = char_poly_batch(mats[-3:])
    for poly, label in zip(anchor_polys, ("+P", "P1", "P3,3")):
        if poly.coeffs != PETERSEN_CLASS_POLYNOMIALS[label]:
            raise RuntimeError(f"anchor signing for {label} has an unexpected polynomial")

    label_of_class = np.zeros(1 << len(_CYCLE_MASKS), dtype=np.int64)
    label_of_class[ids] = [_CLASS_ORDER.index(expected[p.coeffs]) for p in polys]
    labels = label_of_class[class_ids]
    sizes = np.bincount(labels, minlength=len(_CLASS_ORDER))
    keys = _representative_keys(codes)
    classes = []
    for i, label in enumerate(_CLASS_ORDER):
        members = labels == i
        best = int(codes[members][np.argmin(keys[members])])
        poly = PETERSEN_CLASS_POLYNOMIALS[label]
        classes.append(
            PetersenClass(
                label=label,
                representative=_signing(best),
                char_poly=IntPolynomial(poly),
                size=int(sizes[i]),
            )
        )
    table = PetersenClassTable(classes=tuple(classes))
    if table.total != total:
        raise RuntimeError(f"class sizes sum to {table.total}, expected {total}")
    return table
