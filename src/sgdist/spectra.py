"""Distance matrix formulas in Kronecker form, exact characteristic
polynomials, and numeric distance spectra.

Exact work (characteristic polynomials, the product formulas) happens in
integer arithmetic; Python ints make the polynomial coefficients exact at
any order.  Numeric spectra come from a cyclic Jacobi eigensolver with a
gap-based multiplicity clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import SignedGraph
from .distance import signed_distances

__all__ = [
    "IntPolynomial",
    "Spectrum",
    "kron",
    "adjacency_matrix",
    "compatible_distance_matrix",
    "cartesian_distance_formula",
    "lexicographic_distance_formula",
    "char_poly",
    "char_poly_batch",
    "jacobi_eigenvalues",
    "cluster_eigenvalues",
    "eig_symmetric",
    "lex_k2_spectrum",
]


# --------------------------------------------------------------------------
# exact integer polynomials

@dataclass(frozen=True)
class IntPolynomial:
    """Monic polynomial with exact integer coefficients, descending powers.

    coeffs[0] is the leading 1; coeffs[i] multiplies lambda^(degree - i).
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("polynomial must be monic with integer coefficients")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        parts = []
        n = self.degree
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = n - i
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                lam = "λ" if k == 1 else f"λ^{k}"
                body = lam if mag == 1 else f"{mag}{lam}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def _as_int_rows(m) -> list[list[int]]:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    rows = []
    for row in a.tolist():
        out = []
        for x in row:
            ix = int(x)
            if ix != x:
                raise ValueError(f"matrix entry {x!r} is not an integer")
            out.append(ix)
        rows.append(out)
    return rows


def char_poly(m) -> IntPolynomial:
    """Exact char_poly det(lambda*I - M) by the Faddeev-LeVerrier recurrence.

    Runs over Python ints; the division by k at each step is exact and is
    checked.  Cubic work per step, fine for the orders used here.
    """
    a = _as_int_rows(m)
    n = len(a)
    coeffs = [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        c_prev = coeffs[-1]
        b = [row[:] for row in mk]
        for i in range(n):
            b[i][i] += c_prev
        bt = list(zip(*b))
        mk = [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
        tr = sum(mk[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        if r:
            raise AssertionError("inexact trace division in Faddeev-LeVerrier")
        coeffs.append(q)
    return IntPolynomial(tuple(coeffs))


class _Int64OverflowRisk(Exception):
    pass


_I64_LIMIT = 2**63 - 1


def _abs_max(x: np.ndarray) -> int:
    """Largest |entry| as a Python int (np.abs would wrap at INT64_MIN)."""
    if not x.size:
        return 0
    return max(int(x.max()), -int(x.min()))


def _char_poly_batch_int64(a: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier over a stack of matrices in int64.

    Exact as long as every intermediate stays inside int64; a bound check
    before each step raises _Int64OverflowRisk otherwise.  With |a| <= amax
    and |b| <= bmax, each entry of a @ b is at most n*amax*bmax and the
    trace at most n*n*amax*bmax, so the step runs only when the latter
    fits in int64.
    """
    count, n, _ = a.shape
    amax = _abs_max(a)
    eye = np.eye(n, dtype=np.int64)
    coeffs = np.zeros((count, n + 1), dtype=np.int64)
    coeffs[:, 0] = 1
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        c_prev = coeffs[:, k - 1]
        if _abs_max(mk) + _abs_max(c_prev) > _I64_LIMIT:
            raise _Int64OverflowRisk
        b = mk + c_prev[:, None, None] * eye
        if amax and _abs_max(b) > _I64_LIMIT // (n * n * amax):
            raise _Int64OverflowRisk
        mk = a @ b
        tr = np.trace(mk, axis1=1, axis2=2)
        q, r = np.divmod(-tr, k)
        if r.any():
            raise _Int64OverflowRisk
        coeffs[:, k] = q
    return coeffs


def char_poly_batch(matrices: np.ndarray | Sequence) -> list[IntPolynomial]:
    """Characteristic polynomials of a stack of small integer matrices.

    Uses a vectorized int64 fast path with an overflow guard and falls back
    to the exact big-integer routine when the guard trips; results are
    exact either way.
    """
    a = np.asarray(matrices)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    try:
        coeffs = _char_poly_batch_int64(a.astype(np.int64))
        return [IntPolynomial(tuple(int(c) for c in row)) for row in coeffs]
    except _Int64OverflowRisk:
        return [char_poly(m) for m in a]


# --------------------------------------------------------------------------
# Kronecker-form distance matrix formulas

def kron(a, b) -> np.ndarray:
    """Kronecker product (a_ij * B) as blocks."""
    return np.kron(np.asarray(a), np.asarray(b))


def adjacency_matrix(g: SignedGraph) -> np.ndarray:
    """Signed adjacency matrix as int64."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v, s in g.edges:
        a[u, v] = s
        a[v, u] = s
    return a


def compatible_distance_matrix(g: SignedGraph) -> np.ndarray:
    """The single distance matrix D of a compatible signed graph.

    Raises if the max and min matrices differ, i.e. if g is incompatible.
    """
    sd = signed_distances(g)
    if sd.incompatible.any():
        raise ValueError("graph is incompatible: max and min distance matrices differ")
    return sd.d_max


def _assoc_sign_matrix(d: np.ndarray) -> np.ndarray:
    """Shortest-path sign matrix with unit diagonal, read off a compatible D."""
    s = np.sign(d).astype(np.int64)
    np.fill_diagonal(s, 1)
    return s


def cartesian_distance_formula(g1: SignedGraph, g2: SignedGraph) -> np.ndarray:
    """Distance matrix of the cartesian product assembled from the factors:
    D1 kron S2 + S1 kron D2, with S the unit-diagonal path-sign matrix.

    Both factors must be connected and compatible; rows and columns follow
    the row-major product vertex order.
    """
    d1 = compatible_distance_matrix(g1)
    d2 = compatible_distance_matrix(g2)
    return kron(d1, _assoc_sign_matrix(d2)) + kron(_assoc_sign_matrix(d1), d2)


def _lex_diagonal_block(g2: SignedGraph) -> np.ndarray:
    """Within-copy distance block of a lexicographic product.

    Adjacent second coordinates sit at distance 1 with the edge sign.
    Non-adjacent ones sit at distance 2 through any neighboring copy, and
    with a uniformly signed second factor every such two-step path is
    positive, so they contribute +2.
    """
    block = np.full((g2.n, g2.n), 2, dtype=np.int64)
    np.fill_diagonal(block, 0)
    for u, v, s in g2.edges:
        block[u, v] = s
        block[v, u] = s
    return block


def lexicographic_distance_formula(g1: SignedGraph, g2: SignedGraph) -> np.ndarray:
    """Distance matrix of the lexicographic product g1[g2] assembled from
    the factors: D1 kron J + I kron (within-copy block).

    Requires g1 connected and compatible with at least 2 vertices (so every
    copy has a neighboring copy) and g2 all-positive or all-negative.
    """
    from .products import uniform_sign

    if g1.n < 2:
        raise ValueError("lexicographic formula requires the first factor to have >= 2 vertices")
    if not uniform_sign(g2):
        raise ValueError("lexicographic formula requires the second factor to be all-positive or all-negative")
    d1 = compatible_distance_matrix(g1)
    return kron(d1, np.ones((g2.n, g2.n), dtype=np.int64)) + kron(
        np.eye(g1.n, dtype=np.int64), _lex_diagonal_block(g2)
    )


# --------------------------------------------------------------------------
# numeric spectra

def jacobi_eigenvalues(m, rel_tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps zero the off-diagonal entries pairwise until the off-diagonal
    Frobenius norm falls below rel_tol times the matrix norm.  Returns the
    eigenvalues sorted in descending order.
    """
    a = np.asarray(m, dtype=np.float64).copy()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    norm = float(np.linalg.norm(a))
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(norm, 1.0)):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    if n == 1 or norm == 0.0:
        return np.sort(np.diag(a))[::-1]
    for _ in range(max_sweeps):
        # Off-diagonal Frobenius norm summed directly; the subtraction form
        # sum(a^2) - sum(diag^2) cancels catastrophically near convergence.
        hollow = a.copy()
        np.fill_diagonal(hollow, 0.0)
        off = float(np.linalg.norm(hollow))
        if off <= rel_tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-20 * norm:
                    continue
                phi = 0.5 * math.atan2(2.0 * apq, a[q, q] - a[p, p])
                c, s = math.cos(phi), math.sin(phi)
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi iteration did not converge")
    return np.sort(np.diag(a))[::-1]


def _format_value(v: float) -> str:
    if abs(v - round(v)) <= 1e-8 * max(1.0, abs(v)):
        return str(round(v))
    return f"{v:.6g}"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with multiplicities, descending, clustered at tolerance tol."""

    entries: tuple[tuple[float, int], ...]
    tol: float

    @property
    def order(self) -> int:
        return sum(m for _, m in self.entries)

    def expand(self) -> list[float]:
        """Eigenvalues repeated by multiplicity, descending."""
        return [v for v, m in self.entries for _ in range(m)]

    def __str__(self) -> str:
        return " ".join(f"({_format_value(v)} x{m})" for v, m in self.entries)


def cluster_eigenvalues(values: Iterable[float], tol: float = 1e-6) -> Spectrum:
    """Group a sorted eigenvalue list into (mean, multiplicity) pairs,
    splitting wherever the gap between neighbors exceeds tol."""
    vals = sorted(values, reverse=True)
    if not vals:
        raise ValueError("no eigenvalues to cluster")
    groups: list[list[float]] = [[vals[0]]]
    for v in vals[1:]:
        if groups[-1][-1] - v > tol:
            groups.append([v])
        else:
            groups[-1].append(v)
    entries = tuple((float(np.mean(grp)), len(grp)) for grp in groups)
    return Spectrum(entries=entries, tol=tol)


def eig_symmetric(m, tol: float = 1e-6) -> Spectrum:
    """Numeric spectrum of a symmetric matrix as clustered
    (eigenvalue, multiplicity) pairs."""
    return cluster_eigenvalues(jacobi_eigenvalues(m), tol)


def lex_k2_spectrum(g1: SignedGraph, k2_sign: int, tol: float = 1e-6) -> Spectrum:
    """Spectrum of D(g1[K2]) computed analytically from the spectrum of D(g1).

    With eigenvalues lambda_i of D(g1): a positive K2 yields 2*lambda_i + 1
    (each once) together with -1 of multiplicity m; a negative K2 yields
    2*lambda_i - 1 together with +1 of multiplicity m.
    """
    if k2_sign not in (1, -1):
        raise ValueError(f"K2 sign must be +1 or -1, got {k2_sign!r}")
    d1 = compatible_distance_matrix(g1)
    lams = jacobi_eigenvalues(d1)
    shifted = [2.0 * lam + k2_sign for lam in lams]
    shifted.extend([-float(k2_sign)] * g1.n)
    return cluster_eigenvalues(shifted, tol)
