"""Distance matrix formulas in Kronecker form, exact characteristic
polynomials, and numeric distance spectra.

Exact work (characteristic polynomials, the product formulas) happens in
integer arithmetic.  Characteristic polynomials run the Faddeev-LeVerrier
recurrence modulo word-size primes as float64 BLAS products, with enough
primes to cover a Hadamard bound on the coefficients, and rebuild them by
CRT: exact at any order and entry size, with no overflow fallback.
Numeric spectra come from LAPACK (numpy eigvalsh) with a gap-based
multiplicity clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import SignedGraph
from .distance import SignedDistances, signed_distances

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


# Faddeev-LeVerrier modulo word-size primes.  With every residue below p
# and n * p^2 <= 2^53 (so n * (p-1)^2 < 2^53), each entry of a float64
# product a @ b, a sum of n products of residues, is an exact integer, and
# so is q * p in the reduction below: BLAS does exact modular matrix
# products.  p > n makes every k = 1..n invertible mod p.
_FLOAT_EXACT = 2**53
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1
# Ceiling on the float64 working set of one modular pass; stacks and prime
# sets that would exceed it are split (down to one matrix and one prime).
# A pass holds at most six arrays of shape (primes, matrices, n, n).
_WORK_BYTES = 32 << 20
_LIVE_ARRAYS = 6


def _int_stack(matrices, ndim: int) -> np.ndarray:
    """A square matrix (ndim 2) or a stack of them (ndim 3) as int64, or as
    an object array of Python ints when some entry lies outside int64.
    Raises on a wrong shape or a non-integer entry."""
    # Lists go through dtype=object: np.asarray would turn ints past int64
    # into inexact floats.
    a = matrices if isinstance(matrices, np.ndarray) else np.array(matrices, dtype=object)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        what = "square matrix" if ndim == 2 else "stack of square matrices"
        raise ValueError(f"expected a {what}, got shape {a.shape}")
    if a.dtype.kind in "bi":
        return a.astype(np.int64)
    flat = []
    for x in a.ravel().tolist():
        try:
            ix = int(x)
        except (TypeError, ValueError, OverflowError):
            ix = None
        if ix is None or ix != x:
            raise ValueError(f"matrix entry {x!r} is not an integer")
        flat.append(ix)
    if all(_I64_MIN <= x <= _I64_MAX for x in flat):
        return np.array(flat, dtype=np.int64).reshape(a.shape)
    out = np.empty(len(flat), dtype=object)
    out[:] = flat
    return out.reshape(a.shape)


def _abs_max(x: np.ndarray) -> int:
    """Largest |entry| as a Python int (np.abs would wrap at INT64_MIN)."""
    if not x.size:
        return 0
    return max(int(x.max()), -int(x.min()))


def _coefficient_bound(a: np.ndarray) -> int:
    """B >= |every char_poly coefficient| of every matrix in the stack.

    Coefficient k is a signed sum of k x k principal minors.  By Hadamard a
    minor is at most the product of its rows' norms, each at most the full
    row norm r_i, so the sum of all of them is at most prod_i (1 + r_i).
    Computed exactly with ceil(r_i) in Python ints.
    """
    n = a.shape[-1]
    if a.dtype != object and n * _abs_max(a) ** 2 >= 2**62:
        a = a.astype(object)
    sums = (a * a).sum(axis=-1).tolist()
    # 1 + ceil(sqrt(s)) = isqrt(s - 1) + 2 for s >= 1.
    return max(math.prod(math.isqrt(s - 1) + 2 if s else 1 for s in row) for row in sums)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for p < 3.2e9 (bases 2, 3, 5, 7)."""
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in (2, 3, 5, 7):
        x = pow(q, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _primes_for(n: int, bound: int) -> list[int]:
    """Descending primes n < p with n * p^2 <= 2^53 whose product exceeds
    2 * bound, enough to recover symmetric residues in [-bound, bound]."""
    p = math.isqrt(_FLOAT_EXACT // n)
    primes, prod = [], 1
    while prod <= 2 * bound:
        if p <= n:
            raise ValueError(f"matrix order {n} is too large for the modular route")
        if _is_prime(p):
            primes.append(p)
            prod *= p
        p -= 1
    return primes


def _char_poly_residues(a: np.ndarray, primes: list[int]) -> np.ndarray:
    """Faddeev-LeVerrier on a stack mod each prime: (len(primes), count, n+1)
    int64 residues of the coefficients.

    M_0 = 0, c_0 = 1; M_k = A (M_{k-1} + c_{k-1} I), c_k = -tr(M_k) / k.
    All primes run at once as one stacked float64 matmul per step.
    """
    count, n, _ = a.shape
    pi = np.array(primes, dtype=np.int64)
    pf = pi.astype(np.float64)[:, None, None, None]
    pinv = 1.0 / pf
    pdiag = pf[..., 0]
    inv_k = np.array([[pow(k, -1, p) for k in range(1, n + 1)] for p in primes], dtype=np.int64)

    def reduce(x: np.ndarray) -> np.ndarray:
        # floor(x/p) from the reciprocal is off by at most one either way,
        # so one correction step lands every entry in [0, p).
        q = x * pinv
        np.floor(q, out=q)
        q *= pf
        x -= q
        np.add(x, pf, out=x, where=x < 0)
        np.subtract(x, pf, out=x, where=x >= pf)
        return x

    am = np.stack([(a % p).astype(np.float64) for p in primes])
    diag = np.arange(n)
    coeffs = np.zeros((len(primes), count, n + 1), dtype=np.int64)
    coeffs[..., 0] = 1
    mk = np.zeros_like(am)
    for k in range(1, n + 1):
        d = mk[..., diag, diag] + coeffs[..., k - 1, None]
        mk[..., diag, diag] = np.where(d >= pdiag, d - pdiag, d)
        mk = reduce(am @ mk)
        tr = np.trace(mk, axis1=-2, axis2=-1).astype(np.int64)
        coeffs[..., k] = (-tr % pi[:, None]) * inv_k[:, k - 1, None] % pi[:, None]
    return coeffs


def _char_polys(a: np.ndarray) -> list[IntPolynomial]:
    """Exact characteristic polynomials of an integer stack (count, n, n):
    modular Faddeev-LeVerrier, then CRT into symmetric residues."""
    count, n, _ = a.shape
    if not count or not n:
        return [IntPolynomial((1,))] * count
    primes = _primes_for(n, _coefficient_bound(a))
    units = max(1, _WORK_BYTES // (_LIVE_ARRAYS * 8 * n * n))
    chunk = min(count, units)
    group = max(1, units // chunk)
    residues = np.empty((len(primes), count, n + 1), dtype=np.int64)
    for s in range(0, count, chunk):
        for g in range(0, len(primes), group):
            residues[g : g + group, s : s + chunk] = _char_poly_residues(
                a[s : s + chunk], primes[g : g + group]
            )
    modulus = math.prod(primes)
    acc = 0
    for p, r in zip(primes, residues):
        rest = modulus // p
        acc = acc + r.astype(object) * (rest * pow(rest, -1, p))
    acc %= modulus
    acc = np.where(acc > modulus // 2, acc - modulus, acc)
    return [IntPolynomial(tuple(row)) for row in acc.tolist()]


def char_poly(m) -> IntPolynomial:
    """Exact characteristic polynomial det(lambda*I - M) of an integer matrix.

    Faddeev-LeVerrier modulo enough word-size primes to cover a Hadamard
    bound on the coefficients, recombined by CRT; exact at any entry size.
    """
    return _char_polys(_int_stack(m, 2)[None])[0]


def char_poly_batch(matrices: np.ndarray | Sequence) -> list[IntPolynomial]:
    """Exact characteristic polynomials of a stack of integer matrices,
    by the same modular route as char_poly with the stack batched."""
    return _char_polys(_int_stack(matrices, 3))


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
    return _compatible_matrix(signed_distances(g))


def _compatible_matrix(sd: SignedDistances) -> np.ndarray:
    """D of the distances sd of a compatible graph; ValueError if incompatible."""
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
    block = adjacency_matrix(g2)
    block[block == 0] = 2
    np.fill_diagonal(block, 0)
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

def _eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by LAPACK (numpy eigvalsh).

    eigvalsh reads one triangle only, so symmetry is checked here first.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    norm = float(np.linalg.norm(a))
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(norm, 1.0)):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)


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
    splitting wherever the gap between neighbors exceeds tol.

    Raises ValueError unless tol is finite and >= 0: a NaN gap test never
    splits, and a negative or infinite tol splits or merges everything.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
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
    return cluster_eigenvalues(_eigenvalues(m), tol)


def lex_k2_spectrum(g1: SignedGraph, k2_sign: int, tol: float = 1e-6) -> Spectrum:
    """Spectrum of D(g1[K2]) computed analytically from the spectrum of D(g1).

    With eigenvalues lambda_i of D(g1): a positive K2 yields 2*lambda_i + 1
    (each once) together with -1 of multiplicity m; a negative K2 yields
    2*lambda_i - 1 together with +1 of multiplicity m.
    """
    if k2_sign not in (1, -1):
        raise ValueError(f"K2 sign must be +1 or -1, got {k2_sign!r}")
    d1 = compatible_distance_matrix(g1)
    lams = _eigenvalues(d1)
    shifted = [2.0 * lam + k2_sign for lam in lams]
    shifted.extend([-float(k2_sign)] * g1.n)
    return cluster_eigenvalues(shifted, tol)
