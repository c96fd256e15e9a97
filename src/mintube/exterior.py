"""Dense multivector algebra on Lambda(R^n), 2 <= n <= 8.

Basis blades are indexed by axis bitmasks: bit i set means axis e_{i+1}
belongs to the blade, with the canonical orientation given by increasing
axis order.  All products are assembled from precomputed per-dimension
sign tables, so individual operations are plain numpy gathers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_DIM = 8
ORTHONORMALITY_TOL = 1e-10


class DimensionMismatch(ValueError):
    """Operands live in exterior algebras of different ambient dimension."""


def _check_dim(n: int) -> None:
    if not (2 <= n <= MAX_DIM):
        raise ValueError(f"ambient dimension must be in [2, {MAX_DIM}], got {n}")


def _pair_sign(a: int, b: int) -> float:
    # Parity of the permutation sorting concat(axes(a), axes(b)) into
    # increasing order; a and b are disjoint bitmasks.
    swaps = 0
    for j in range(MAX_DIM):
        if (b >> j) & 1:
            swaps += bin(a >> (j + 1)).count("1")
    return -1.0 if swaps & 1 else 1.0


@lru_cache(maxsize=None)
def _grades(n: int) -> np.ndarray:
    return np.array([bin(i).count("1") for i in range(1 << n)])


@lru_cache(maxsize=None)
def _wedge_table(n: int):
    ia, ib, io, sg = [], [], [], []
    for a in range(1 << n):
        for b in range(1 << n):
            if a & b:
                continue
            ia.append(a)
            ib.append(b)
            io.append(a | b)
            sg.append(_pair_sign(a, b))
    return (np.array(ia), np.array(ib), np.array(io), np.array(sg))


@lru_cache(maxsize=None)
def _interior_table(n: int):
    # u contracts y only when axes(u) is a subset of axes(y); the surviving
    # blade is y \ u with the sign making u ^ (y \ u) == sign * y.
    iu, iy, io, sg = [], [], [], []
    for u in range(1 << n):
        for y in range(1 << n):
            if u & y != u:
                continue
            rest = y & ~u
            iu.append(u)
            iy.append(y)
            io.append(rest)
            sg.append(_pair_sign(u, rest))
    return (np.array(iu), np.array(iy), np.array(io), np.array(sg))


@lru_cache(maxsize=None)
def _hodge_table(n: int):
    full = (1 << n) - 1
    out = np.empty(1 << n, dtype=int)
    sg = np.empty(1 << n)
    for a in range(1 << n):
        comp = full & ~a
        out[a] = comp
        sg[a] = _pair_sign(a, comp)
    return out, sg


@dataclass(frozen=True)
class Multivector:
    """Element of Lambda(R^n) with one coefficient per basis blade."""

    dim: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_dim(self.dim)
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (1 << self.dim,):
            raise ValueError(
                f"need {1 << self.dim} coefficients for dim {self.dim}, got shape {c.shape}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "Multivector":
        return cls(n, np.zeros(1 << n))

    @classmethod
    def scalar(cls, n: int, value: float) -> "Multivector":
        c = np.zeros(1 << n)
        c[0] = value
        return cls(n, c)

    @classmethod
    def basis_vector(cls, n: int, axis: int) -> "Multivector":
        """e_axis with 1-based axis numbering."""
        if not (1 <= axis <= n):
            raise ValueError(f"axis must be in [1, {n}]")
        c = np.zeros(1 << n)
        c[1 << (axis - 1)] = 1.0
        return cls(n, c)

    @classmethod
    def from_vector(cls, vec) -> "Multivector":
        v = np.asarray(vec, dtype=float)
        n = v.shape[0]
        _check_dim(n)
        c = np.zeros(1 << n)
        c[1 << np.arange(n)] = v
        return cls(n, c)

    @classmethod
    def blade(cls, n: int, axes, coeff: float = 1.0) -> "Multivector":
        """Blade e_{a1} ^ ... ^ e_{ak} for strictly increasing 1-based axes."""
        mask = 0
        prev = 0
        for a in axes:
            if not (1 <= a <= n) or a <= prev:
                raise ValueError("axes must be strictly increasing and within range")
            mask |= 1 << (a - 1)
            prev = a
        c = np.zeros(1 << n)
        c[mask] = coeff
        return cls(n, c)

    @classmethod
    def volume(cls, n: int) -> "Multivector":
        """The volume form omega = e_1 ^ ... ^ e_n."""
        c = np.zeros(1 << n)
        c[-1] = 1.0
        return cls(n, c)

    # -- structure --------------------------------------------------------
    def grades_present(self, tol: float = 0.0):
        g = _grades(self.dim)
        return sorted(set(g[np.abs(self.coeffs) > tol]))

    def to_vector(self) -> np.ndarray:
        """Coefficients of the grade-1 part as an ordinary vector."""
        return self.coeffs[1 << np.arange(self.dim)].copy()

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    # -- linear operations ------------------------------------------------
    def _same_dim(self, other: "Multivector") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._same_dim(other)
        return Multivector(self.dim, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        self._same_dim(other)
        return Multivector(self.dim, self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(self.dim, -self.coeffs)

    def __mul__(self, s: float) -> "Multivector":
        return Multivector(self.dim, self.coeffs * float(s))

    __rmul__ = __mul__

    def isclose(self, other: "Multivector", tol: float = 1e-12) -> bool:
        self._same_dim(other)
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol))


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product a ^ b."""
    a._same_dim(b)
    ia, ib, io, sg = _wedge_table(a.dim)
    out = np.zeros(1 << a.dim)
    np.add.at(out, io, sg * a.coeffs[ia] * b.coeffs[ib])
    return Multivector(a.dim, out)


def inner(x: Multivector, y: Multivector) -> float:
    """Blade-orthonormal inner product; mixed grades pair gradewise."""
    x._same_dim(y)
    return float(np.dot(x.coeffs, y.coeffs))


def interior(u: Multivector, y: Multivector) -> Multivector:
    """Interior product u _| y, the adjoint of wedging by u:
    <x, interior(u, y)> == <wedge(u, x), y> for all x."""
    u._same_dim(y)
    iu, iy, io, sg = _interior_table(u.dim)
    out = np.zeros(1 << u.dim)
    np.add.at(out, io, sg * u.coeffs[iu] * y.coeffs[iy])
    return Multivector(u.dim, out)


def hodge(x: Multivector) -> Multivector:
    """Hodge star, *x = x _| omega with omega = e_1 ^ ... ^ e_n."""
    out_idx, sg = _hodge_table(x.dim)
    out = np.zeros(1 << x.dim)
    np.add.at(out, out_idx, sg * x.coeffs)
    return Multivector(x.dim, out)


@dataclass(frozen=True)
class SubspaceFrame:
    """Ordered orthonormal k-frame spanning an oriented subspace of R^n."""

    dim: int
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_dim(self.dim)
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.dim:
            raise ValueError(f"expected (k, {self.dim}) frame, got shape {v.shape}")
        if v.shape[0] > self.dim:
            raise ValueError("frame has more vectors than the ambient dimension")
        gram = v @ v.T
        if np.max(np.abs(gram - np.eye(v.shape[0]))) > ORTHONORMALITY_TOL:
            raise ValueError("frame is not orthonormal")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def orthonormalize(cls, vectors) -> "SubspaceFrame":
        """Gram-Schmidt with one re-orthogonalization pass."""
        v = np.asarray(vectors, dtype=float).copy()
        out = []
        for w in v:
            for _ in range(2):
                for u in out:
                    w = w - np.dot(w, u) * u
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                raise ValueError("vectors are linearly dependent")
            out.append(w / nw)
        return cls(v.shape[1], np.array(out))


def volume_form(V: SubspaceFrame) -> Multivector:
    """sigma(V) = v_1 ^ ... ^ v_k, a unit-norm grade-k multivector."""
    out = Multivector.scalar(V.dim, 1.0)
    for v in V.vectors:
        out = wedge(out, Multivector.from_vector(v))
    return out


def pi_V(V: SubspaceFrame, xi) -> Multivector:
    """pi_V(xi) = *(sigma(V) ^ xi)."""
    x = np.asarray(xi, dtype=float)
    if x.shape != (V.dim,):
        raise DimensionMismatch(f"vector has shape {x.shape}, frame dim is {V.dim}")
    return hodge(wedge(volume_form(V), Multivector.from_vector(x)))


def project_complement(V: SubspaceFrame, x) -> np.ndarray:
    """Orthogonal projection of x onto the complement of span(V), computed
    as sigma(V) _| (sigma(V) ^ x)."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (V.dim,):
        raise DimensionMismatch(f"vector has shape {xv.shape}, frame dim is {V.dim}")
    sigma = volume_form(V)
    return interior(sigma, wedge(sigma, Multivector.from_vector(xv))).to_vector()
