"""Finite-dimensional operator realizations: matrices on C^N with l_q norms.

Every spectral decision about A lives here, and no other module reads a
model's eigen-data: the per-mode resolvent (A + s I)^-1 over an array of
shifts (channels) with its norms and worst-mode vectors, the per-mode solve,
the guard against shifts within roundoff of -spectrum(A), the cached
eigenbasis (w, V, V^-1), resolvents and sector-positivity certificates.  Also the
symmetric-system builder and a 1-D Dirichlet BVP discretizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EllipticityFailure,
    ModeSingular,
    NotDiagonalizable,
    NotPositiveDefinite,
    NotSymmetric,
)
from .sweep import SectorSweep

KAPPA_LIMIT = 1e6


@dataclass(frozen=True)
class OperatorModel:
    """N x N complex matrix with spectral metadata and an l_q operator norm."""

    A: np.ndarray = field(repr=False)
    q: float = 2.0
    eigvals: np.ndarray = field(default=None, repr=False)
    eigvecs: np.ndarray = field(default=None, repr=False)
    eigvecs_inv: np.ndarray = field(default=None, repr=False)  # None when kappa >= KAPPA_LIMIT
    kappa: float = None              # condition number of the eigenvector matrix
    symmetric: bool = False
    positive_definite: bool = False
    C0: float = None                 # smallest eigenvalue when SPD

    @property
    def N(self) -> int:
        return self.A.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Apply the matrix along the trailing component axis."""
        return component_product(values, self.A.T)


def component_product(values: np.ndarray, M: np.ndarray) -> np.ndarray:
    """values @ M for a stack values (..., N) and one (N, K) matrix, as one
    product of the (-1, N) reshape: matmul on the stack itself loops over its
    core matrices, with the same bits and about three times the time."""
    return (values.reshape(-1, values.shape[-1]) @ M).reshape(values.shape[:-1] + M.shape[-1:])


@dataclass(frozen=True)
class PositivityCertificate:
    """Numerical witness for ||(A + lam)^-1|| <= M / (1 + |lam|) on a sector."""

    phi: float
    M: float
    sweep: SectorSweep
    worst_lambda: complex

    @property
    def finite(self) -> bool:
        return math.isfinite(self.M)


def make_model(A, q: float = 2.0) -> OperatorModel:
    """Build an OperatorModel with its diagonalization cache; kappa = 1 for Hermitian A."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    scale = max(1.0, float(np.abs(A).max()))
    symmetric = bool(np.abs(A - A.T).max() <= 1e-12 * scale)
    hermitian = bool(np.abs(A - A.conj().T).max() <= 1e-12 * scale)
    if hermitian:
        w, V = np.linalg.eigh(A.real if np.abs(A.imag).max() <= 1e-12 * scale else A)
        w = w.astype(complex)
        V = V.astype(complex)
        kappa = 1.0
    else:
        w, V = np.linalg.eig(A)
        kappa = float(np.linalg.cond(V))
    pd = hermitian and bool(w.real.min() > 0)
    C0 = float(w.real.min()) if pd else None
    Vinv = np.linalg.inv(V) if kappa < KAPPA_LIMIT else None
    return OperatorModel(A=A, q=q, eigvals=w, eigvecs=V, eigvecs_inv=Vinv, kappa=kappa,
                         symmetric=symmetric, positive_definite=pd, C0=C0)


def is_real(model: OperatorModel) -> bool:
    """Whether A has no imaginary part: then (A + conj(s) I)^-1 is the
    entrywise conjugate of (A + s I)^-1, with the same norms."""
    return not np.any(model.A.imag)


def eigenbasis(model: OperatorModel):
    """(w, V, V^-1) of A = V diag(w) V^-1; NotDiagonalizable unless kappa < KAPPA_LIMIT."""
    if model.eigvecs_inv is None:
        raise NotDiagonalizable(f"no eigenbasis with condition below {KAPPA_LIMIT} "
                                f"(kappa = {model.kappa})")
    return model.eigvals, model.eigvecs, model.eigvecs_inv


def _shifted_matrices(A: np.ndarray, shifts) -> np.ndarray:
    """A + s I for each entry s of an array of shifts, shape shifts.shape + (N, N)."""
    eye = np.eye(A.shape[0], dtype=complex)
    return A + np.asarray(shifts)[..., None, None] * eye


def _lu(fn, model: OperatorModel, shifts, *rhs) -> np.ndarray:
    """fn (np.linalg.inv or solve) of the stack A + s I over an array of
    shifts, and rhs if given: one batched LU; an exactly singular matrix is ModeSingular."""
    try:
        return fn(_shifted_matrices(model.A, shifts), *rhs)
    except np.linalg.LinAlgError as exc:
        raise ModeSingular(None, str(exc)) from exc


def shifted_solve(model: OperatorModel, shifts, rhs) -> np.ndarray:
    """The solutions x[..., f, k] of (A + s[..., k] I) x = rhs[..., f, k], given
    rhs (..., F, K, N) and shifts (..., K).

    With a unitary eigenbasis (Hermitian A, kappa = 1) the solve is
    V ((V^H rhs) / (w + s_k)), two products with V; otherwise one batched LU.
    """
    if model.kappa == 1.0:
        w, V = model.eigvals, model.eigvecs
        coords = component_product(rhs, V.conj())
        coords /= w + np.asarray(shifts)[..., None, :, None]
        return component_product(coords, V.T)
    return np.moveaxis(_lu(np.linalg.solve, model, shifts, np.moveaxis(rhs, -3, -1)), -1, -3)


def inverse_residuals(model: OperatorModel, shifts, B: np.ndarray) -> np.ndarray:
    """max |(A + s I) B_s - I| per entry s of the shifts: the defect of an inverse stack B."""
    eye = np.eye(model.N, dtype=complex)
    return np.abs(_shifted_matrices(model.A, shifts) @ B - eye).max(axis=(-2, -1))


def spectrum_hit(model: OperatorModel, shifts):
    """First index of a shift s not finite or with -s within roundoff of spectrum(A), else None."""
    scale = max(1.0, float(np.abs(model.A).max()))
    dist = np.abs(model.eigvals[None, :] + np.asarray(shifts)[:, None]).min(axis=1)
    bad = np.flatnonzero((dist <= 1e-12 * scale) | ~np.isfinite(dist))
    return int(bad[0]) if bad.size else None


def channels(model: OperatorModel, shifts, power: int = 0, order: int = 1) -> np.ndarray:
    """A^power (A + s I)^-order per entry s of an array of checked shifts, in
    channel form: for a unitary eigenbasis (kappa = 1) the values
    c = w^power / (w + s)^order (..., N) of V diag(c) V^H, else the matrices
    (..., N, N) from powers of one batched LU inverse."""
    if model.kappa == 1.0:
        return (model.eigvals if power else 1.0) / (model.eigvals + shifts[..., None]) ** order
    B = np.linalg.matrix_power(_lu(np.linalg.inv, model, shifts), order)
    return model.A @ B if power else B


def channel_matrices(model: OperatorModel, c) -> np.ndarray:
    """The matrices (..., N, N) of a stack in channel form: V diag(c) V^H."""
    V = model.eigvecs
    return c if model.kappa != 1.0 else (V * c[..., None, :]) @ V.conj().T


def channel_norms(model: OperatorModel, c) -> np.ndarray:
    """operator_norm_upper of channel_matrices(c), the l_2 norm of channel
    values being max |c|: no inverse, no SVD, at q = 2 no matrix."""
    if model.kappa != 1.0:
        return operator_norm_upper(c, model.q)
    n2 = np.abs(c[..., 0]) if model.N == 1 else np.abs(c).max(axis=-1)
    return n2 if model.q == 2 else operator_norm_upper(channel_matrices(model, c), model.q, n2)


def resolvent_norms(model: OperatorModel, shifts, defect: bool = False):
    """(||B||, ||A B||, defect) per entry s of an array of checked shifts
    (spectrum_hit), B = (A + s I)^-1: the channel_norms of the channel values
    1 / d and w / d, d = w + s formed once, for a unitary eigenbasis (kappa =
    1), else of channels(.., 0) and A times it; and, if asked for, the defect
    of inverse_residuals, 0 for a unitary eigenbasis (else None)."""
    if model.kappa == 1.0:
        d = model.eigvals + shifts[..., None]
        B, AB, res = 1.0 / d, model.eigvals / d, np.zeros(shifts.shape)
    else:
        B = channels(model, shifts)
        AB, res = model.A @ B, inverse_residuals(model, shifts, B) if defect else None
    return channel_norms(model, B), channel_norms(model, AB), res if defect else None


def top_vectors(model: OperatorModel, shifts) -> np.ndarray:
    """A unit vector v (..., N) per entry s of an array of checked shifts with
    ||B v||_2 = ||B||_2, B = (A + s I)^-1: the leading right singular vector of
    channels(model, shifts), which for a unitary eigenbasis (B normal) is the
    eigenvector of the -w_j nearest s."""
    if model.kappa == 1.0:
        return model.eigvecs.T[np.abs(model.eigvals + shifts[..., None]).argmin(axis=-1)]
    return np.linalg.svd(channels(model, shifts))[2][..., 0, :].conj()


def tridiagonal_matrix(N: int, lower: float, diag: float, upper: float) -> np.ndarray:
    A = np.zeros((N, N))
    np.fill_diagonal(A, diag)
    idx = np.arange(N - 1)
    A[idx + 1, idx] = lower
    A[idx, idx + 1] = upper
    return A


def operator_norm_upper(mats, q: float, n2=None) -> np.ndarray:
    """Upper bound on the l_q -> l_q norm of each matrix of a (..., N, N) stack.

    Exact for q in {1, 2, inf}; other exponents get the Riesz-Thorin
    interpolation between the exact exponents, from the l_2 norms n2 if given.
    """
    mats = np.asarray(mats, dtype=complex)
    if q == 1:
        return np.abs(mats).sum(axis=-2).max(axis=-1)
    if q == np.inf:
        return np.abs(mats).sum(axis=-1).max(axis=-1)
    if not 1 < q < np.inf:
        raise ValueError("q must lie in [1, inf]")
    n2 = np.linalg.svd(mats, compute_uv=False).max(axis=-1) if n2 is None else n2
    if q == 2:
        return n2
    # np.power, not **: numpy scalars would round differently from stacks
    if q < 2:
        theta = 2.0 * (1.0 - 1.0 / q)
        return np.power(operator_norm_upper(mats, 1), 1 - theta) * np.power(n2, theta)
    theta = 1.0 - 2.0 / q
    return np.power(n2, 1 - theta) * np.power(operator_norm_upper(mats, np.inf), theta)


def resolvent(model: OperatorModel, lam) -> np.ndarray:
    """(A + lam I)^-1; a (len, N, N) stack for a 1-D array of lam.

    Rejects lam within roundoff of -spectrum and inverses with a large residual.
    """
    lams = np.asarray(lam, dtype=complex)
    shifts = lams.reshape(-1)
    hit = spectrum_hit(model, shifts)
    if hit is not None:
        s = complex(shifts[hit])
        raise ModeSingular(None, f"-lambda = {-s} within tolerance of the spectrum"
                           if np.isfinite(s) else f"lambda = {s} is not finite")
    R = _lu(np.linalg.inv, model, shifts)
    residual = inverse_residuals(model, shifts, R)
    bad = np.flatnonzero(residual > 1e-10 * np.maximum(1.0, np.abs(shifts)))
    if bad.size:
        k = bad[0]
        raise ModeSingular(None, f"resolvent residual {residual[k]:.2e} too large at "
                                 f"lambda={complex(shifts[k])}")
    return R.reshape(lams.shape + R.shape[1:])


def check_positivity(model: OperatorModel, phi: float, sweep: SectorSweep) -> PositivityCertificate:
    """Certify M = sup (1 + |lam|) ||(A + lam)^-1||_q over the sampled sector.

    lam = 0 is always included (the sector contains the origin).
    """
    if any(abs(r) > phi + 1e-12 for r in sweep.rays):
        raise ValueError("sweep rays must lie within [-phi, phi]")
    lams = np.array([0.0 + 0.0j] + sweep.lambdas())
    vals = (1.0 + np.abs(lams)) * operator_norm_upper(resolvent(model, lams), model.q)
    worst = int(np.argmax(vals))
    return PositivityCertificate(phi=phi, M=float(vals[worst]), sweep=sweep,
                                 worst_lambda=complex(lams[worst]))


def build_system(a) -> OperatorModel:
    """Validate a symmetric positive-definite coefficient matrix a_ij.

    Reports the ellipticity constant C0 (smallest eigenvalue) on the model.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("system entries must be finite")
    model = make_model(a)
    if not model.symmetric:
        raise NotSymmetric("a_ij != a_ji")
    if not model.positive_definite:
        raise NotPositiveDefinite(f"smallest eigenvalue {model.eigvals.real.min():.6g} <= 0")
    return model


def build_bvp_operator(K: int, ell: float, b2, b1=None, b0=None,
                       q: float = 2.0) -> OperatorModel:
    """Central-difference Dirichlet matrix for -b2(y) u'' + b1(y) u' + b0(y) u.

    K counts grid points including the two boundary points; the returned
    matrix acts on the K-2 interior values with boundary rows eliminated.
    """
    if K < 3:
        raise ValueError("K must be at least 3")
    if ell <= 0:
        raise ValueError("interval length must be positive")
    h = ell / (K - 1)
    y = h * np.arange(1, K - 1)

    def sample(fn, default):
        if fn is None:
            return np.full(K - 2, default)
        if np.isscalar(fn):
            return np.full(K - 2, float(fn))
        return np.array([float(fn(yi)) for yi in y])

    c2 = sample(b2, 1.0)
    c1 = sample(b1, 0.0)
    c0 = sample(b0, 0.0)
    if np.any(c2 <= 0):
        raise EllipticityFailure("leading coefficient b2 must be uniformly positive")

    Nint = K - 2
    A = np.zeros((Nint, Nint))
    np.fill_diagonal(A, 2.0 * c2 / h**2 + c0)
    for i in range(Nint - 1):
        A[i, i + 1] = -c2[i] / h**2 + c1[i] / (2.0 * h)
        A[i + 1, i] = -c2[i + 1] / h**2 - c1[i + 1] / (2.0 * h)
    return make_model(A, q=q)
