"""Structure, spectrum, and full factorization of a complex matrix pair.

Given ``a`` (m x n) and ``c`` (q x n), the generalized SVD writes
``u @ a @ qmat = (sigma_a, 0)`` and ``v @ c @ qmat = (sigma_c, 0)`` with
``u, v`` unitary and the sigma factors carrying an identity block of size
``r``, a paired diagonal block of size ``s`` with ``alpha_i^2 + beta_i^2 = 1``,
and a complementary block.  The squared generalized singular values are
``w_i = alpha_i^2 / beta_i^2``; their count ``s`` and the block sizes are pure
functions of the dimension triple.

The spectrum comes from the QR-then-CS route: whenever s >= 1 the stack
``[a; c]`` has full column rank, so the Q factor of its Householder QR spans
its left singular subspace, and the alphas are singular values of Q's top m
rows.  Single-pair functions are the batch-of-one case of the private
batched kernels that the samplers call.

The standing assumption is ``q >= m`` (callers with a short second factor
should swap arguments themselves; there is no silent reciprocal mapping).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .errors import (
    DecompositionError,
    DegeneracyError,
    DimensionError,
    RegimeError,
    SingularityError,
    UndefinedExpectationError,
)

# classification thresholds: a cosine-type singular value counts as one
# above 1 - ONE_TOL and as zero below ZERO_TOL; anything else is interior.
ONE_TOL = 1e-8
ZERO_TOL = 1e-8
# relative floor below which a singular/eigen value is treated as lost rank
RANK_TOL = 1e-12
# explicit factor construction is reference scale only
FACTORIZE_DIM_CAP = 32


class Regime(Enum):
    """Dimension regime of the pair; decides which reductions exist."""

    TALL_C = "tall_c"  # q >= n: both Gram matrices of c are invertible
    INTERMEDIATE = "intermediate"  # q < n < q + m
    DETERMINISTIC = "deterministic"  # n >= q + m: s = 0, no random spectrum


@dataclass(frozen=True)
class ProblemDims:
    """Dimension triple (m, q, n) of the pair, with the q >= m convention."""

    m: int
    q: int
    n: int

    def __post_init__(self):
        if min(self.m, self.q, self.n) < 1:
            raise DimensionError(f"dimensions must be >= 1, got {self}")
        if self.q < self.m:
            raise DimensionError(
                f"q = {self.q} < m = {self.m}: swap the pair so the factor "
                "with more rows comes second"
            )

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.m, self.q, self.n)


@dataclass(frozen=True)
class GsvdStructure:
    """Block sizes (k, r, s) and the regime they classify."""

    k: int
    r: int
    s: int
    regime: Regime


@dataclass(frozen=True)
class ReducedDims:
    """Dimensions (m', p, n') of the equivalent Gaussian-ratio ensemble."""

    m_prime: int
    p: int
    n_prime: int

    def __post_init__(self):
        if min(self.m_prime, self.p, self.n_prime) < 1:
            raise DimensionError(f"reduced dimensions must be >= 1, got {self}")
        if self.m_prime > self.n_prime:
            raise DimensionError(
                f"m' = {self.m_prime} > n' = {self.n_prime}: the ratio ensemble "
                "needs at least as many denominator columns as rows"
            )

    @property
    def l(self) -> int:
        """Number of nonzero eigenvalues."""
        return min(self.p, self.m_prime)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.m_prime, self.p, self.n_prime)


def compute_structure(dims: ProblemDims) -> GsvdStructure:
    """Block sizes from the dimension triple.

    ``k = min(m+q, n)`` is the stacked rank, ``r = k - min(q, n)`` the size
    of the identity block, and ``s = min(m,n) + min(q,n) - k`` the number of
    random squared generalized singular values.
    """
    m, q, n = dims.m, dims.q, dims.n
    k = min(m + q, n)
    r = k - min(q, n)
    s = min(m, n) + min(q, n) - k
    if q >= n:
        regime = Regime.TALL_C
    elif n < q + m:
        regime = Regime.INTERMEDIATE
    else:
        regime = Regime.DETERMINISTIC
    return GsvdStructure(k=k, r=r, s=s, regime=regime)


def reduced_dims(dims: ProblemDims) -> ReducedDims | None:
    """Map (m, q, n) to the ratio-ensemble dimensions (m', p, n').

    Returns ``None`` in the DETERMINISTIC regime (``n >= q + m``), where
    ``s = 0`` and the sigma factors carry no random block.
    """
    st = compute_structure(dims)
    if st.regime is Regime.TALL_C:
        return ReducedDims(dims.n, dims.m, dims.q)
    if st.regime is Regime.INTERMEDIATE:
        return ReducedDims(dims.q, st.s, dims.n)
    return None


@dataclass(frozen=True, eq=False)
class GsvdSpectrum:
    """Paired diagonal values: alphas, betas, and w = alpha^2/beta^2."""

    alphas: np.ndarray
    betas: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        a, b, w = self.alphas, self.betas, self.w
        if not (a.shape == b.shape == w.shape) or a.ndim != 1:
            raise DimensionError("spectrum arrays must be 1-d and equal length")
        if a.size:
            if np.any(a <= 0.0) or np.any(a >= 1.0) or np.any(np.diff(a) > 0):
                raise DegeneracyError("alphas must lie in (0,1), descending")
            if np.max(np.abs(a**2 + b**2 - 1.0)) > 1e-10:
                raise DegeneracyError("alpha^2 + beta^2 deviates from 1")
            if np.max(np.abs(w - a**2 / b**2) / np.maximum(w, 1e-300)) > 1e-8:
                raise DegeneracyError("w inconsistent with alpha^2/beta^2")
        for arr in (a, b, w):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.alphas.size


@dataclass(frozen=True, eq=False)
class GsvdFactors:
    """Explicit factors: u a qmat = (sigma_a, 0), v c qmat = (sigma_c, 0)."""

    u: np.ndarray
    v: np.ndarray
    qmat: np.ndarray
    sigma_a: np.ndarray
    sigma_c: np.ndarray
    structure: GsvdStructure


def _pair_dims(a: np.ndarray, c: np.ndarray) -> ProblemDims:
    a = linalg._as_matrix(a)
    c = linalg._as_matrix(c)
    if a.shape[1] != c.shape[1]:
        raise DimensionError(
            f"column counts differ: a is {a.shape}, c is {c.shape}"
        )
    return ProblemDims(m=a.shape[0], q=c.shape[0], n=a.shape[1])


def _classify(sv: np.ndarray, st: GsvdStructure):
    """Interior values and validity of descending cosine rows (last axis).

    A row is valid when exactly r values lie above ``1 - ONE_TOL`` and none
    below ``ZERO_TOL``; the s values between them are the alphas.  Values
    inside the dead zones are never reassigned: Gaussian inputs reach them
    with probability ~0, and silent repair would bias downstream statistics.
    """
    ones = np.count_nonzero(sv > 1.0 - ONE_TOL, axis=-1)
    zeros = np.count_nonzero(sv < ZERO_TOL, axis=-1)
    return sv[..., st.r : st.r + st.s], (ones == st.r) & (zeros == 0)


def _mismatch(st: GsvdStructure) -> DegeneracyError:
    return DegeneracyError(
        f"singular value classification mismatch: expected exactly {st.r} ones, "
        f"{st.s} interior values and no zeros"
    )


def _spectrum_from_alphas(alphas: np.ndarray) -> GsvdSpectrum:
    alphas = np.array(alphas, dtype=np.float64)
    betas = np.sqrt(1.0 - alphas**2)
    w = alphas**2 / (1.0 - alphas**2)
    return GsvdSpectrum(alphas=alphas, betas=betas, w=w)


def _stack_cosines(b: np.ndarray, m: int, st: GsvdStructure):
    """QR-then-CS reduction of a batch of stacks ``b``, shape (count, m+q, n).

    Returns the s interior cosines per row, the validity mask, and the rank
    mask it includes.  The rank test reads R's diagonal: as ``sigma_k <=
    min|R_ii|`` and ``max|R_ii| <= sigma_1``, it rejects only stacks whose
    ``sigma_k / sigma_1`` is below ``RANK_TOL`` as well.
    """
    qf, rf = np.linalg.qr(b)
    diag = np.abs(np.diagonal(rf, axis1=-2, axis2=-1))
    full_rank = diag.min(axis=-1) > RANK_TOL * diag.max(axis=-1)
    alphas, classified = _classify(np.linalg.svd(qf[:, :m, :], compute_uv=False), st)
    return alphas, full_rank & classified, full_rank


def gsvd_spectrum(a, c) -> GsvdSpectrum:
    """Squared generalized singular values via the QR-then-CS route.

    Algorithm (Paige & Saunders 1981, Van Loan 1985): Householder QR of the
    (m+q) x n stack, which has full column rank k = n whenever ``s >= 1``,
    then the SVD of the top m rows of Q.  Those cosines split into exactly
    r ones and s interior values; the interior values are the alphas, and
    ``w = alpha^2 / (1 - alpha^2)``.
    """
    dims = _pair_dims(a, c)
    st = compute_structure(dims)
    if st.s == 0:
        raise RegimeError(
            f"dims {dims.as_tuple()} are in the {st.regime.value} regime: "
            "s = 0, the pair has no random spectrum"
        )
    b = np.vstack([np.asarray(a, np.complex128), np.asarray(c, np.complex128)])
    alphas, ok, full_rank = _stack_cosines(b[None], dims.m, st)
    if not full_rank[0]:
        raise DecompositionError(
            f"stacked pair is rank deficient: min|R_ii| / max|R_ii| <= {RANK_TOL:g}"
        )
    if not ok[0]:
        raise _mismatch(st)
    return _spectrum_from_alphas(alphas[0])


def gsvd_spectrum_direct(a, c) -> GsvdSpectrum:
    """Independent spectrum oracle through the Gram-inverse route.

    Only valid when ``q >= n`` (so the Gram matrix of ``c`` is invertible):
    the w values are the nonzero eigenvalues of ``a (c^H c)^{-1} a^H``,
    computed by a Hermitian positive-definite solve followed by an
    eigendecomposition.  Kept deliberately separate from the QR-then-CS
    path so the two can cross-check each other.
    """
    dims = _pair_dims(a, c)
    st = compute_structure(dims)
    if st.regime is not Regime.TALL_C:
        raise RegimeError(
            f"gram-inverse route needs q >= n, got q = {dims.q}, n = {dims.n}"
        )
    a = np.asarray(a, np.complex128)
    c = np.asarray(c, np.complex128)
    gram = c.conj().T @ c
    solved = linalg.solve_hermitian_posdef(gram, a.conj().T)
    ratio = a @ solved
    ratio = 0.5 * (ratio + ratio.conj().T)
    evals, _ = np.linalg.eigh(ratio)
    w = evals[::-1][: st.s]
    if np.any(w <= 0.0):
        raise DecompositionError("nonpositive eigenvalue in the ratio matrix")
    alphas = np.sqrt(w / (1.0 + w))
    return _spectrum_from_alphas(alphas)


def gsvd_factorize(a, c) -> GsvdFactors:
    """Explicit GSVD factors via the cosine-sine construction.

    SVD the stack to get the orthonormal left block and the shared right
    factor; SVD the top block for ``u`` and the middle unitary; obtain the
    columns of ``v`` by normalizing the bottom block's image wherever the
    sine values are safely nonzero and complete the rest orthonormally.
    The shared factor is assembled as (right singular vectors) times the
    inverse of (middle unitary conjugate times the diagonal of stacked
    singular values), padded with zero columns beyond k.
    """
    dims = _pair_dims(a, c)
    if max(dims.m, dims.q, dims.n) > FACTORIZE_DIM_CAP:
        raise DimensionError(
            f"explicit factorization is reference scale: dims must be "
            f"<= {FACTORIZE_DIM_CAP}, got {dims.as_tuple()}"
        )
    st = compute_structure(dims)
    m, q, n = dims.m, dims.q, dims.n
    k, r, s = st.k, st.r, st.s

    b = np.vstack([np.asarray(a, np.complex128), np.asarray(c, np.complex128)])
    p_full, sb, rh_full = np.linalg.svd(b, full_matrices=True)
    if sb[k - 1] <= RANK_TOL * sb[0]:
        raise DecompositionError("stacked pair is rank deficient")
    pk = p_full[:, :k]
    sigma_b = sb[:k]

    u_cs, sv1, wh = np.linalg.svd(pk[:m, :], full_matrices=True)
    if not _classify(sv1, st)[1]:  # count check only; values reused below
        raise _mismatch(st)
    wmat = wh.conj().T  # k x k

    # image of the bottom block under the middle unitary: its columns are
    # mutually orthogonal with norms (0..0, beta_1..beta_s, 1..1)
    t = pk[m:, :] @ wmat
    norms = np.linalg.norm(t, axis=0)
    if np.any(norms[r:] <= ZERO_TOL):
        raise DegeneracyError("sine value vanished for a non-identity column")
    v_cs = np.empty((q, q), dtype=np.complex128)
    det_count = k - r
    v_cs[:, q - det_count :] = t[:, r:] / norms[r:]
    if q > det_count:
        v_cs[:, : q - det_count] = linalg.orthonormal_completion(
            v_cs[:, q - det_count :], q
        )

    sigma_a = np.zeros((m, k))
    idx = np.arange(r + s)
    sigma_a[idx, idx] = sv1[: r + s]
    sigma_c = np.zeros((q, k))
    rows = (q - det_count) + np.arange(det_count)
    cols = r + np.arange(det_count)
    sigma_c[rows, cols] = norms[r:]

    qk = rh_full[:k, :].conj().T
    qmat = np.zeros((n, n), dtype=np.complex128)
    qmat[:, :k] = qk @ (wmat / sigma_b[:, None])

    factors = GsvdFactors(
        u=u_cs.conj().T,
        v=v_cs.conj().T,
        qmat=qmat,
        sigma_a=sigma_a,
        sigma_c=sigma_c,
        structure=st,
    )
    _validate_factors(factors, b[:m], b[m:])
    return factors


def _validate_factors(f: GsvdFactors, a: np.ndarray, c: np.ndarray) -> None:
    """Self-check against the construction contracts; loud on violation."""
    m, n = a.shape
    q = c.shape[0]
    k = f.structure.k
    scale = 1.0 + np.linalg.norm(a) + np.linalg.norm(c)
    pad_a = np.hstack([f.sigma_a, np.zeros((m, n - k))])
    pad_c = np.hstack([f.sigma_c, np.zeros((q, n - k))])
    checks = (
        (np.linalg.norm(f.u @ a @ f.qmat - pad_a), 1e-8 * scale, "reconstruction of a"),
        (np.linalg.norm(f.v @ c @ f.qmat - pad_c), 1e-8 * scale, "reconstruction of c"),
        (np.linalg.norm(f.u @ f.u.conj().T - np.eye(m)), 1e-10, "unitarity of u"),
        (np.linalg.norm(f.v @ f.v.conj().T - np.eye(q)), 1e-10, "unitarity of v"),
        (
            np.linalg.norm(f.sigma_a.T @ f.sigma_a + f.sigma_c.T @ f.sigma_c - np.eye(k)),
            1e-10,
            "cosine-sine identity",
        ),
    )
    for value, bound, label in checks:
        if value > bound:
            raise DegeneracyError(
                f"factor validation failed: {label} residual {value:.3e} > {bound:.3e}"
            )


def _stack_power(b: np.ndarray):
    """Right-factor power of a batch of stacks ``b``, shape (count, m+q, n).

    Returns, per row, the sum of reciprocal eigenvalues of the smaller of the
    two Gram products, and the mask of rows with ``lambda_min > RANK_TOL *
    lambda_max``.
    """
    bh = b.conj().transpose(0, 2, 1)
    evals = np.linalg.eigvalsh(bh @ b if b.shape[2] <= b.shape[1] else b @ bh)
    ok = evals[:, 0] > RANK_TOL * evals[:, -1]
    return np.sum(1.0 / np.where(ok[:, None], evals, 1.0), axis=1), ok


def q_power_trace(a, c) -> float:
    """Power of the shared right factor: sum of reciprocal stack eigenvalues.

    Equals ``trace(qmat qmat^H)`` of the explicit factorization, but is
    computed directly from the k nonzero eigenvalues of the stacked Gram
    matrix (taking whichever of the two Gram products is smaller).
    """
    dims = _pair_dims(a, c)
    if dims.m + dims.q == dims.n:
        raise DimensionError(
            "q_power_trace requires m + q != n (the square-stack boundary)"
        )
    b = np.vstack([np.asarray(a, np.complex128), np.asarray(c, np.complex128)])
    totals, ok = _stack_power(b[None])
    if not ok[0]:
        raise SingularityError(
            f"near-singular stack: lambda_min <= {RANK_TOL:g} * lambda_max"
        )
    return float(totals[0])


def expected_q_power(dims: ProblemDims) -> float:
    """Closed-form mean of q_power_trace over standard Gaussian pairs."""
    total = dims.m + dims.q
    if total == dims.n:
        raise UndefinedExpectationError(
            f"expectation undefined at m + q = n (= {dims.n})"
        )
    return min(total, dims.n) / abs(total - dims.n)
