"""Structure, spectrum, and full factorization of a complex matrix pair.

Given ``a`` (m x n) and ``c`` (q x n), the generalized SVD writes
``u @ a @ qmat = (sigma_a, 0)`` and ``v @ c @ qmat = (sigma_c, 0)`` with
``u, v`` unitary and the sigma factors carrying an identity block of size
``r``, a paired diagonal block of size ``s`` with ``alpha_i^2 + beta_i^2 = 1``,
and a complementary block.  The squared generalized singular values are
``w_i = alpha_i^2 / beta_i^2``; their count ``s`` and the block sizes are pure
functions of the dimension triple.

Three private batched kernels do the numerical work; each serves one
sampler and, as its batch of one, one single-pair function.
``_stack_cosines`` is the QR-then-CS route: whenever s >= 1 the stack
``[a; c]`` has full column rank, and the alphas are the singular values of
the top m rows of its Q factor, by the cosine-sine step ``_top_cosines``
that the Haar sampler shares.  ``_stack_ratio`` gives the eigenvalues of
``x^H (y y^H)^{-1} x`` by a Cholesky solve, and ``_stack_power`` the trace
of the inverse of the smaller stacked Gram.  The last two share
``_stack_cholesky``, the one rank test of a Gram.

The standing assumption is ``q >= m`` (callers with a short second factor
should swap arguments themselves; there is no silent reciprocal mapping).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DecompositionError,
    DegeneracyError,
    DimensionError,
    RegimeError,
    SingularityError,
)

# classification thresholds: a cosine-type singular value counts as one
# above 1 - ONE_TOL and as zero below ZERO_TOL; anything else is interior.
ONE_TOL = 1e-8
ZERO_TOL = 1e-8
# relative floor below which a singular/eigen value is treated as lost rank
RANK_TOL = 1e-12


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


def _random_structure(dims: ProblemDims) -> GsvdStructure:
    """The structure of ``dims``, refused with :class:`RegimeError` when s = 0."""
    st = compute_structure(dims)
    if st.s == 0:
        raise RegimeError(f"dims {dims.as_tuple()} are deterministic (s = 0): no random spectrum")
    return st


def _truncated_structure(dims: ProblemDims) -> GsvdStructure:
    """The structure of ``dims``, refused with :class:`RegimeError` outside ``q < n < q + m``."""
    st = compute_structure(dims)
    if st.regime is not Regime.INTERMEDIATE:
        raise RegimeError(
            f"haar truncation sampling needs q < n < q + m, got {dims.as_tuple()} "
            f"({st.regime.value})"
        )
    return st


def _power_gap(dims: ProblemDims) -> int:
    """``|m + q - n|``, refused with :class:`RegimeError` at the square stack."""
    gap = abs(dims.m + dims.q - dims.n)
    if gap == 0:
        raise RegimeError(f"the right-factor power's mean is undefined at m + q = n (= {dims.n})")
    return gap


def reduced_dims(dims: ProblemDims) -> ReducedDims | None:
    """Map (m, q, n) to the ratio-ensemble dimensions (m', p, n').

    One formula: ``(min(q, n), m + min(q, n) - n, max(q, n))``, which is
    ``(n, m, q)`` when ``q >= n`` and ``(q, s, n)`` when ``q < n < q + m``.
    The law there is the Jacobi ensemble with ``l = s``, ``a = |n - m|`` and
    ``b = |q - n|``.  Returns ``None`` when ``p <= 0``, which holds exactly
    in the DETERMINISTIC regime (``n >= q + m``), where ``s = 0`` and the
    sigma factors carry no random block.
    """
    p = dims.m + min(dims.q, dims.n) - dims.n
    return ReducedDims(min(dims.q, dims.n), p, max(dims.q, dims.n)) if p > 0 else None


@dataclass(frozen=True, eq=False)
class GsvdSpectrum:
    """Paired diagonal values: descending alphas; betas and w derive from them."""

    alphas: np.ndarray

    def __post_init__(self):
        a = self.alphas
        if a.ndim != 1:
            raise DimensionError("alphas must be a 1-d array")
        if np.any(a <= 0.0) or np.any(a >= 1.0) or np.any(np.diff(a) > 0):
            raise DegeneracyError("alphas must lie in (0,1), descending")
        a.setflags(write=False)

    @property
    def betas(self) -> np.ndarray:
        return np.sqrt(1.0 - self.alphas**2)

    @property
    def w(self) -> np.ndarray:
        return self.alphas**2 / (1.0 - self.alphas**2)

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


def _as_matrix(mat) -> np.ndarray:
    a = np.asarray(mat)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix contains non-finite entries")
    return a.astype(np.complex128, copy=False)


def _pair_stack(a, c) -> tuple[ProblemDims, np.ndarray]:
    """Validated dimensions of a pair and its complex stack ``[a; c]``."""
    a = _as_matrix(a)
    c = _as_matrix(c)
    if a.shape[1] != c.shape[1]:
        raise DimensionError(
            f"column counts differ: a is {a.shape}, c is {c.shape}"
        )
    return ProblemDims(m=a.shape[0], q=c.shape[0], n=a.shape[1]), np.vstack([a, c])


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


def _top_cosines(basis: np.ndarray, m: int, st: GsvdStructure):
    """:func:`_classify` of the singular values of the top m rows of orthonormal bases."""
    return _classify(np.linalg.svd(basis[:, :m, :], compute_uv=False), st)


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
    alphas, classified = _top_cosines(qf, m, st)
    return alphas, full_rank & classified, full_rank


def _stack_cholesky(gram: np.ndarray):
    """Cholesky factors of Hermitian Grams (count, d, d) and their rank mask.

    The mask is ``min|L_ii|^2 > RANK_TOL * max|L_ii|^2``; squared pivots lie
    in [lambda_min, lambda_max], so it rejects only Grams that the test
    ``lambda_min > RANK_TOL * lambda_max`` rejects too.  A Gram that Cholesky
    refuses sends the batch through that test, and each rejected row
    factors the identity instead.
    """
    try:
        chol = np.linalg.cholesky(gram)
        ok = True
    except np.linalg.LinAlgError:
        evals = np.linalg.eigvalsh(gram)
        ok = evals[:, 0] > RANK_TOL * evals[:, -1]
        chol = np.linalg.cholesky(np.where(ok[:, None, None], gram, np.eye(gram.shape[-1])))
    pivots = np.diagonal(chol, axis1=-2, axis2=-1).real  # positive by construction
    return chol, ok & (pivots.min(axis=-1) ** 2 > RANK_TOL * pivots.max(axis=-1) ** 2)


def _stack_ratio(x: np.ndarray, y: np.ndarray):
    """The ``min(d, p)`` nonzero eigenvalues of ``x^H (y y^H)^{-1} x``, descending.

    ``x`` is (count, d, p) and ``y`` (count, d, n'); the count is the rank
    of ``x``, read from its shape.  The matrix is ``z^H z``
    with ``z = L^{-1} x`` and ``L L^H = y y^H``, Hermitian by construction;
    the mask adds finite, positive values to the Cholesky rank test.
    """
    chol, ok = _stack_cholesky(y @ y.conj().transpose(0, 2, 1))
    z = np.linalg.solve(chol, x)
    w = np.linalg.eigvalsh(z.conj().transpose(0, 2, 1) @ z)[:, ::-1][:, : min(x.shape[1:])]
    return w, ok & np.all(w > 0.0, axis=1) & np.all(np.isfinite(w), axis=1)


def _stack_power(b: np.ndarray):
    """``trace(G^{-1}) = ||L^{-1}||_F^2`` per stack, ``b`` of shape (count, m+q, n).

    ``G = L L^H`` is the smaller of the two Gram products; returns the
    Cholesky rank mask as well.
    """
    bh = b.conj().transpose(0, 2, 1)
    chol, ok = _stack_cholesky(bh @ b if b.shape[2] <= b.shape[1] else b @ bh)
    inv = np.linalg.inv(chol).view(np.float64)
    return np.einsum("bij,bij->b", inv, inv), ok


def gsvd_spectrum(a, c) -> GsvdSpectrum:
    """Squared generalized singular values via the QR-then-CS route.

    Algorithm (Paige & Saunders 1981, Van Loan 1985): Householder QR of the
    (m+q) x n stack, which has full column rank k = n whenever ``s >= 1``,
    then the SVD of the top m rows of Q.  Those cosines split into exactly
    r ones and s interior values; the interior values are the alphas, and
    ``w = alpha^2 / (1 - alpha^2)``.
    """
    dims, b = _pair_stack(a, c)
    st = _random_structure(dims)
    alphas, ok, full_rank = _stack_cosines(b[None], dims.m, st)
    if not full_rank[0]:
        raise DecompositionError(
            f"stacked pair is rank deficient: min|R_ii| / max|R_ii| <= {RANK_TOL:g}"
        )
    if not ok[0]:
        raise _mismatch(st)
    return GsvdSpectrum(alphas[0])


def gsvd_spectrum_direct(a, c) -> GsvdSpectrum:
    """Independent spectrum oracle through the Gram-inverse route.

    Only valid when ``q >= n``: the w values are the s largest eigenvalues
    of ``a (c^H c)^{-1} a^H``, the F-matrix sampler's ratio kernel at ``x =
    a^H``, ``y = c^H``, whose count ``min(d, p) = min(n, m)`` is that s.
    Kept apart from the QR-then-CS path so the two can
    cross-check each other; a ``c^H c`` failing the rank test raises.
    """
    dims, b = _pair_stack(a, c)
    if dims.q < dims.n:
        raise RegimeError(
            f"gram-inverse route needs q >= n, got q = {dims.q}, n = {dims.n}"
        )
    bh = b.conj().T[None]
    w, ok = _stack_ratio(bh[:, :, : dims.m], bh[:, :, dims.m :])
    if not ok[0]:
        raise SingularityError("c^H c fails the rank test, or some w <= 0")
    return GsvdSpectrum(np.sqrt(w[0] / (1.0 + w[0])))


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
    dims, b = _pair_stack(a, c)
    st = compute_structure(dims)
    m, q, n = dims.m, dims.q, dims.n
    k, r, s = st.k, st.r, st.s

    p_full, sb, rh_full = np.linalg.svd(b, full_matrices=True)
    if sb[k - 1] <= RANK_TOL * sb[0]:
        raise DecompositionError("stacked pair is rank deficient")
    pk = p_full[:, :k]

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
    det_count = k - r
    sines = t[:, r:] / norms[r:]
    # a complete QR of the orthonormal sine columns appends their complement
    v_cs = np.hstack([np.linalg.qr(sines, mode="complete")[0][:, det_count:], sines])

    sigma_a = np.zeros((m, k))
    sigma_a[: r + s, : r + s] = np.diag(sv1[: r + s])
    sigma_c = np.zeros((q, k))
    sigma_c[q - det_count :, r:] = np.diag(norms[r:])

    qmat = np.zeros((n, n), dtype=np.complex128)
    qmat[:, :k] = rh_full[:k].conj().T @ (wmat / sb[:k, None])

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


def q_power_trace(a, c) -> float:
    """Power of the shared right factor: sum of reciprocal stack eigenvalues.

    Equals ``trace(qmat qmat^H)`` of the explicit factorization, computed as
    ``trace(G^{-1})`` of the smaller stacked Gram by the power sampler's
    Cholesky kernel.
    """
    dims, b = _pair_stack(a, c)
    _power_gap(dims)
    totals, ok = _stack_power(b[None])
    if not ok[0]:
        raise SingularityError(
            f"near-singular stack: min|L_ii|^2 <= {RANK_TOL:g} * max|L_ii|^2"
        )
    return float(totals[0])


def expected_q_power(dims: ProblemDims) -> float:
    """Closed-form mean of q_power_trace over standard Gaussian pairs."""
    return min(dims.m + dims.q, dims.n) / _power_gap(dims)
