"""Joint PLDA model parameters.

The model decomposes an embedding ``m`` into a global mean, a speaker
term, one term per nuisance condition (language, microphone, ...), and
residual noise with precision ``D``::

    m = mu + V y + sum_j U_j x_j + eps,   y, x_j ~ N(0, I),  eps ~ N(0, D^-1)

Each ``y`` is shared by all samples of one speaker and each ``x_j`` by
all samples with the same label for condition ``j``. Every way of
building a ``ModelParams``, ``dataclasses.replace`` included, checks it,
so a model that exists is valid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotPositiveDefinite, NotSymmetric

__all__ = ["ModelParams", "stack_w", "collapse_to_plda"]

# symmetry check is relative to the largest entry of D
_SYMMETRY_TOL = 1e-10
# Rows per block of the symmetry check. At d=512 the blocked check took
# 0.9 ms, against 1.9 ms for the whole D - D^T in one 2 MB temporary.
_SYMMETRY_ROWS = 64
# Largest d whose D is checked by one np.linalg.cholesky; above it, in
# panels of _PANEL_ROWS columns (_positive_definite). Medians of 201 to
# 301 calls interleaved in random order, 1 BLAS thread, two runs, one
# Cholesky against the panels: 0.12 against 0.21 ms at d=160, 0.19
# against 0.32 at d=200, 0.39 against 0.50 at 257, 0.70 against 0.78 at
# 344, 1.1 against 1.1 at 408, 2.2 against 1.8 at 500. At multiples of
# 32 the one Cholesky is slow: 0.25 against 0.25 ms at 192, 0.58 against
# 0.44 at 256, 0.81 against 0.67 at 320, 1.4 against 1.0 at 384, 3.5
# against 1.9 at 512 (LAPACK's dpotrf: 1.5). No d splits the two
# cleanly. Below 256 the one call wins or ties at every size measured
# but 248 (0.52 against 0.49 ms); above it the panels lose at most
# 0.14 ms, at sizes up to 408 that are not multiples of 32, and win
# 0.07 to 1.7 ms at the multiples and 0.02 to 0.4 ms from 440 on.
# Panels of 32, 48, 96 and 128 columns were slower at d=384 and d=512.
_NUMPY_CHECK_MAX_D = 256
_PANEL_ROWS = 64


def _frozen_array(a, ndim, what):
    a = np.array(a, dtype=np.float64, order="C")
    if a.ndim != ndim:
        raise DimensionMismatch(f"{what} must be {ndim}-dimensional, got shape {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ModelParams:
    """Immutable container for the model parameters, valid by construction.

    Attributes:
      mu: global mean, shape (d,). Subtracted from every input at scoring
        time, so uncentered embeddings are accepted.
      V: speaker subspace, shape (d, R_y). R_y may be 0.
      U: one matrix per nuisance condition, U[j] of shape (d, R_xj),
        each R_xj >= 1. May be an empty tuple.
      D: noise precision, shape (d, d), symmetric positive definite.
        The noise covariance is D^-1.

    Raises:
      DimensionMismatch: an array of the wrong rank, a matrix without d
        rows, an empty condition subspace (R_xj == 0), or D not (d, d).
      NonFinite: a NaN or an infinity; the message starts with the
        parameter's name (mu, V, U[j] or D).
      NotSymmetric: D deviates from its transpose by more than 1e-10
        relative to its largest entry.
      NotPositiveDefinite: the Cholesky factorization of D fails.
    """

    mu: np.ndarray
    V: np.ndarray
    U: tuple
    D: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", _frozen_array(self.mu, 1, "mu"))
        object.__setattr__(self, "V", _frozen_array(self.V, 2, "V"))
        object.__setattr__(
            self, "U", tuple(_frozen_array(u, 2, f"U[{j}]") for j, u in enumerate(self.U))
        )
        object.__setattr__(self, "D", _frozen_array(self.D, 2, "D"))
        d = self.d
        if self.V.shape[0] != d:
            raise DimensionMismatch(f"V has {self.V.shape[0]} rows, expected d={d}")
        for j, u in enumerate(self.U):
            if u.shape[0] != d:
                raise DimensionMismatch(f"U[{j}] has {u.shape[0]} rows, expected d={d}")
            if u.shape[1] < 1:
                raise DimensionMismatch(f"U[{j}] must have at least one column")
        if self.D.shape != (d, d):
            raise DimensionMismatch(f"D has shape {self.D.shape}, expected ({d}, {d})")
        named = [("mu", self.mu), ("V", self.V)]
        named += [(f"U[{j}]", u) for j, u in enumerate(self.U)] + [("D", self.D)]
        for name, a in named:
            if not np.all(np.isfinite(a)):
                raise NonFinite(f"{name} contains non-finite values")
        scale = max(1.0, float(self.D.max()), -float(self.D.min())) if d else 1.0
        if d and _asymmetry(self.D) > _SYMMETRY_TOL * scale:
            raise NotSymmetric("D is not symmetric within tolerance")
        if d and not _positive_definite(self.D):
            raise NotPositiveDefinite("D is not positive definite")

    # derived sizes -----------------------------------------------------

    @property
    def d(self) -> int:
        return self.mu.shape[0]

    @property
    def r_y(self) -> int:
        return self.V.shape[1]

    @property
    def n_conditions(self) -> int:
        return len(self.U)

    @property
    def r_x(self) -> tuple:
        return tuple(u.shape[1] for u in self.U)

    @property
    def r_z(self) -> int:
        return self.r_y + sum(self.r_x)


def _check_vector(model: ModelParams, what: str, shape: tuple, finite) -> None:
    """Raise the error for an input vector of ``shape``, ``finite`` or not."""
    if shape != (model.d,):
        raise DimensionMismatch(f"{what} has shape {shape}, expected a vector of length {model.d}")
    if not finite:
        raise NonFinite(f"{what} contains non-finite values")


def _checked_vector(model: ModelParams, m, what: str) -> np.ndarray:
    """One raw vector as a float64 array, or the error that names it."""
    m = np.asarray(m, dtype=np.float64)
    _check_vector(model, what, m.shape, np.isfinite(m).all())
    return m


def _check_priors(model: ModelParams, priors) -> None:
    if priors.n_conditions != model.n_conditions:
        raise DimensionMismatch(f"priors cover {priors.n_conditions} conditions, "
                                f"model has {model.n_conditions}")


def _check_ties(model: ModelParams, h) -> None:
    if len(h.condition_tied) != model.n_conditions:
        raise DimensionMismatch(f"tie vector has length {len(h.condition_tied)}, "
                                f"the model has {model.n_conditions} conditions")


def _asymmetry(a: np.ndarray) -> float:
    """max |a - a^T|, from the lower triangle in blocks of _SYMMETRY_ROWS
    rows: a - a^T is exactly antisymmetric, and no temporary is larger
    than a block."""
    top = 0.0
    for i in range(0, a.shape[0], _SYMMETRY_ROWS):
        j = i + _SYMMETRY_ROWS
        diff = a[i:j, :j] - a[:j, i:j].T
        top = max(top, float(diff.max()), -float(diff.min()))
    return top


def _positive_definite(a: np.ndarray) -> bool:
    """Whether the Cholesky factorization of the symmetric ``a`` succeeds.

    Up to d = ``_NUMPY_CHECK_MAX_D`` it is one ``np.linalg.cholesky``.
    Above it the lower factor L is built left-looking, ``_PANEL_ROWS``
    columns i:j at a time (Golub & Van Loan, Matrix Computations, 4.2):
    the panel's columns of ``a`` from row i on, less the products of the
    earlier panels' rows, are [C; E]; C = F F^T is factorized, where a
    LinAlgError means that ``a`` is not positive definite, and the rows
    below are E F^-T. A panel keeps only those rows, and drops each
    panel's first rows once no later panel reads them.

    F^-1 is applied as an explicit inverse, not by a triangular solve.
    While ``a`` is positive definite, every C is a principal block of a
    Schur complement of ``a``, so its eigenvalues lie between ``a``'s and
    cond(F) <= sqrt(cond(a)): the inverse's rounding matters only for an
    ``a`` so near singular that LAPACK's answer, too, is decided by
    rounding. On 400 random D (d = 300 and 512, one eigenvalue set to
    +-1e-6 ... +-1e-14 of the largest) the answer was dpotrf's every
    time, and a D whose first 64 rows and columns are scaled down to
    1e-6, so that its leading block has condition 1e12, keeps its answer.
    """
    d = a.shape[0]
    try:
        if d <= _NUMPY_CHECK_MAX_D:
            np.linalg.cholesky(a)
            return True
        below = []  # the rows of L from row i on, one block per earlier panel
        for i in range(0, d, _PANEL_ROWS):
            n = min(_PANEL_ROWS, d - i)
            rest = a[i:, i:i + n].copy()
            for rows in below:
                rest -= rows @ rows[:n].T
            factor = np.linalg.cholesky(rest[:n])
            if i + n < d:  # no rows below the last panel
                below = [rows[n:] for rows in below]
                below.append(rest[n:] @ _lower_inverse(factor[None])[0].T)
    except np.linalg.LinAlgError:
        return False
    return True


def _lower_inverse(factors: np.ndarray) -> np.ndarray:
    """Invert a C-contiguous stack of lower triangular factors F
    (n x r x r) in place; the upper triangles stay exact zeros. The
    scoring level build and the panels of ``_positive_definite`` use it.

    In the level build K >= I, so every Schur complement of K is >= I too
    and bounds |F^-1|_2 by 1: there, applying the explicit inverse is as
    stable as a triangular solve. The diagonal entries become 1 / F_ii,
    and then each step joins neighbouring diagonal blocks whose inverses
    are known by [[A, 0], [B, C]]^-1 = [[A^-1, 0], [C^-1 (-B) A^-1, C^-1]]:
    every pair of blocks of b rows, of every factor at once, and the last
    block of b rows with the shorter block below it, if there is one. A
    step writes only inside the blocks it joins, so each B still holds
    F's entries when it is read. So a stack takes about 2 log2(r) stacked
    products.
    """
    n, r, _ = factors.shape
    diagonal = factors.reshape(n, -1)[:, :: r + 1]
    np.divide(1.0, diagonal, out=diagonal)
    s0, s1, s2 = factors.strides
    b = 1
    while b < r:
        pairs, rest = divmod(r, 2 * b)
        if pairs:
            # [factor, pair, block row, block column, row, column]
            x = np.ndarray((n, pairs, 2, 2, b, b), buffer=factors,
                           strides=(s0, 2 * b * (s1 + s2), b * s1, b * s2, s1, s2))
            corner = x[:, :, 1, 0]
            np.matmul(x[:, :, 1, 1], np.negative(corner) @ x[:, :, 0, 0], out=corner)
        if rest > b:
            i, j = r - rest, r - rest + b
            corner = factors[:, j:, i:j]
            np.matmul(factors[:, j:, j:], np.negative(corner) @ factors[:, i:j, i:j], out=corner)
        b *= 2
    return factors


def stack_w(model: ModelParams) -> np.ndarray:
    """W = [V | U_1 | ... | U_N]: all loadings column-wise, in model order."""
    return np.concatenate((model.V,) + model.U, axis=1)


def _spd_inverse(a: np.ndarray) -> np.ndarray:
    """Invert an SPD matrix as L^-T L^-1, from its Cholesky factor L;
    symmetrize the result. LinAlgError: ``a`` is not finite or not
    positive definite."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("matrix is not finite")
    inv_l = _lower_inverse(np.linalg.cholesky(a)[None])[0]
    inv = inv_l.T @ inv_l
    return 0.5 * (inv + inv.T)


def collapse_to_plda(model: ModelParams) -> ModelParams:
    """Fold all condition variability into the noise term.

    Returns a model with no nuisance conditions, the same mu and V, and
    noise precision D' = (D^-1 + sum_j U_j U_j^T)^-1, i.e., the same
    total within-speaker covariance. Useful as the classical-PLDA
    baseline on data that the full model handles with tied conditions.

    Raises:
      NotPositiveDefinite: the folded covariance could not be inverted.
    """
    if model.n_conditions == 0:
        return model
    # overflow leaves a non-finite covariance, which raises NotPositiveDefinite
    with np.errstate(over="ignore", invalid="ignore"):
        noise_cov = _spd_inverse(model.D)
        for u in model.U:
            noise_cov = noise_cov + u @ u.T
        try:
            d_new = _spd_inverse(0.5 * (noise_cov + noise_cov.T))
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("collapsed noise covariance is not invertible") from exc
    return ModelParams(mu=model.mu, V=model.V, U=(), D=d_new)
