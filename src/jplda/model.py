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
import scipy.linalg as sla

from .errors import DimensionMismatch, NonFinite, NotPositiveDefinite, NotSymmetric

__all__ = ["ModelParams", "stack_w", "collapse_to_plda"]

# symmetry check is relative to the largest entry of D
_SYMMETRY_TOL = 1e-10


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
        scale = max(1.0, float(np.max(np.abs(self.D))) if d else 1.0)
        if d and float(np.max(np.abs(self.D - self.D.T))) > _SYMMETRY_TOL * scale:
            raise NotSymmetric("D is not symmetric within tolerance")
        try:
            sla.cholesky(self.D, lower=True)
        except (sla.LinAlgError, ValueError) as exc:
            raise NotPositiveDefinite("D is not positive definite") from exc
        diagonal = not np.any(self.D - np.diag(np.diag(self.D)))
        object.__setattr__(self, "diagonal_noise", bool(diagonal))

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


def stack_w(model: ModelParams) -> np.ndarray:
    """W = [V | U_1 | ... | U_N]: all loadings column-wise, in model order."""
    return np.concatenate((model.V,) + model.U, axis=1)


def _spd_inverse(a: np.ndarray) -> np.ndarray:
    """Invert an SPD matrix through its Cholesky factor; symmetrize the result."""
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    c, low = sla.cho_factor(a, lower=True)
    inv = sla.cho_solve((c, low), np.eye(n))
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
    if model.diagonal_noise:
        noise_cov = np.diag(1.0 / np.diag(model.D))
    else:
        noise_cov = _spd_inverse(model.D)
    for u in model.U:
        noise_cov = noise_cov + u @ u.T
    try:
        d_new = _spd_inverse(0.5 * (noise_cov + noise_cov.T))
    except (sla.LinAlgError, ValueError) as exc:
        raise NotPositiveDefinite("collapsed noise covariance is not invertible") from exc
    return ModelParams(mu=model.mu, V=model.V, U=(), D=d_new)
