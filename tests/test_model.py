import dataclasses
import re
import struct

import numpy as np
import pytest

from jplda import (
    DimensionMismatch,
    ModelParams,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
    ValidationFailed,
    collapse_to_plda,
    io,
)
from jplda.model import _lower_inverse, stack_w

from conftest import random_model


def valid_arrays():
    """Fresh parameter arrays of a valid 3-d model with one condition."""
    return {"mu": np.zeros(3), "V": np.ones((3, 1)), "U": (np.ones((3, 2)),), "D": np.eye(3)}


def write_model_file(path, mu, V, U, D):
    """Write ``io``'s binary model layout for any arrays, valid or not."""
    header = io.MAGIC + struct.pack("<4I", io.FORMAT_VERSION, len(mu), V.shape[1], len(U))
    header += struct.pack(f"<{len(U)}I", *(u.shape[1] for u in U))
    path.write_bytes(header + b"".join(np.asarray(a, "<f8").tobytes() for a in (mu, V, *U, D)))


def assert_rejected(tmp_path, exc, match=None, **bad):
    """Valid parameters with ``bad`` swapped in raise ``exc`` from the
    constructor and from ``dataclasses.replace`` on a valid model. With a
    ``tmp_path``, the same arrays written as a model file make
    ``io.load_model`` raise ValidationFailed caused by ``exc``."""
    arrays = {**valid_arrays(), **bad}
    with pytest.raises(exc, match=match):
        ModelParams(**arrays)
    with pytest.raises(exc, match=match):
        dataclasses.replace(ModelParams(**valid_arrays()), **bad)
    if tmp_path is not None:
        path = tmp_path / "bad.jplda"
        write_model_file(path, **arrays)
        with pytest.raises(ValidationFailed) as info:
            io.load_model(path)
        assert isinstance(info.value.__cause__, exc)
        assert re.search(match or "", str(info.value.__cause__))


def test_validate_accepts_identity_precision():
    model = ModelParams(
        mu=np.zeros(4),
        V=np.zeros((4, 2)),
        U=(np.zeros((4, 1)), np.zeros((4, 3))),
        D=np.eye(4),
    )
    dataclasses.replace(model, mu=np.ones(4))  # re-runs every model check


def test_validate_rejects_row_mismatch():
    # one d in the file header: a row mismatch cannot be written to a file
    assert_rejected(None, DimensionMismatch, U=(np.zeros((2, 1)),))


@pytest.mark.parametrize("bad, message", [
    ({"mu": np.zeros((3, 1))}, "mu must be 1-dimensional, got shape (3, 1)"),
    ({"V": np.ones((2, 1))}, "V has 2 rows, expected d=3"),
    ({"D": np.eye(2)}, "D has shape (2, 2), expected (3, 3)"),
], ids=["rank", "V-rows", "D-shape"])
def test_validate_names_the_wrong_shape(bad, message):
    # none of these can be written to a model file: its header fixes the shapes
    assert_rejected(None, DimensionMismatch, f"^{re.escape(message)}$", **bad)


def test_validate_rejects_indefinite_precision(tmp_path):
    assert_rejected(tmp_path, NotPositiveDefinite, D=np.diag([1.0, -1.0, 1.0]))
    # the leading 2x2 block is positive definite, the 3x3 determinant
    # negative: the factorization fails at the last pivot
    d = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    assert np.linalg.det(d[:2, :2]) > 0 > np.linalg.det(d)
    assert_rejected(tmp_path, NotPositiveDefinite, D=d)


@pytest.mark.parametrize("d", [256, 257, 300, 512],
                         ids=["one-cholesky", "panels-257", "ragged-panels-300", "panels-512"])
def test_positive_definite_check_agrees_across_the_size_split(d):
    # one np.linalg.cholesky checks D up to d = 256 and 64-column panels
    # above it; the last panel has 1 column at d = 257 and 44 at d = 300.
    # Positive definite Ds pass, one with an eigenvalue of 2e-5 too. An
    # indefinite D, one with an eigenvalue of -2e-5, one with only its
    # last Schur complement negative (-1e-3), and singular positive
    # semidefinite Ds with a zero pivot in the first panel, a middle one
    # and the last row raise the same error. The small eigenvalues and
    # the Schur complement sit inside what one panel's products add to a
    # pivot, so a dropped or wrong panel update changes the answer; all
    # but the singular Ds are clear of zero, and there the check agrees
    # with eigvalsh. S D S, with S scaling the first 64 rows and columns
    # by 1e-6 to 1, has D's inertia and so D's answer, though its leading
    # 64 x 64 block has condition 1e12.
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eig = rng.uniform(0.5, 2.0, d)

    def spd(eig):
        a = (q * eig) @ q.T
        return 0.5 * (a + a.T)

    def with_eigenvalue(value):
        changed = eig.copy()
        changed[d // 3] = value
        return spd(changed)

    def passes(big_d):
        try:
            ModelParams(mu=np.zeros(d), V=np.zeros((d, 1)), U=(), D=big_d)
        except NotPositiveDefinite as exc:
            assert str(exc) == "D is not positive definite"
            return False
        return True

    definite = spd(eig)
    last_negative = definite.copy()
    lead, col = definite[:-1, :-1], definite[:-1, -1]
    last_negative[-1, -1] = col @ np.linalg.solve(lead, col) - 1e-3
    assert np.linalg.eigvalsh(lead).min() > 0
    clear = {"definite": definite, "nearly singular": with_eigenvalue(2e-5),
             "indefinite": with_eigenvalue(-1.0), "slightly indefinite": with_eigenvalue(-2e-5),
             "last Schur complement": last_negative}
    scale = np.ones(d)
    scale[:64] = np.logspace(-6, 0, 64)
    for name, big_d in clear.items():
        lam = np.linalg.eigvalsh(big_d)
        assert np.abs(lam).min() >= 1e-6 * np.abs(lam).max(), name
        assert passes(big_d) == (lam.min() > 0) == (name in ("definite", "nearly singular")), name
        assert passes(scale[:, None] * big_d * scale) == passes(big_d), name
    for k in (0, d // 2, d - 1):
        singular = definite.copy()
        singular[k] = singular[:, k] = 0.0  # a zero pivot, exactly
        assert not passes(singular), k


def test_panel_solve_matches_solve():
    # the rows below a panel are E F^-T, from the in-place inverse of its
    # 64 x 64 factor F; they agree with a triangular solve to r eps max|F|
    # on the scale of E
    r = 64
    rng = np.random.default_rng(r)
    a = rng.standard_normal((r, r))
    factor = np.linalg.cholesky(a @ a.T + np.eye(r))
    rows = rng.standard_normal((200, r))
    got = rows @ _lower_inverse(factor.copy()[None])[0].T
    want = np.linalg.solve(factor, rows.T).T
    bound = r * np.finfo(float).eps * np.abs(factor).max() * np.abs(rows).max()
    assert np.abs(got - want).max() <= bound


def test_validate_rejects_indefinite_precision_symmetric_within_tolerance(tmp_path):
    # off by 1e-12 between the triangles, inside the 1e-10 tolerance; the
    # 2x2 block [[1, 2], [2, 1]] has eigenvalue -1
    d = np.eye(3)
    d[0, 1], d[1, 0] = 2.0, 2.0 + 1e-12
    assert_rejected(tmp_path, NotPositiveDefinite, "^D is not positive definite$", D=d)


def test_validate_rejects_asymmetric_precision(tmp_path):
    d = np.eye(3)
    d[0, 1] = 1e-3
    assert_rejected(tmp_path, NotSymmetric, D=d)


def test_validate_rejects_empty_condition_subspace(tmp_path):
    assert_rejected(tmp_path, DimensionMismatch, U=(np.zeros((3, 0)),))


def test_validate_rejects_nan_mean(tmp_path):
    assert_rejected(tmp_path, NonFinite, r"^mu ", mu=np.array([np.nan, 0.0, 0.0]))


def test_validate_rejects_nan_speaker_subspace(tmp_path):
    assert_rejected(tmp_path, NonFinite, r"^V ", V=np.array([[np.nan], [1.0], [1.0]]))


def test_validate_rejects_nan_condition_subspace(tmp_path):
    u = np.ones((3, 2))
    u[0, 0] = np.nan
    assert_rejected(tmp_path, NonFinite, r"^U\[0\] ", U=(u,))


def test_validate_rejects_nan_noise_precision(tmp_path):
    assert_rejected(tmp_path, NonFinite, r"^D ", D=np.diag([np.nan, 1.0, 1.0]))


def test_parameters_are_read_only():
    model = ModelParams(mu=np.zeros(2), V=np.ones((2, 1)), U=(), D=np.eye(2))
    with pytest.raises(ValueError):
        model.V[0, 0] = 3.0


def test_stack_w_column_order():
    model = ModelParams(
        mu=np.zeros(2), V=np.array([[1.0], [0.0]]), U=(np.array([[0.0], [2.0]]),), D=np.eye(2)
    )
    np.testing.assert_array_equal(stack_w(model), [[1.0, 0.0], [0.0, 2.0]])


def test_stack_w_no_conditions_gives_v():
    model = ModelParams(mu=np.zeros(3), V=np.arange(6.0).reshape(3, 2), U=(), D=np.eye(3))
    np.testing.assert_array_equal(stack_w(model), model.V)


def test_stack_w_shape_arithmetic():
    model = ModelParams(
        mu=np.zeros(3),
        V=np.zeros((3, 1)),
        U=(np.zeros((3, 2)), np.zeros((3, 1))),
        D=np.eye(3),
    )
    assert stack_w(model).shape == (3, 4)


def test_stack_w_column_count_matches_ranks(rng):
    for _ in range(20):
        d = int(rng.integers(1, 7))
        r_y = int(rng.integers(0, 4))
        r_x = tuple(int(r) for r in rng.integers(1, 4, size=rng.integers(0, 4)))
        model = random_model(rng, d, r_y, r_x)
        assert stack_w(model).shape[1] == r_y + sum(r_x)


def test_collapse_without_conditions_is_identity():
    model = ModelParams(mu=np.zeros(2), V=np.ones((2, 1)), U=(), D=np.eye(2))
    assert collapse_to_plda(model) is model


def test_collapse_scalar_value():
    model = ModelParams(
        mu=np.zeros(1), V=np.zeros((1, 1)), U=(np.array([[2.0]]),), D=np.array([[1.0]])
    )
    collapsed = collapse_to_plda(model)
    np.testing.assert_allclose(collapsed.D, [[0.2]], rtol=0, atol=1e-15)
    assert collapsed.n_conditions == 0


@pytest.mark.parametrize("bad", [
    {"U": (np.full((3, 2), 1e200),)},
    {"D": np.diag([1.0, 1.0, 1e-310])},
], ids=["huge-loadings", "subnormal-precision"])
def test_collapse_overflow_raises_not_positive_definite(bad):
    # U U^T, or the inverse of D, overflows to inf: a defined error, not
    # numpy's overflow warning
    model = ModelParams(**{**valid_arrays(), **bad})
    with pytest.raises(NotPositiveDefinite, match="^collapsed noise covariance is not invertible$"):
        collapse_to_plda(model)


@pytest.mark.parametrize("diagonal_noise", [False, True], ids=["full-D", "diagonal-D"])
def test_collapse_matches_direct_covariance_arithmetic(rng, diagonal_noise):
    # oracle: build D^-1 + sum U U^T directly and compare covariances
    for _ in range(10):
        d = int(rng.integers(1, 6))
        model = random_model(rng, d, int(rng.integers(0, 3)), (1, 2), diagonal_noise)
        collapsed = collapse_to_plda(model)
        want = np.linalg.inv(model.D) + sum(u @ u.T for u in model.U)
        got = np.linalg.inv(collapsed.D)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_collapse_preserves_total_marginal_covariance(rng):
    for _ in range(10):
        d = int(rng.integers(1, 6))
        model = random_model(rng, d, 2, (2, 1))
        collapsed = collapse_to_plda(model)
        total = model.V @ model.V.T + sum(u @ u.T for u in model.U) + np.linalg.inv(model.D)
        total_collapsed = collapsed.V @ collapsed.V.T + np.linalg.inv(collapsed.D)
        np.testing.assert_allclose(total_collapsed, total, atol=1e-8)


def test_collapsed_precision_passes_validation(rng):
    model = random_model(rng, 5, 2, (2, 2))
    dataclasses.replace(collapse_to_plda(model))  # re-runs every model check
