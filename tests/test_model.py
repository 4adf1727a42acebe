import numpy as np
import pytest

from jplda import (
    DimensionMismatch,
    ModelParams,
    NonFinite,
    NotPositiveDefinite,
    NotSymmetric,
    collapse_to_plda,
    stack_w,
    validate,
)

from conftest import random_model


def test_validate_accepts_identity_precision():
    model = ModelParams(
        mu=np.zeros(4),
        V=np.zeros((4, 2)),
        U=(np.zeros((4, 1)), np.zeros((4, 3))),
        D=np.eye(4),
    )
    validate(model)


def test_validate_rejects_row_mismatch():
    model = ModelParams(
        mu=np.zeros(5),
        V=np.zeros((5, 2)),
        U=(np.zeros((4, 1)),),
        D=np.eye(5),
    )
    with pytest.raises(DimensionMismatch):
        validate(model)


def test_validate_rejects_indefinite_precision():
    model = ModelParams(mu=np.zeros(2), V=np.zeros((2, 1)), U=(), D=np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        validate(model)


def test_validate_rejects_asymmetric_precision():
    d = np.eye(2)
    d[0, 1] = 1e-3
    model = ModelParams(mu=np.zeros(2), V=np.zeros((2, 1)), U=(), D=d)
    with pytest.raises(NotSymmetric):
        validate(model)


def test_validate_rejects_empty_condition_subspace():
    model = ModelParams(mu=np.zeros(2), V=np.zeros((2, 1)), U=(np.zeros((2, 0)),), D=np.eye(2))
    with pytest.raises(DimensionMismatch):
        validate(model)


def nan_in(name):
    """A 3-d model with one NaN in the parameter called ``name``."""
    arrays = {"mu": np.zeros(3), "V": np.ones((3, 1)), "U[0]": np.ones((3, 2)), "D": np.eye(3)}
    arrays[name].flat[0] = np.nan
    return ModelParams(mu=arrays["mu"], V=arrays["V"], U=(arrays["U[0]"],), D=arrays["D"])


def test_validate_rejects_nan_mean():
    with pytest.raises(NonFinite, match=r"^mu "):
        validate(nan_in("mu"))


def test_validate_rejects_nan_speaker_subspace():
    with pytest.raises(NonFinite, match=r"^V "):
        validate(nan_in("V"))


def test_validate_rejects_nan_condition_subspace():
    with pytest.raises(NonFinite, match=r"^U\[0\] "):
        validate(nan_in("U[0]"))


def test_validate_rejects_nan_noise_precision():
    with pytest.raises(NonFinite, match=r"^D "):
        validate(nan_in("D"))


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


def test_collapse_matches_direct_covariance_arithmetic(rng):
    # oracle: build D^-1 + sum U U^T directly and compare covariances
    for _ in range(10):
        d = int(rng.integers(1, 6))
        model = random_model(rng, d, int(rng.integers(0, 3)), (1, 2))
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
    validate(collapse_to_plda(model))
