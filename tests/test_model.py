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
    stack_w,
)

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
    assert dataclasses.replace(model, mu=np.ones(4)).diagonal_noise


def test_validate_rejects_row_mismatch():
    # one d in the file header: a row mismatch cannot be written to a file
    assert_rejected(None, DimensionMismatch, U=(np.zeros((2, 1)),))


def test_validate_rejects_indefinite_precision(tmp_path):
    assert_rejected(tmp_path, NotPositiveDefinite, D=np.diag([1.0, -1.0, 1.0]))


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
    dataclasses.replace(collapse_to_plda(model))  # re-runs every model check
