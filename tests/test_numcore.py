import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from remix.datamodel import MULTI, PersonSample, save_dataset
from remix.encoder import OptimizerState, init_params, save_checkpoint
from remix.errors import NonFiniteEvaluationError, ZeroVectorError
from remix.numcore import finite_diff_grad, normalize, normalize_rows, substream

vectors = hnp.arrays(
    np.float64, st.integers(2, 16),
    elements=st.floats(-10, 10, allow_nan=False),
).filter(lambda v: np.linalg.norm(v) > 1e-6)


def test_substream_reproducible():
    a = substream(7, "sampler").standard_normal(5)
    b = substream(7, "sampler").standard_normal(5)
    assert np.array_equal(a, b)


def test_substream_names_are_independent():
    a = substream(7, "sampler").standard_normal(5)
    b = substream(7, "augment").standard_normal(5)
    assert not np.array_equal(a, b)


def test_substream_seeds_differ():
    assert not np.array_equal(
        substream(0, "init").standard_normal(4),
        substream(1, "init").standard_normal(4),
    )


@given(vectors)
def test_normalize_unit_norm(v):
    assert np.linalg.norm(normalize(v)) == pytest.approx(1.0)


@given(vectors)
def test_normalize_preserves_direction(v):
    u = normalize(v)
    assert np.dot(u, v) == pytest.approx(np.linalg.norm(v))


def test_normalize_zero_raises():
    with pytest.raises(ZeroVectorError):
        normalize(np.zeros(4))


def test_normalize_rows_matches_scalar_path():
    rng = substream(3, "init")
    x = rng.standard_normal((6, 5))
    out = normalize_rows(x)
    for i in range(6):
        assert np.allclose(out[i], normalize(x[i]))


def test_normalize_rows_degenerate_row():
    x = np.ones((3, 4))
    x[1] = 0.0
    with pytest.raises(ZeroVectorError):
        normalize_rows(x)


@settings(deadline=None)
@given(st.integers(0, 1000))
def test_finite_diff_quadratic(seed):
    rng = substream(seed, "gradcheck")
    a = rng.standard_normal((4, 4))
    a = a + a.T
    x = rng.standard_normal(4)
    b = rng.standard_normal(4)
    grad = finite_diff_grad(lambda v: 0.5 * float(v @ a @ v), x)
    assert np.allclose(grad, a @ x, atol=1e-6)
    # an array-valued function: the gradient of each value, x's axes first
    grads = finite_diff_grad(lambda v: np.array([0.5 * v @ a @ v, b @ v]), x)
    assert grads.shape == (4, 2)
    assert np.allclose(grads, np.column_stack([a @ x, b]), atol=1e-6)


def test_finite_diff_bad_step():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda v: 0.0, np.zeros(2), h=0.0)


def test_finite_diff_nonfinite():
    # a scalar, and one entry of an array-valued function
    for value in (float("nan"), np.array([1.0, np.nan])):
        with pytest.raises(NonFiniteEvaluationError):
            finite_diff_grad(lambda v: value, np.zeros(2))


def _write(kind, path, broken):
    """Write one artifact; broken puts an unserialisable value in it, so
    the dump fails part-way."""
    value = object() if broken else 1
    if kind == "checkpoint":
        p = init_params(4, [3], 2, substream(0, "init"))
        save_checkpoint(path, {"extra": value}, 0, p, p,
                        OptimizerState.for_params(p))
    else:
        samples = [PersonSample(i, np.ones(3), 0, 0, MULTI, None, i)
                   for i in range(3)]
        samples[-1].hidden_identity = value
        save_dataset(path, samples, 3)


# the report case is test_evalkit's test_write_report
@pytest.mark.parametrize("kind", ["checkpoint", "dataset"])
def test_failed_write_keeps_previous_file(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    _write(kind, path, broken=False)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        _write(kind, path, broken=True)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]
