import warnings

import hypothesis
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest

from helpers import naive_dft_amplitudes
from tscausal.spectral import (
    DEFAULT_HEADROOM,
    MinMaxScaler,
    amplitude_spectra,
    apply_scaler,
    demean,
    fit_scaler,
    scale_per_instance,
)

finite_arrays = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=128
).map(np.array)


# ---------------------------------------------------------------------------
# amplitude spectrum


def test_spectrum_matches_naive_dft():
    m = np.random.default_rng(0).normal(size=(5, 64))
    amps = amplitude_spectra(m)
    for x, row in zip(m, amps):
        np.testing.assert_allclose(row, naive_dft_amplitudes(x), rtol=0, atol=1e-9)


def test_spectrum_bin_count_and_source_length():
    assert amplitude_spectra(np.ones((3, 2000))).shape == (3, 1001)
    assert amplitude_spectra(np.ones((3, 2001))).shape == (3, 1001)


def test_constant_series_has_only_dc():
    amps = amplitude_spectra(np.full((1, 64), 3.0))[0]
    assert amps[0] == pytest.approx(64 * 3.0)
    np.testing.assert_allclose(amps[1:], 0.0, atol=1e-12)


def test_impulse_has_flat_spectrum():
    x = np.zeros((1, 64))
    x[0, 0] = 1.0
    np.testing.assert_allclose(amplitude_spectra(x), 1.0, atol=1e-12)


def test_pure_sine_concentrates_in_one_bin():
    n, k = 256, 17
    x = np.sin(2 * np.pi * k * np.arange(n) / n)
    amps = amplitude_spectra(x[None])[0]
    assert int(np.argmax(amps)) == k
    assert amps[k] == pytest.approx(n / 2)
    mask = np.ones(amps.size, dtype=bool)
    mask[k] = False
    assert amps[mask].max() < 1e-9


@hypothesis.given(finite_arrays)
def test_parseval_identity(x):
    # sum x^2 == (|X0|^2 + 2 sum |Xk|^2 - [n even] |X_{n/2}|^2) / n
    amps = amplitude_spectra(x[None])[0]
    n = x.size
    power = amps[0] ** 2 + 2 * np.sum(amps[1:] ** 2)
    if n % 2 == 0:
        power -= amps[-1] ** 2
    lhs = float(np.sum(x**2))
    assert abs(lhs - power / n) <= 1e-9 * max(lhs, 1.0)


def test_spectrum_rejects_bad_input():
    for shape in [(8,), (3, 1), (2, 3, 4)]:
        with pytest.raises(ValueError, match="2-D with at least 2 columns"):
            amplitude_spectra(np.ones(shape))


def test_batch_rejects_bad_input():
    with pytest.raises(ValueError, match="row 0"):
        amplitude_spectra(np.full((2, 3), np.inf))


@pytest.mark.parametrize(
    "entries",
    [{5: np.nan}, {5: np.inf}, {5: -np.inf}, {5: np.inf, 9: -np.inf},
     dict.fromkeys(range(64), 1e308)],
    ids=["nan", "inf", "-inf", "inf-and-minus-inf", "finite-1e308-row"],
)
def test_a_row_with_a_non_finite_spectrum_is_refused_by_name(entries):
    # a non-finite input value makes its row's DC bin non-finite, so the
    # check on the spectra refuses everything a check on the series would,
    # and also a finite row whose transform overflows
    m = np.random.default_rng(4).normal(size=(5, 64))
    for column, value in entries.items():
        m[3, column] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"non-finite amplitude spectrum at row 3\b"):
            amplitude_spectra(m)


def test_demean_removes_dc_bin():
    rng = np.random.default_rng(2)
    m = rng.normal(loc=5.0, size=(4, 50))
    centered = demean(m)
    np.testing.assert_allclose(centered.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(amplitude_spectra(centered)[:, 0], 0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# scaling


def test_fit_scaler_maps_train_into_unit_interval():
    rng = np.random.default_rng(3)
    train = rng.uniform(5.0, 9.0, size=(20, 7))
    scaler = fit_scaler(train)
    scaled = apply_scaler(scaler, train)
    assert scaled.min() == 0.0
    assert scaled.max() == pytest.approx(1.0 - DEFAULT_HEADROOM)
    col = (train[:, 2] - train[:, 2].min()) / (train[:, 2].max() - train[:, 2].min())
    np.testing.assert_allclose(scaled[:, 2], np.minimum(col, 1.0 - DEFAULT_HEADROOM))


def test_apply_scaler_clips_out_of_range_values():
    scaler = fit_scaler(np.array([[0.0, 10.0], [1.0, 20.0]]))
    out = apply_scaler(scaler, np.array([[-5.0, 30.0]]))
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0 - DEFAULT_HEADROOM


def test_constant_training_feature_maps_to_zero():
    train = np.column_stack([np.full(10, 4.0), np.arange(10.0)])
    out = apply_scaler(fit_scaler(train), train)
    np.testing.assert_array_equal(out[:, 0], 0.0)


def test_apply_scaler_checks_dimension():
    scaler = fit_scaler(np.ones((3, 4)))
    with pytest.raises(ValueError):
        apply_scaler(scaler, np.ones((2, 5)))


def test_fit_scaler_validates_input():
    with pytest.raises(ValueError):
        fit_scaler(np.ones(5))
    with pytest.raises(ValueError):
        fit_scaler(np.empty((0, 3)))
    with pytest.raises(ValueError):
        fit_scaler(np.ones((2, 2)), headroom=0.5)
    with pytest.raises(ValueError):
        fit_scaler(np.ones((2, 2)), headroom=0.0)


def test_scaler_guards_inverted_bounds():
    with pytest.raises(ValueError):
        MinMaxScaler(minimum=np.array([1.0]), maximum=np.array([0.0]))


@hypothesis.given(
    st.lists(
        st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=4, max_size=4),
        min_size=1,
        max_size=12,
    ).map(np.array)
)
def test_scale_per_instance_stays_in_domain(m):
    out = scale_per_instance(m)
    assert out.shape == m.shape
    assert out.min() >= 0.0
    assert out.max() <= 1.0 - DEFAULT_HEADROOM


def test_scale_per_instance_is_row_local():
    m = np.array([[0.0, 5.0, 10.0], [100.0, 150.0, 200.0]])
    out = scale_per_instance(m)
    expected = np.minimum([0.0, 0.5, 1.0], 1.0 - DEFAULT_HEADROOM)
    np.testing.assert_allclose(out[0], expected)
    np.testing.assert_allclose(out[1], expected)


def test_scale_per_instance_constant_row_is_zero():
    out = scale_per_instance(np.array([[2.0, 2.0, 2.0]]))
    np.testing.assert_array_equal(out, 0.0)


def test_scale_per_instance_requires_matrix():
    with pytest.raises(ValueError):
        scale_per_instance(np.ones(4))


@hypothesis.given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 12)),
        elements=st.one_of(st.floats(min_value=-1e9, max_value=1e9), st.sampled_from([0.0, 2.5])),
    )
)
def test_per_instance_scaling_is_a_fitted_scaler_on_each_row(m):
    # one min-max kernel behind both entry points: bit-identical results
    out = scale_per_instance(m)
    for i in range(m.shape[0]):
        column = m[i][:, None]
        fitted = apply_scaler(fit_scaler(column), column).ravel()
        np.testing.assert_array_equal(out[i].view(np.uint64), fitted.view(np.uint64))
