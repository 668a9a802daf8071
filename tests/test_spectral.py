import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from helpers import naive_dft_amplitudes
from tscausal.spectral import (
    DEFAULT_HEADROOM,
    MinMaxScaler,
    Spectrum,
    amplitude_spectra,
    amplitude_spectrum,
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
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=64)
        np.testing.assert_allclose(
            amplitude_spectrum(x).amplitudes, naive_dft_amplitudes(x),
            rtol=0, atol=1e-9,
        )


def test_spectrum_bin_count_and_source_length():
    spec = amplitude_spectrum(np.arange(2000.0))
    assert spec.amplitudes.shape == (1001,)
    assert spec.source_length == 2000


def test_constant_series_has_only_dc():
    amps = amplitude_spectrum(np.full(64, 3.0)).amplitudes
    assert amps[0] == pytest.approx(64 * 3.0)
    np.testing.assert_allclose(amps[1:], 0.0, atol=1e-12)


def test_impulse_has_flat_spectrum():
    x = np.zeros(64)
    x[0] = 1.0
    np.testing.assert_allclose(amplitude_spectrum(x).amplitudes, 1.0, atol=1e-12)


def test_pure_sine_concentrates_in_one_bin():
    n, k = 256, 17
    x = np.sin(2 * np.pi * k * np.arange(n) / n)
    amps = amplitude_spectrum(x).amplitudes
    assert int(np.argmax(amps)) == k
    assert amps[k] == pytest.approx(n / 2)
    mask = np.ones(amps.size, dtype=bool)
    mask[k] = False
    assert amps[mask].max() < 1e-9


@hypothesis.given(finite_arrays)
def test_parseval_identity(x):
    # sum x^2 == (|X0|^2 + 2 sum |Xk|^2 - [n even] |X_{n/2}|^2) / n
    amps = amplitude_spectrum(x).amplitudes
    n = x.size
    power = amps[0] ** 2 + 2 * np.sum(amps[1:] ** 2)
    if n % 2 == 0:
        power -= amps[-1] ** 2
    lhs = float(np.sum(x**2))
    assert abs(lhs - power / n) <= 1e-9 * max(lhs, 1.0)


def test_spectrum_rejects_bad_input():
    with pytest.raises(ValueError):
        amplitude_spectrum(np.array([1.0]))
    with pytest.raises(ValueError):
        amplitude_spectrum(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        amplitude_spectrum(np.ones((3, 4)))


def test_spectrum_shape_guard():
    with pytest.raises(ValueError):
        Spectrum(amplitudes=np.ones(5), source_length=64)


def test_batch_matches_single_rows():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(6, 100))
    batch = amplitude_spectra(m)
    assert batch.shape == (6, 51)
    for i in range(6):
        np.testing.assert_array_equal(batch[i], amplitude_spectrum(m[i]).amplitudes)


def test_batch_rejects_bad_input():
    with pytest.raises(ValueError):
        amplitude_spectra(np.ones(8))
    with pytest.raises(ValueError):
        amplitude_spectra(np.full((2, 3), np.inf))


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
