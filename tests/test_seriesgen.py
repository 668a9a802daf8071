import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from helpers import gamma_ratio_weights, lag_autocorr
from tscausal.seriesgen import (
    CAUSAL,
    NON_CAUSAL,
    Kind,
    ProcessSpec,
    fractional_integration_weights,
    generate,
)


def ar_spec(lag=1, coeff=0.85, length=2000, **kw):
    return ProcessSpec(kind=Kind.AR, length=length, ar_terms=((lag, coeff),),
                       noise_variance=kw.pop("noise_variance", 0.01), **kw)


# ---------------------------------------------------------------------------
# fractional integration weights


def test_weights_start_at_one():
    assert fractional_integration_weights(0.3, 5)[0] == 1.0


def test_weights_d_zero_is_identity_filter():
    w = fractional_integration_weights(0.0, 10)
    assert w[0] == 1.0
    assert np.all(w[1:] == 0.0)


def test_weights_known_values():
    w = fractional_integration_weights(0.5, 3)
    np.testing.assert_allclose(w, [1.0, 0.5, 0.375], rtol=1e-15)
    # recursion for d=-0.4: w2 = w1 * (1 + d) / 2 = -0.4 * 0.6 / 2 = -0.12
    w = fractional_integration_weights(-0.4, 3)
    np.testing.assert_allclose(w, [1.0, -0.4, -0.12], rtol=1e-15)


@pytest.mark.parametrize("d", [-0.9, -0.5, -0.4, -0.1, 0.1, 0.3, 0.5, 0.9])
def test_weights_match_gamma_ratio(d):
    ours = fractional_integration_weights(d, 21)
    closed = gamma_ratio_weights(d, 21)
    np.testing.assert_allclose(ours, closed, rtol=1e-12)


@hypothesis.given(st.floats(min_value=-0.99, max_value=0.99), st.integers(2, 60))
def test_weights_magnitudes_never_increase_after_first(d, n):
    w = fractional_integration_weights(d, n)
    mags = np.abs(w[1:])
    assert np.all(np.isfinite(w))
    assert np.all(mags[1:] <= mags[:-1] + 1e-15)


def test_weights_negative_d_all_negative_tail():
    w = fractional_integration_weights(-0.3, 15)
    assert np.all(w[1:] < 0)


@pytest.mark.parametrize("bad_d", [1.0, -1.0, 1.5])
def test_weights_reject_bad_d(bad_d):
    with pytest.raises(ValueError):
        fractional_integration_weights(bad_d, 5)


def test_weights_reject_bad_n():
    with pytest.raises(ValueError):
        fractional_integration_weights(0.3, 0)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_zero_length():
    with pytest.raises(ValueError):
        ProcessSpec(kind=Kind.AR, length=0, ar_terms=((1, 0.5),))


def test_spec_rejects_ar_lag_below_one():
    with pytest.raises(ValueError):
        ProcessSpec(kind=Kind.AR, length=10, ar_terms=((0, 0.5),))


def test_spec_rejects_lag_beyond_length():
    with pytest.raises(ValueError):
        ProcessSpec(kind=Kind.AR, length=10, ar_terms=((11, 0.5),))


def test_spec_rejects_negative_ma_lag():
    with pytest.raises(ValueError):
        ProcessSpec(kind=Kind.ARMA, length=10, ma_terms=((-1, 1.0),))


def test_spec_rejects_bad_uniform_bounds():
    with pytest.raises(ValueError):
        ProcessSpec(kind=Kind.NOISE_UNIFORM, length=10, uniform_lo=1.0, uniform_hi=1.0)


def test_spec_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        ProcessSpec(kind=Kind.AR, length=10, ar_terms=((1, 0.5),), noise_variance=0.0)


def test_spec_rejects_large_arfima_d():
    with pytest.raises(ValueError):
        ProcessSpec(kind=Kind.ARFIMA, length=10, ma_terms=((0, 1.0),), d=1.0)


def test_spec_labels():
    assert ar_spec().label == CAUSAL
    assert ProcessSpec(kind=Kind.NOISE_NORMAL, length=10).label == NON_CAUSAL


# ---------------------------------------------------------------------------
# AR


def test_ar_deterministic_per_seed():
    a = generate(ar_spec(), 7).values
    b = generate(ar_spec(), 7).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, generate(ar_spec(), 8).values)


def test_ar_output_is_read_only():
    series = generate(ar_spec(), 1)
    with pytest.raises(ValueError):
        series.values[0] = 0.0


def test_ar_requires_matching_kind_and_terms():
    with pytest.raises(ValueError, match="at least one AR term"):
        ProcessSpec(kind=Kind.AR, length=10)
    with pytest.raises(ValueError, match="must not carry MA terms"):
        ProcessSpec(kind=Kind.AR, length=10, ar_terms=((1, 0.5),), ma_terms=((0, 1.0),))


def test_ar_rejects_nonstationary_single_lag():
    with pytest.raises(ValueError, match=r"\|a\| < 1"):
        ar_spec(coeff=1.0)
    with pytest.raises(ValueError, match=r"\|a\| < 1"):
        ProcessSpec(kind=Kind.ARMA, length=10, ar_terms=((1, -1.0),), ma_terms=((0, 1.0),))


def test_ar_divergent_dense_terms_reported():
    spec = ProcessSpec(kind=Kind.AR, length=2000,
                       ar_terms=((1, 1.2), (2, 0.5)), noise_variance=0.01)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        generate(spec, 0)


def test_ar_lag_autocorrelation_matches_coefficient():
    # for a single-lag process the autocorrelation at that lag equals the
    # coefficient; averaging over seeds pins the generator to the recursion
    acs = [lag_autocorr(generate(ar_spec(lag=5, coeff=0.85), seed).values, 5)
           for seed in range(120)]
    assert abs(float(np.mean(acs)) - 0.85) < 0.01


def test_ar_zero_coefficient_behaves_like_noise():
    # with a = 0 the recursion reduces to the innovation sequence
    sample = np.concatenate(
        [generate(ar_spec(lag=3, coeff=0.0, length=500), s).values for s in range(100)]
    )
    assert abs(sample.mean()) < 0.002
    assert abs(sample.var() - 0.01) < 0.0005
    assert abs(lag_autocorr(sample, 3)) < 0.01


def test_ar_variance_matches_stationary_theory():
    # var = sigma^2 / (1 - a^2) once the first 300 values of transient are discarded
    spec = ar_spec(lag=1, coeff=0.85, length=2000 + 300)
    var = np.mean([generate(spec, s).values[300:].var() for s in range(100)])
    assert abs(var - 0.01 / (1 - 0.85**2)) < 0.002


# ---------------------------------------------------------------------------
# ARMA / ARFIMA


def arma_spec(length=2000, **kw):
    return ProcessSpec(kind=Kind.ARMA, length=length, ar_terms=((2, 0.85),),
                       ma_terms=((0, 1.0), (3, 0.85)), noise_variance=0.01, **kw)


def test_arma_requires_instantaneous_term():
    for kind in (Kind.ARMA, Kind.ARFIMA):
        with pytest.raises(ValueError, match=r"\(0, 1\.0\)"):
            ProcessSpec(kind=kind, length=10, ar_terms=((1, 0.5),), ma_terms=((3, 0.85),))


def test_arma_deterministic_per_seed():
    assert np.array_equal(generate(arma_spec(), 11).values,
                          generate(arma_spec(), 11).values)


def test_pure_ma_noise_equivalence():
    # an MA spec with only the instantaneous term is the innovation sequence
    spec = ProcessSpec(kind=Kind.ARMA, length=1000, ma_terms=((0, 1.0),),
                       noise_variance=0.04)
    sample = np.concatenate([generate(spec, s).values for s in range(50)])
    assert abs(sample.var() - 0.04) < 0.002
    assert abs(lag_autocorr(sample, 1)) < 0.01


def test_arfima_d_zero_equals_arma_core():
    spec_arma = arma_spec()
    spec_arfima = ProcessSpec(kind=Kind.ARFIMA, length=2000, ar_terms=((2, 0.85),),
                              ma_terms=((0, 1.0), (3, 0.85)), noise_variance=0.01, d=0.0)
    assert np.array_equal(generate(spec_arma, 5).values,
                          generate(spec_arfima, 5).values)


def test_arfima_long_memory_slows_autocorr_decay():
    base = ProcessSpec(kind=Kind.ARMA, length=4000, ma_terms=((0, 1.0),),
                       noise_variance=0.01)
    frac = ProcessSpec(kind=Kind.ARFIMA, length=4000, ma_terms=((0, 1.0),),
                       noise_variance=0.01, d=0.45)
    far = np.mean([lag_autocorr(generate(frac, s).values, 50) for s in range(40)])
    near = np.mean([lag_autocorr(generate(base, s).values, 50) for s in range(40)])
    assert far > near + 0.1


def test_arfima_matches_manual_convolution():
    spec = ProcessSpec(kind=Kind.ARFIMA, length=300, ma_terms=((0, 1.0),),
                       noise_variance=1.0, d=0.3)
    got = generate(spec, 9).values
    rng = np.random.default_rng(9)
    eps = rng.normal(0.0, 1.0, 300)
    w = fractional_integration_weights(0.3, 300)
    np.testing.assert_array_equal(got, np.convolve(w, eps)[:300])


# ---------------------------------------------------------------------------
# noise


def test_noise_normal_moments():
    spec = ProcessSpec(kind=Kind.NOISE_NORMAL, length=2000, noise_variance=0.09)
    sample = np.concatenate([generate(spec, s).values for s in range(50)])
    assert abs(sample.mean()) < 0.003
    assert abs(sample.var() - 0.09) < 0.003


def test_noise_uniform_bounds_and_moments():
    spec = ProcessSpec(kind=Kind.NOISE_UNIFORM, length=2000,
                       uniform_lo=-0.6, uniform_hi=0.6)
    sample = np.concatenate([generate(spec, s).values for s in range(50)])
    assert sample.min() >= -0.6 and sample.max() < 0.6
    assert abs(sample.var() - 1.2**2 / 12) < 0.002


def test_noise_iid_has_no_serial_correlation():
    spec = ProcessSpec(kind=Kind.NOISE_NORMAL, length=2000, noise_variance=0.01)
    acs = [lag_autocorr(generate(spec, s).values, 1) for s in range(100)]
    assert abs(float(np.mean(acs))) < 0.005


# ---------------------------------------------------------------------------
# dispatch


@pytest.mark.parametrize("spec", [
    ar_spec(length=64),
    arma_spec(length=64),
    ProcessSpec(kind=Kind.ARFIMA, length=64, ma_terms=((0, 1.0),), d=0.2),
    ProcessSpec(kind=Kind.NOISE_NORMAL, length=64),
    ProcessSpec(kind=Kind.NOISE_UNIFORM, length=64),
])
def test_generate_dispatches_by_kind(spec):
    series = generate(spec, 123)
    assert series.values.size == 64
    assert series.label == spec.label
    assert series.seed == 123
    assert np.all(np.isfinite(series.values))


@hypothesis.given(
    st.integers(0, 2**63 - 1),
    st.integers(1, 20),
    st.floats(min_value=-0.95, max_value=0.95),
)
@hypothesis.settings(max_examples=25, deadline=None)
def test_generate_ar_is_finite_and_reproducible(seed, lag, coeff):
    spec = ar_spec(lag=lag, coeff=coeff, length=256)
    a = generate(spec, seed)
    assert np.all(np.isfinite(a.values))
    assert np.array_equal(a.values, generate(spec, seed).values)
