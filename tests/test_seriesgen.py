import dataclasses
import math
import re
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from helpers import exact_convolution, gamma_ratio_weights, lag_autocorr, scalar_series
from lifetimes import traced_peak
from tscausal import seriesgen
from tscausal.seriesgen import (
    Kind,
    ProcessSpec,
    fractional_integration_weights,
    generate,
    generate_many,
)


def ar_spec(lag=1, coeff=0.85, length=2000, **kw):
    return ProcessSpec(kind=Kind.AR, length=length, ar_terms=((lag, coeff),),
                       noise_variance=kw.pop("noise_variance", 0.01), **kw)


def sample(spec, n):
    """Values of ``spec`` at seeds 0..n-1, simulated as one batch, one per row."""
    return generate_many([spec] * n, range(n))


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


@pytest.mark.parametrize("d", [-0.49, -0.23, 0.31, 0.49])
def test_weights_of_a_long_series_match_exact_products(d):
    # the weights of a 2,000-value recipe series, against the exact product
    # of the exact ratios (j - 1 + d) / j, rounded once
    n = 2000
    exact, w = [1.0], Fraction(1)
    for j in range(1, n):
        w *= (j - 1 + Fraction(d)) / j
        exact.append(float(w))
    ours = fractional_integration_weights(d, n)
    np.testing.assert_allclose(ours, exact, rtol=n * np.finfo(np.float64).eps, atol=0)


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
    with pytest.raises(ValueError):
        fractional_integration_weights([0.3, bad_d], 5)


def test_weights_of_many_d_are_rows_of_single_d():
    ds = [-0.9, -0.3, 0.0, 0.3, 0.49]
    rows = fractional_integration_weights(ds, 40)
    assert rows.shape == (5, 40) and rows.flags.c_contiguous
    for d, row in zip(ds, rows):
        assert np.array_equal(row.view(np.uint64),
                              fractional_integration_weights(d, 40).view(np.uint64))


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
    with pytest.raises(ValueError, match="must be < 1, got nan"):
        ProcessSpec(kind=Kind.ARFIMA, length=10, ma_terms=((0, 1.0),), d=float("nan"))


@pytest.mark.parametrize("kind", [Kind.NOISE_NORMAL, Kind.NOISE_UNIFORM])
@pytest.mark.parametrize("field", [
    dict(ar_terms=((1, 0.5),)),
    dict(ma_terms=((0, 1.0),)),
    dict(d=0.3),
])
def test_noise_spec_rejects_process_fields(kind, field):
    with pytest.raises(ValueError, match=f"{kind.value} spec must"):
        ProcessSpec(kind=kind, length=10, **field)


@pytest.mark.parametrize("kind", [Kind.AR, Kind.ARMA])
def test_ar_and_arma_specs_reject_a_fractional_d(kind):
    ma = () if kind == Kind.AR else ((0, 1.0),)
    with pytest.raises(ValueError, match=f"{kind.value} spec must have d = 0, got 0.3"):
        ProcessSpec(kind=kind, length=10, ar_terms=((1, 0.5),), ma_terms=ma, d=0.3)


@pytest.mark.parametrize("kind, terms, error", [
    ("bogus", (), "'bogus' is not a valid Kind"),
    ("ar", ((1, 0.5),), None),
    ("noise_normal", ((1, 0.5),), "noise_normal spec must not carry AR or MA terms"),
], ids=["unknown", "ar", "noise-with-terms"])
def test_spec_takes_a_kind_by_its_value(kind, terms, error):
    if error:
        with pytest.raises(ValueError, match=error):
            ProcessSpec(kind=kind, length=5, ar_terms=terms)
    else:
        spec = ProcessSpec(kind=kind, length=5, ar_terms=terms)
        assert spec.kind is Kind.AR
        assert spec == ProcessSpec(kind=Kind.AR, length=5, ar_terms=terms)


# ---------------------------------------------------------------------------
# AR


def test_ar_deterministic_per_seed():
    a = generate(ar_spec(), 7)
    b = generate(ar_spec(), 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, generate(ar_spec(), 8))


def test_ar_output_is_read_only():
    series = generate(ar_spec(), 1)
    with pytest.raises(ValueError):
        series[0] = 0.0


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
    acs = [lag_autocorr(v, 5) for v in sample(ar_spec(lag=5, coeff=0.85), 120)]
    assert abs(float(np.mean(acs)) - 0.85) < 0.01


def test_ar_zero_coefficient_behaves_like_noise():
    # with a = 0 the recursion reduces to the innovation sequence
    values = np.concatenate(sample(ar_spec(lag=3, coeff=0.0, length=500), 100))
    assert abs(values.mean()) < 0.002
    assert abs(values.var() - 0.01) < 0.0005
    assert abs(lag_autocorr(values, 3)) < 0.01


def test_ar_variance_matches_stationary_theory():
    # var = sigma^2 / (1 - a^2) once the first 300 values of transient are discarded
    spec = ar_spec(lag=1, coeff=0.85, length=2000 + 300)
    var = np.mean([v[300:].var() for v in sample(spec, 100)])
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
    assert np.array_equal(generate(arma_spec(), 11), generate(arma_spec(), 11))


def test_pure_ma_noise_equivalence():
    # an MA spec with only the instantaneous term is the innovation sequence
    spec = ProcessSpec(kind=Kind.ARMA, length=1000, ma_terms=((0, 1.0),),
                       noise_variance=0.04)
    values = np.concatenate(sample(spec, 50))
    assert abs(values.var() - 0.04) < 0.002
    assert abs(lag_autocorr(values, 1)) < 0.01


def test_arfima_d_zero_equals_arma_core():
    spec_arma = arma_spec()
    spec_arfima = ProcessSpec(kind=Kind.ARFIMA, length=2000, ar_terms=((2, 0.85),),
                              ma_terms=((0, 1.0), (3, 0.85)), noise_variance=0.01, d=0.0)
    assert np.array_equal(generate(spec_arma, 5), generate(spec_arfima, 5))


def test_arfima_long_memory_slows_autocorr_decay():
    base = ProcessSpec(kind=Kind.ARMA, length=4000, ma_terms=((0, 1.0),),
                       noise_variance=0.01)
    frac = ProcessSpec(kind=Kind.ARFIMA, length=4000, ma_terms=((0, 1.0),),
                       noise_variance=0.01, d=0.45)
    far = np.mean([lag_autocorr(v, 50) for v in sample(frac, 40)])
    near = np.mean([lag_autocorr(v, 50) for v in sample(base, 40)])
    assert far > near + 0.1


def convolution_bound(w, x):
    """How far an ARFIMA row may lie from the exact convolution of its
    weights ``w`` with its core ``x``, in any output: 64 eps ||w||_2 ||x||_2.

    A size-N FFT convolution errs normwise by a small multiple of
    log2(N) eps ||w||_2 ||x||_2, 12 eps times the norms at N = 4096; by
    Cauchy-Schwarz a direct sum errs per output by at most n eps ||w||_2
    ||x||_2, far less in practice, since its rounding errors have mixed
    signs. A circular wrap-around errs by a whole term.
    """
    return 64 * np.finfo(np.float64).eps * np.linalg.norm(w) * np.linalg.norm(x)


def core_of(spec):
    """The ARMA spec whose series, from the same seed, is the core of an ARFIMA spec."""
    return dataclasses.replace(spec, kind=Kind.ARMA, d=0.0)


def test_arfima_matches_manual_convolution():
    spec = ProcessSpec(kind=Kind.ARFIMA, length=300, ma_terms=((0, 1.0),),
                       noise_variance=1.0, d=0.3)
    got = generate(spec, 9)
    rng = np.random.default_rng(9)
    eps = rng.normal(0.0, 1.0, 300)
    w = fractional_integration_weights(0.3, 300)
    assert np.abs(got - exact_convolution(w, eps)).max() <= convolution_bound(w, eps)


# 2,000 values, as the recipes draw them, and 1,025, whose full convolution
# of 2,049 values is one longer than a transform of 2,048 could hold
@pytest.mark.parametrize("length, ds", [
    (2000, np.linspace(-0.49, 0.49, 16)),
    (1025, [-0.49, -0.2, 0.3, 0.49]),
])
def test_fft_and_direct_convolutions_meet_the_exact_bound(length, ds):
    specs = [ProcessSpec(kind=Kind.ARFIMA, length=length, ar_terms=((1 + r % 7, 0.8),),
                         ma_terms=((0, 1.0), (2 + r % 3, 0.5)), d=d, noise_variance=0.01)
             for r, d in enumerate(ds)]
    seeds = range(300, 300 + len(specs))
    got = generate_many(specs, seeds)
    cores = generate_many([core_of(s) for s in specs], seeds)
    for row, spec, core in zip(got, specs, cores):
        w = fractional_integration_weights(spec.d, length)
        exact = exact_convolution(w, core)
        bound = convolution_bound(w, core)
        assert np.abs(row - exact).max() <= bound
        assert np.abs(np.convolve(w, core)[:length] - exact).max() <= bound


# ---------------------------------------------------------------------------
# noise


def test_noise_normal_moments():
    spec = ProcessSpec(kind=Kind.NOISE_NORMAL, length=2000, noise_variance=0.09)
    sample = np.concatenate([generate(spec, s) for s in range(50)])
    assert abs(sample.mean()) < 0.003
    assert abs(sample.var() - 0.09) < 0.003


def test_noise_uniform_bounds_and_moments():
    spec = ProcessSpec(kind=Kind.NOISE_UNIFORM, length=2000,
                       uniform_lo=-0.6, uniform_hi=0.6)
    sample = np.concatenate([generate(spec, s) for s in range(50)])
    assert sample.min() >= -0.6 and sample.max() < 0.6
    assert abs(sample.var() - 1.2**2 / 12) < 0.002


def test_noise_iid_has_no_serial_correlation():
    spec = ProcessSpec(kind=Kind.NOISE_NORMAL, length=2000, noise_variance=0.01)
    acs = [lag_autocorr(generate(spec, s), 1) for s in range(100)]
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
    assert series.shape == (64,)
    assert np.all(np.isfinite(series))


@hypothesis.given(
    st.integers(0, 2**63 - 1),
    st.integers(1, 20),
    st.floats(min_value=-0.95, max_value=0.95),
)
@hypothesis.settings(max_examples=25, deadline=None)
def test_generate_ar_is_finite_and_reproducible(seed, lag, coeff):
    spec = ar_spec(lag=lag, coeff=coeff, length=256)
    a = generate(spec, seed)
    assert np.all(np.isfinite(a))
    assert np.array_equal(a, generate(spec, seed))


# ---------------------------------------------------------------------------
# batched simulation against the scalar oracle

# few lengths and at most two terms of each sort, so that specs of one kind
# often share a run; a lag may equal the length (start == length)
LENGTHS = (1, 2, 7, 16)
COEFFS = st.floats(-0.95, 0.95)


@st.composite
def specs(draw, length):
    kind = draw(st.sampled_from(list(Kind)))
    noise = dict(noise_mean=draw(st.floats(-1.0, 1.0)),
                 noise_variance=draw(st.floats(0.01, 2.0)))
    if kind == Kind.NOISE_NORMAL:
        return ProcessSpec(kind=kind, length=length, **noise)
    if kind == Kind.NOISE_UNIFORM:
        lo = draw(st.floats(-1.0, 1.0))
        return ProcessSpec(kind=kind, length=length, uniform_lo=lo,
                           uniform_hi=lo + draw(st.floats(0.1, 2.0)))
    ar_terms = draw(st.lists(st.tuples(st.integers(1, length), COEFFS),
                             min_size=1 if kind == Kind.AR else 0, max_size=2))
    if kind == Kind.AR:
        return ProcessSpec(kind=kind, length=length, ar_terms=ar_terms, **noise)
    extra = draw(st.lists(st.tuples(st.integers(0, length), COEFFS), max_size=2))
    at = draw(st.integers(0, len(extra)))
    ma_terms = [*extra[:at], (0, 1.0), *extra[at:]]
    d = draw(st.floats(-0.9, 0.9)) if kind == Kind.ARFIMA else 0.0
    return ProcessSpec(kind=kind, length=length, ar_terms=ar_terms, ma_terms=ma_terms,
                       d=d, **noise)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_matches_oracle(batch, seeds):
    """Every row of the batch equals the scalar oracle's series bit for bit,
    except ARFIMA rows, which lie within ``convolution_bound`` of it."""
    got = generate_many(batch, seeds)
    assert got.shape == (len(batch), batch[0].length)
    assert not got.flags.writeable
    for row, spec, seed in zip(got, batch, seeds):
        want = scalar_series(spec, seed)
        if spec.kind == Kind.ARFIMA:
            w = fractional_integration_weights(spec.d, spec.length)
            bound = convolution_bound(w, scalar_series(core_of(spec), seed))
            assert np.abs(row - want).max() <= bound
        else:
            assert np.array_equal(bits(row), bits(want))


# each batch shares one length, as generate_many requires
BATCHES = st.sampled_from(LENGTHS).flatmap(lambda length: st.lists(
    st.tuples(specs(length), st.integers(0, 2**64 - 1)), min_size=1, max_size=12))


@hypothesis.given(BATCHES)
@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.example([
    # one AR run whose rows start at 1, 3 and 7 == length, and one row of
    # every other kind
    (ProcessSpec(kind=Kind.AR, length=7, ar_terms=((1, 0.5),)), 1),
    (ProcessSpec(kind=Kind.AR, length=7, ar_terms=((3, -0.9),)), 2),
    (ProcessSpec(kind=Kind.AR, length=7, ar_terms=((7, 0.9),)), 3),
    (ProcessSpec(kind=Kind.ARMA, length=7, ar_terms=((2, 0.4),),
                 ma_terms=((7, 0.3), (0, 1.0))), 4),
    (ProcessSpec(kind=Kind.ARFIMA, length=7, ar_terms=((1, 0.4),),
                 ma_terms=((0, 1.0), (2, 0.3)), d=0.4), 5),
    (ProcessSpec(kind=Kind.NOISE_NORMAL, length=7), 6),
    (ProcessSpec(kind=Kind.NOISE_UNIFORM, length=7), 7),
])
@hypothesis.example([
    # a shared-lag run: both rows start at 3 and advance 3 steps at a
    # time, so the last of its 13 steps is a block cut short
    (ProcessSpec(kind=Kind.AR, length=16, ar_terms=((3, 0.5),)), 2**64 - 1),
    (ProcessSpec(kind=Kind.AR, length=16, ar_terms=((3, -0.9),), noise_mean=0.5), 2**32),
    (ProcessSpec(kind=Kind.ARMA, length=16, ar_terms=((3, 0.4),),
                 ma_terms=((0, 1.0), (5, 0.3))), 0),
])
@hypothesis.example([
    # two pure-AR runs, simulated in place, that mix lags 1 and 20: until
    # step 20 a row starting there reads its initial values as its noise and
    # drops what it computes from them
    (ProcessSpec(kind=Kind.AR, length=24, ar_terms=((1, 0.5),)), 11),
    (ProcessSpec(kind=Kind.AR, length=24, ar_terms=((20, -0.9),), noise_mean=0.5), 12),
    (ProcessSpec(kind=Kind.AR, length=24, ar_terms=((1, 0.9),), noise_variance=2.0), 13),
    (ProcessSpec(kind=Kind.AR, length=24, ar_terms=((20, 0.3),)), 14),
    (ProcessSpec(kind=Kind.AR, length=24, ar_terms=((1, 0.3), (20, 0.5))), 15),
    (ProcessSpec(kind=Kind.AR, length=24, ar_terms=((20, -0.4), (1, 0.2))), 16),
])
@hypothesis.example([
    # one key split into several runs: AR lag 1 and lag 3 share a key with
    # AR lag 2 after other kinds come between, and white-noise runs lie
    # between and after the others
    (ProcessSpec(kind=Kind.AR, length=12, ar_terms=((1, 0.5),)), 21),
    (ProcessSpec(kind=Kind.NOISE_NORMAL, length=12, noise_mean=0.5), 22),
    (ProcessSpec(kind=Kind.AR, length=12, ar_terms=((3, -0.9),)), 23),
    (ProcessSpec(kind=Kind.NOISE_UNIFORM, length=12, uniform_lo=-1.0), 24),
    (ProcessSpec(kind=Kind.NOISE_NORMAL, length=12, noise_variance=2.0), 25),
    (ProcessSpec(kind=Kind.ARMA, length=12, ar_terms=((2, 0.4),),
                 ma_terms=((0, 1.0), (4, 0.3))), 26),
    (ProcessSpec(kind=Kind.AR, length=12, ar_terms=((2, 0.7),)), 27),
])
def test_generate_many_equals_the_scalar_oracle_bit_for_bit(pairs):
    batch, seeds = [list(x) for x in zip(*pairs)]
    assert_matches_oracle(batch, seeds)
    for spec, seed in pairs:
        assert_matches_oracle([spec], [seed])


@pytest.mark.parametrize("kind", [Kind.AR, Kind.ARMA, Kind.ARFIMA])
def test_generate_many_names_the_kind_of_a_divergent_series(kind):
    ma = () if kind == Kind.AR else ((0, 1.0),)
    d = 0.3 if kind == Kind.ARFIMA else 0.0
    tame = ProcessSpec(kind=kind, length=2000, ar_terms=((1, 0.5), (2, 0.3)),
                       ma_terms=ma, d=d, noise_variance=0.01)
    # at seed 2 an AR or ARMA row runs to +inf, or with a negative mean to
    # -inf, and an ARFIMA row to NaN
    for mean in (0.0, -1.0):
        dense = ProcessSpec(kind=kind, length=2000, ar_terms=((1, 1.2), (2, 0.5)),
                            ma_terms=ma, d=d, noise_mean=mean, noise_variance=0.01)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(scalar_series(dense, 2)))
            with pytest.raises(ValueError, match=f"non-finite values \\(kind={kind.value}\\)"):
                generate_many([tame, dense, ar_spec()], [1, 2, 3])


@pytest.mark.parametrize("kind", ["ar", "white_noise"])
def test_an_ar_or_white_noise_run_allocates_no_noise_matrix(kind):
    # the noise is drawn into the output's rows; a (k, length) noise matrix
    # beside them would take the traced peak to 2.05x the output
    if kind == "ar":
        batch = [ar_spec(lag=1 if i % 2 else 20, length=500) for i in range(1000)]
    else:
        batch = [ProcessSpec(kind=Kind.NOISE_UNIFORM if i < 500 else Kind.NOISE_NORMAL, length=500)
                 for i in range(1000)]
    generate_many(batch[:2], [0, 1])  # first-use state
    out_bytes = len(batch) * 500 * 8
    peak = traced_peak(generate_many, batch, range(len(batch)))
    # measured 1.05x (AR) and 1.04x (white noise): the output and small blocks
    assert peak < 1.1 * out_bytes, f"traced peak is {peak / out_bytes:.2f}x the output"


def test_generate_many_requires_one_seed_per_spec():
    with pytest.raises(ValueError, match="2 specs but 1 seeds"):
        generate_many([ar_spec(), ar_spec()], [1])


def test_generate_many_requires_one_length():
    with pytest.raises(ValueError, match=re.escape("one length, got lengths [64, 2000]")):
        generate_many([ar_spec(), ar_spec(length=64)], [1, 2])
    with pytest.raises(ValueError, match=re.escape("one length, got lengths []")):
        generate_many([], [])


def test_build_dataset_shaped_batch_equals_the_oracle():
    # full-length specs as the recipes draw them: mixed lags within one run
    batch = [ar_spec(lag=lag, coeff=0.8 + lag / 200) for lag in (1, 20, 7, 13)]
    batch += [ProcessSpec(kind=Kind.ARFIMA, length=2000, ar_terms=((lag, 0.85),),
                          ma_terms=((0, 1.0), (21 - lag, 0.8)), d=lag / 50 - 0.2,
                          noise_variance=0.01) for lag in (3, 18)]
    assert_matches_oracle(batch, list(range(100, 100 + len(batch))))


# ---------------------------------------------------------------------------
# one generator, re-pointed to each seed's stream


def assert_streams_are_default_rng(seeds):
    """Each stream of ``streams(seeds)`` starts in the state of
    ``np.random.default_rng(seed)`` and draws what it draws."""
    words = seriesgen.seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    for seed, row, rng in zip(seeds, words, seriesgen.streams(seeds), strict=True):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))
        want = np.random.default_rng(seed)
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(bits(rng.normal(0.5, 2.0, 7)), bits(want.normal(0.5, 2.0, 7)))
        assert rng.integers(0, 2**63) == want.integers(0, 2**63)
        assert rng.uniform() == want.uniform()


def test_streams_equal_default_rng_at_the_word_edges():
    assert_streams_are_default_rng([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1])


@hypothesis.given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
@hypothesis.settings(max_examples=100, deadline=None)
def test_streams_equal_default_rng(seeds):
    assert_streams_are_default_rng(seeds)


def test_streams_re_point_one_generator():
    gens = list(seriesgen.streams(range(5)))
    assert all(g is gens[0] for g in gens)
    assert list(seriesgen.streams([])) == []
    assert seriesgen.seed_words([]).shape == (0, 4)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_a_seed_outside_64_bits_is_refused_with_its_row(bad):
    with pytest.raises(ValueError, match=re.escape(f"seed must lie in [0, 2**64), got {bad} at row 2")):
        seriesgen.seed_words([0, 2**64 - 1, bad])
    with pytest.raises(ValueError, match=re.escape(f"got {bad} at row 2")):
        next(seriesgen.streams([0, 2**64 - 1, bad]))
    with pytest.raises(ValueError, match=re.escape(f"got {bad} at row 1")):
        generate_many([ar_spec(), ar_spec()], [3, bad])
    with pytest.raises(ValueError, match=re.escape(f"got {bad} at row 2")):
        generate_many([ar_spec(), ProcessSpec(kind=Kind.NOISE_NORMAL, length=2000), ar_spec()],
                      [3, 4, bad])


# ---------------------------------------------------------------------------
# ARFIMA convolutions, FFT_BLOCK_ROWS rows at a time


def test_arfima_rows_do_not_depend_on_their_batch():
    # FFT_BLOCK_ROWS + 3 rows at offsets 0 and 5 move every row within its
    # block, and put some rows on either side of a block edge
    rows = seriesgen.FFT_BLOCK_ROWS + 3
    pool = [ProcessSpec(kind=Kind.ARFIMA, length=300, ar_terms=((1 + r % 5, 0.85),),
                        ma_terms=((0, 1.0), (3 + r % 11, 0.8)),
                        d=0.0 if r == 7 else 0.98 * r / (rows + 4) - 0.49, noise_variance=0.01)
            for r in range(rows + 5)]
    seeds = list(range(50, 50 + len(pool)))
    alone = np.array([bits(generate(spec, seed)) for spec, seed in zip(pool, seeds)])
    assert np.array_equal(bits(generate_many(pool[::-1], seeds[::-1]))[::-1], alone)
    for offset in (0, 5):
        got = generate_many(pool[offset:offset + rows], seeds[offset:offset + rows])
        assert np.array_equal(bits(got), alone[offset:offset + rows])


def arfima_batch(rows):
    """``rows`` ARFIMA specs in one run, each with its own lags and d, between
    two AR specs, so that the run's rows lie inside the output."""
    return [ar_spec(length=500), *(
        ProcessSpec(kind=Kind.ARFIMA, length=500, ar_terms=((1 + r % 5, 0.85),),
                    ma_terms=((0, 1.0), (3 + r, 0.8)), d=r / rows - 0.45, noise_variance=0.01)
        for r in range(rows)), ar_spec(length=500)]


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_arfima_chunking_changes_no_bit(monkeypatch, rows):
    # 1 and 2 rows: fewer rows than a block of 3; 5: a last block cut short
    batch = arfima_batch(rows)
    seeds = list(range(50, 50 + len(batch)))
    got = []
    for fft_rows in (1, 2, 3):
        monkeypatch.setattr(seriesgen, "FFT_BLOCK_ROWS", fft_rows)
        got.append(bits(generate_many(batch, seeds)))
    first, *rest = got
    assert all(np.array_equal(first, other) for other in rest)
    for row, spec, seed in zip(first, batch, seeds):
        assert np.array_equal(row, bits(generate(spec, seed)))


def test_fractional_integration_temporaries_are_one_fft_block():
    length, rows = 2000, 600
    core = np.random.default_rng(3).normal(size=(rows, length))
    d = list(np.linspace(-0.45, 0.45, rows))
    peak = traced_peak(seriesgen._fractionally_integrate, core, d)
    weights = seriesgen.FFT_BLOCK_ROWS * length * 8
    size = 1 << (2 * length - 2).bit_length()
    spectrum = seriesgen.FFT_BLOCK_ROWS * (size // 2 + 1) * 16
    # a block's spectra are dropped before the next block makes its weights:
    # measured 1.52 block spectra beside the weights, 2.10 MB in all at this
    # length (1.63 and 2.23 MB on a first call, which also plans the FFT),
    # where the whole run's weights alone take 9.6 MB; 2.12 and 2.74 MB
    # while the last block's spectra lived on
    assert peak - weights < 2.0 * spectrum, \
        f"temporaries beside the weights are {(peak - weights) / spectrum:.2f} block spectra"
    assert peak < 2.5e6, f"temporaries take {peak / 1e6:.2f} MB"
