"""Seeded simulation of causal and non-causal time series.

Causal series come from autoregressive families (AR, ARMA, ARFIMA) where the
present value depends linearly on past values; ARFIMA is Hosking's fractional
differencing (Biometrika, 1981) applied to an ARMA core. Non-causal series are
i.i.d. draws from a normal or uniform distribution. ``ProcessSpec`` decides
whether a process is valid, so a bad spec fails when it is built, and
``generate`` is the one simulation entry point: a pure function of (spec,
seed) whose output is bit-identical for the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

GENERATOR_NAME = "numpy.random.Generator(PCG64)"


class Kind(str, Enum):
    AR = "ar"
    ARMA = "arma"
    ARFIMA = "arfima"
    NOISE_NORMAL = "noise_normal"
    NOISE_UNIFORM = "noise_uniform"


CAUSAL_KINDS = frozenset({Kind.AR, Kind.ARMA, Kind.ARFIMA})

NON_CAUSAL = 0
CAUSAL = 1


@dataclass(frozen=True)
class ProcessSpec:
    """Parametric description of one stochastic process.

    ``ar_terms`` and ``ma_terms`` are sparse (lag, coefficient) pairs. An AR
    spec needs at least one AR term and no MA terms; an ARMA/ARFIMA spec must
    carry the instantaneous noise term (0, 1.0) in ``ma_terms``. A single AR
    term needs |a| < 1; dense term lists are only guarded by the finiteness
    check in ``generate``. ``d`` is the fractional difference parameter and is
    only meaningful for ARFIMA. Noise is Normal(noise_mean, noise_variance)
    except for NOISE_UNIFORM, which draws from U(uniform_lo, uniform_hi).
    """

    kind: Kind
    length: int
    ar_terms: tuple[tuple[int, float], ...] = ()
    ma_terms: tuple[tuple[int, float], ...] = ()
    d: float = 0.0
    noise_mean: float = 0.0
    noise_variance: float = 1.0
    uniform_lo: float = 0.0
    uniform_hi: float = 1.0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        # normalize term lists to hashable tuples regardless of input container
        object.__setattr__(
            self, "ar_terms", tuple((int(l), float(a)) for l, a in self.ar_terms)
        )
        object.__setattr__(
            self, "ma_terms", tuple((int(l), float(b)) for l, b in self.ma_terms)
        )
        for lag, _ in self.ar_terms:
            if lag < 1:
                raise ValueError(f"AR lag must be >= 1, got {lag}")
            if lag > self.length:
                raise ValueError(f"AR lag {lag} exceeds series length {self.length}")
        for lag, _ in self.ma_terms:
            if lag < 0:
                raise ValueError(f"MA lag must be >= 0, got {lag}")
            if lag > self.length:
                raise ValueError(f"MA lag {lag} exceeds series length {self.length}")
        if self.kind == Kind.NOISE_UNIFORM:
            if not self.uniform_lo < self.uniform_hi:
                raise ValueError(
                    f"uniform bounds must satisfy lo < hi, got "
                    f"[{self.uniform_lo}, {self.uniform_hi}]"
                )
        elif self.noise_variance <= 0:
            raise ValueError(
                f"noise_variance must be positive, got {self.noise_variance}"
            )
        if self.kind == Kind.ARFIMA and abs(self.d) >= 1:
            raise ValueError(f"fractional difference parameter |d| must be < 1, got {self.d}")
        if self.kind == Kind.AR:
            if not self.ar_terms:
                raise ValueError("AR spec needs at least one AR term")
            if self.ma_terms:
                raise ValueError("AR spec must not carry MA terms")
        elif self.kind in CAUSAL_KINDS and (0, 1.0) not in self.ma_terms:
            raise ValueError("ma_terms must include the instantaneous term (0, 1.0)")
        # a single-lag recursion with |a| >= 1 diverges
        if self.kind in CAUSAL_KINDS and len(self.ar_terms) == 1 and abs(self.ar_terms[0][1]) >= 1:
            raise ValueError(
                f"single-lag AR coefficient must satisfy |a| < 1, got {self.ar_terms[0][1]}"
            )

    @property
    def label(self) -> int:
        return CAUSAL if self.kind in CAUSAL_KINDS else NON_CAUSAL


@dataclass(frozen=True)
class LabeledSeries:
    """One simulated series with its causal/non-causal label and provenance."""

    values: np.ndarray = field(repr=False)
    label: int
    spec: ProcessSpec
    seed: int


def fractional_integration_weights(d: float, n: int) -> np.ndarray:
    """Coefficients of the inverse fractional difference filter.

    Returns the first ``n`` weights of the binomial-series expansion of the
    backshift polynomial raised to the power -d, via the recursion
    w[0] = 1, w[j] = w[j-1] * (j - 1 + d) / j.
    """
    if abs(d) >= 1:
        raise ValueError(f"|d| must be < 1, got {d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    w = np.empty(n)
    w[0] = 1.0
    for j in range(1, n):
        w[j] = w[j - 1] * (j - 1 + d) / j
    return w


def _simulate_arma_core(spec: ProcessSpec, rng: np.random.Generator) -> np.ndarray:
    """AR/ARMA recursion; the first max-lag values are drawn i.i.d. from the
    noise law, and each later value is the lagged terms plus fresh noise."""
    lags = [lag for lag, _ in spec.ar_terms] + [lag for lag, _ in spec.ma_terms]
    start = max(lags, default=0)

    sd = math.sqrt(spec.noise_variance)
    init = rng.normal(spec.noise_mean, sd, start)
    eps = rng.normal(spec.noise_mean, sd, spec.length)

    # a pure-AR spec carries no MA terms; its instantaneous noise is implicit
    ma_terms = spec.ma_terms if spec.ma_terms else ((0, 1.0),)
    values = np.empty(spec.length)
    values[:start] = init
    for t in range(start, spec.length):
        acc = 0.0
        for lag, a in spec.ar_terms:
            acc += a * values[t - lag]
        for lag, b in ma_terms:
            acc += b * eps[t - lag]
        values[t] = acc
    return values


def generate(spec: ProcessSpec, rng_seed: int) -> LabeledSeries:
    """Simulate one series of ``spec`` from the generator seeded by ``rng_seed``.

    Noise kinds draw i.i.d. values. Causal kinds run the AR/ARMA recursion;
    ARFIMA then convolves that core with the fractional integration weights,
    truncated at the series start (no presample extension).
    """
    rng = np.random.default_rng(rng_seed)
    if spec.kind == Kind.NOISE_NORMAL:
        values = rng.normal(spec.noise_mean, math.sqrt(spec.noise_variance), spec.length)
    elif spec.kind == Kind.NOISE_UNIFORM:
        values = rng.uniform(spec.uniform_lo, spec.uniform_hi, spec.length)
    else:
        values = _simulate_arma_core(spec, rng)
        if spec.kind == Kind.ARFIMA:
            w = fractional_integration_weights(spec.d, spec.length)
            values = np.convolve(w, values)[: spec.length]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"generated series contains non-finite values (kind={spec.kind.value})")
    values.setflags(write=False)
    return LabeledSeries(values=values, label=spec.label, spec=spec, seed=rng_seed)
