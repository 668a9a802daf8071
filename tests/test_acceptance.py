"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
two paper-scale tests, criterion 4 and the array-peak check, only run when
TSCAUSAL_PAPER_SCALE=1 is set; tier-1 skips them because they simulate 2500
series per dataset.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from helpers import (
    count_local_extrema,
    gamma_ratio_weights,
    grid_search_lr,
    naive_dft_amplitudes,
    rational_fire,
    series_of,
)
from lifetimes import traced_peak
from tscausal import classify, spectral
from tscausal.chaosfex import GlsParams, fire, fire_batch
from tscausal.classify import LrHyper, objective, train_lr
from tscausal.pipeline import (
    AR_TRAIN,
    build_dataset,
    fit_feature_stage,
    report_to_dict,
    run_experiment,
    table_config,
    write_report,
)
from tscausal.seriesgen import fractional_integration_weights
from tscausal.spectral import amplitude_spectra


def check(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def desk_reports():
    return {
        table: run_experiment(table_config(table, scale="desk", seed=42))
        for table in ("table1-lr", "table2-lr", "table3")
    }


def test_criterion_1_chaos_model_generalizes(desk_reports):
    rep = desk_reports["table3"]
    accs = {name: rep.row(name).accuracy
            for name in ("AR-train (held-out)", "shift-I", "shift-II")}
    recalls = {name: rep.row(name).recall[1] for name in ("AR100", "ARMA", "ARFIMA")}
    ok = all(a >= 0.97 for a in accs.values()) and all(r >= 0.95 for r in recalls.values())
    detail = ", ".join(f"{k} acc {v:.2%}" for k, v in accs.items())
    detail += ", " + ", ".join(f"{k} recall {v:.2f}" for k, v in recalls.items())
    check(1, ok, detail)


def test_criterion_2_fft_model_fails_under_shift(desk_reports):
    rep = desk_reports["table2-lr"]
    train_acc = rep.row("AR-train (train split)").accuracy
    held_acc = rep.row("AR-train (held-out)").accuracy
    ok = train_acc >= 0.95 and held_acc >= 0.95
    detail = f"train acc {train_acc:.2%}, held-out acc {held_acc:.2%}"
    for name in ("shift-I", "shift-II"):
        row = rep.row(name)
        recall0 = row.recall[0]
        ok = ok and 0.40 <= row.accuracy <= 0.60 and recall0 <= 0.10
        detail += f", {name} acc {row.accuracy:.2%} class-0 recall {recall0:.2f}"
    check(2, ok, detail)


def test_criterion_3_raw_model_overfits(desk_reports):
    rep = desk_reports["table1-lr"]
    train_acc = rep.row("AR-train (train split)").accuracy
    held_acc = rep.row("AR-train (held-out)").accuracy
    ok = train_acc >= 0.95 and 0.45 <= held_acc <= 0.65
    check(3, ok, f"train acc {train_acc:.2%}, held-out acc {held_acc:.2%}")


# blake2b-256 of each desk preset's report.json at seed 42; the table3 pin is
# also the benchmark's golden digest
GOLDEN_DESK_DIGESTS = {
    "table1-lr": "5892ff50f158457906d07bf28ec770e0119eb5ef868fc24eeea066bb33d91631",
    "table2-lr": "ce43b00099974674871a1c9fc16f08cd5a09dd759742a29dd60587d70fed9da3",
    "table3": "ae5b1bee6c455bd35d986ac404e2450a63eefa6efbfe543e0f2d039c28c181b1",
}


def report_digest(report) -> str:
    text = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    return hashlib.blake2b(text.encode(), digest_size=32).hexdigest()


def test_desk_reports_match_golden_digests(desk_reports):
    digests = {table: report_digest(rep) for table, rep in desk_reports.items()}
    assert digests == GOLDEN_DESK_DIGESTS


def one_ulp(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Every value moved one ulp up or down, at random."""
    return np.nextafter(values, np.where(rng.random(values.shape) < 0.5, -np.inf, np.inf))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_desk_reports_hold_under_one_ulp_of_noise(monkeypatch, seed):
    # the rounding another numpy, FFT or BLAS build may bring: one ulp on every
    # amplitude and on every component of every LR gradient moves no desk report
    rng = np.random.default_rng(seed)
    spectra, true_objective = spectral.amplitude_spectra, classify.objective
    calls = {"spectra": 0, "gradient": 0}

    def noisy_spectra(matrix):
        calls["spectra"] += 1
        return one_ulp(spectra(matrix), rng)

    def noisy_objective(*args):
        calls["gradient"] += 1
        loss, grad = true_objective(*args)
        return loss, one_ulp(grad, rng)

    monkeypatch.setattr(spectral, "amplitude_spectra", noisy_spectra)
    monkeypatch.setattr(classify, "objective", noisy_objective)
    digests = {table: report_digest(run_experiment(table_config(table, scale="desk", seed=42)))
               for table in GOLDEN_DESK_DIGESTS}
    assert calls["spectra"] > 0 and calls["gradient"] > 0
    assert digests == GOLDEN_DESK_DIGESTS


paper_scale = pytest.mark.skipif(
    os.environ.get("TSCAUSAL_PAPER_SCALE") != "1",
    reason="paper-scale run is opt-in: set TSCAUSAL_PAPER_SCALE=1",
)


@paper_scale
def test_criterion_4_chaos_model_at_paper_scale():
    rep = run_experiment(table_config("table3", scale="paper", seed=42))
    accs = {name: rep.row(name).accuracy
            for name in ("AR-train (held-out)", "shift-I", "shift-II")}
    recalls = {name: rep.row(name).recall[1] for name in ("AR100", "ARMA", "ARFIMA")}
    ok = all(a >= 0.99 for a in accs.values()) and all(r >= 0.95 for r in recalls.values())
    detail = ", ".join(f"{k} acc {v:.2%}" for k, v in accs.items())
    detail += ", " + ", ".join(f"{k} recall {v:.2f}" for k, v in recalls.items())
    check(4, ok, detail)


@paper_scale
def test_paper_scale_table3_array_peak_stays_below_27_mb():
    # a warm pass holds one set's buffer, one class's series (20 MB) that
    # its features overwrite, and one block's temporaries at a time: its
    # traced peak measures 23.6 MB (1 MB = 1e6 bytes), where a whole set's
    # series took it to 43.2 MB, held-out features in their own array to
    # 50.2 MB, features beside their values to 63.2 MB, and whole-split
    # copies and whole-set noise and spectra to 80.5 MB
    run_experiment(table_config("table3", scale="desk", seed=42))  # first-use state
    peak = traced_peak(run_experiment, table_config("table3", scale="paper", seed=42))
    assert peak < 27e6, f"traced peak is {peak / 1e6:.1f} MB"


def test_criterion_5_extrema_counts_separate_classes():
    config = table_config("table3", scale="desk", seed=42)
    data = build_dataset(AR_TRAIN, n_per_class=50, length=config.length, master_seed=42)
    values = series_of(data)
    labels = data.labels
    stage = fit_feature_stage(config, values)
    curves = stage.transform(values)
    counts = np.array([count_local_extrema(c) for c in curves])
    causal = counts[labels == 1]
    noncausal = counts[labels == 0]
    # two-sample separation: the class means must differ by at least twice
    # the pooled within-class spread of the counts
    pooled = np.sqrt((causal.var(ddof=1) + noncausal.var(ddof=1)) / 2)
    separation = (noncausal.mean() - causal.mean()) / pooled
    ok = causal.mean() < noncausal.mean() and separation >= 2.0
    check(5, ok, f"mean extrema causal {causal.mean():.1f} vs non-causal "
                 f"{noncausal.mean():.1f}, separation {separation:.2f}x")


def test_criterion_6_oracle_equivalences():
    rng = np.random.default_rng(42)

    xs = rng.normal(size=(5, 64))
    dft_err = max(
        float(np.max(np.abs(amps - naive_dft_amplitudes(x))))
        for x, amps in zip(xs, amplitude_spectra(xs))
    )
    ok = dft_err <= 1e-9

    params = GlsParams()
    mismatches = 0
    for s in rng.uniform(0.0, 1.0, 1000):
        got = fire(float(s), params)
        n, ttss, _ = rational_fire(float(s), params.q, params.b, params.eps,
                                   params.max_len)
        if got.firing_time != n or got.ttss != ttss:
            mismatches += 1
    ok = ok and mismatches == 0

    worst_rel = 0.0
    for seed in (1, 2, 3):
        g = np.random.default_rng(seed)
        features = np.vstack([g.normal(-1.2, 1.0, size=(12, 2)),
                              g.normal(1.2, 1.0, size=(12, 2))])
        labels = np.array([0] * 12 + [1] * 12)
        model = train_lr(features, labels, LrHyper(c=1.0, tol=1e-8, max_iter=500))
        _, oracle_loss = grid_search_lr(features, labels, c=1.0)
        worst_rel = max(worst_rel, abs(model.final_loss - oracle_loss) / oracle_loss)
    ok = ok and worst_rel <= 1e-4

    weight_err = max(
        float(np.max(np.abs(
            (fractional_integration_weights(d, 21) - gamma_ratio_weights(d, 21))
            / gamma_ratio_weights(d, 21)
        )))
        for d in (-0.9, -0.4, 0.3, 0.9)
    )
    ok = ok and weight_err <= 1e-12

    check(6, ok, f"dft err {dft_err:.1e}, fire mismatches {mismatches}, "
                 f"lr loss rel err {worst_rel:.1e}, weights rel err {weight_err:.1e}")


def test_criterion_7_numerical_invariants(tmp_path):
    rng = np.random.default_rng(42)

    xs = rng.normal(size=(5, 257))
    amps = amplitude_spectra(xs)
    power = amps[:, 0] ** 2 + 2 * np.sum(amps[:, 1:] ** 2, axis=1)
    lhs = np.sum(xs**2, axis=1) * xs.shape[1]
    parseval_rel = float(np.max(np.abs(lhs - power) / lhs))
    ok = parseval_rel <= 1e-9

    grad_rel = 0.0
    features = rng.normal(size=(40, 6))
    signs = np.where(rng.integers(0, 2, 40) == 1, 1.0, -1.0)
    params = rng.normal(size=7)
    _, grad = objective(params, features, signs, 0.7)
    h = 1e-6
    for k in range(7):
        e = np.zeros(7)
        e[k] = h
        hi, _ = objective(params + e, features, signs, 0.7)
        lo, _ = objective(params - e, features, signs, 0.7)
        fd = (hi - lo) / (2 * h)
        grad_rel = max(grad_rel, abs(grad[k] - fd) / max(abs(fd), 1e-12))
    ok = ok and grad_rel <= 1e-5

    stimuli = rng.uniform(0.0, 1.0, 5000)
    n, ttss, _ = fire_batch(stimuli, GlsParams())
    bounds_ok = bool(ttss.min() >= 0.0 and ttss.max() <= 1.0 and n.max() <= 1000)
    ok = ok and bounds_ok

    config = table_config("table2-lr", scale="desk", seed=42)
    write_report(run_experiment(config), tmp_path / "a")
    write_report(run_experiment(config), tmp_path / "b")
    identical = (tmp_path / "a" / "report.json").read_bytes() == \
                (tmp_path / "b" / "report.json").read_bytes()
    ok = ok and identical

    check(7, ok, f"parseval rel {parseval_rel:.1e}, grad rel {grad_rel:.1e}, "
                 f"ttss/firing bounds {bounds_ok}, reports identical {identical}")
