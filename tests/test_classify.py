import json
from functools import partial

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from helpers import grid_search_lr, lr_loss
from tscausal import classify
from tscausal.classify import (
    CHAOSFEX_LR,
    CLASS1_MIN_MARGIN,
    DEFAULT_LR,
    ClassReport,
    LrHyper,
    LrModel,
    evaluate,
    load_model,
    objective,
    predict,
    save_model,
    train_lr,
)
from tscausal.codec import to_doc
from tscausal.pipeline import featurize_sets, make_dataset, table_config


def toy_problem(seed=0, n=20, separation=2.0):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(-separation / 2, 1.0, size=(n // 2, 2))
    x1 = rng.normal(separation / 2, 1.0, size=(n - n // 2, 2))
    features = np.vstack([x0, x1])
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
    return features, labels


# ---------------------------------------------------------------------------
# hyperparameters


def test_hyper_presets():
    assert (CHAOSFEX_LR.c, CHAOSFEX_LR.tol, CHAOSFEX_LR.max_iter) == (0.001, 0.001, 1000)
    assert (DEFAULT_LR.c, DEFAULT_LR.tol, DEFAULT_LR.max_iter) == (1.0, 1e-4, 100)


@pytest.mark.parametrize("kw", [{"c": 0.0}, {"tol": 0.0}, {"max_iter": 0}])
def test_hyper_validation(kw):
    with pytest.raises(ValueError):
        LrHyper(**kw)


# ---------------------------------------------------------------------------
# objective


def test_objective_value_matches_scalar_reference():
    features, labels = toy_problem(seed=1)
    signs = np.where(labels == 1, 1.0, -1.0)
    params = np.array([0.3, -0.7, 0.2])
    loss, _ = objective(params, features, signs, c=0.5)
    assert loss == pytest.approx(
        lr_loss(params[:2], params[2], features, labels, 0.5), rel=1e-12
    )


def test_objective_does_not_penalize_bias():
    features, labels = toy_problem(seed=2)
    signs = np.where(labels == 1, 1.0, -1.0)
    zero = np.zeros(3)
    shifted = np.array([0.0, 0.0, 100.0])
    loss_zero, _ = objective(zero, features, signs, c=1e-12)
    loss_shift, _ = objective(shifted, features, signs, c=1e-12)
    # a penalized bias would contribute 0.5 * 100^2; anything near zero
    # shows only the (negligible) data term moved
    assert loss_shift == pytest.approx(loss_zero, abs=1e-6)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    features = rng.normal(size=(30, 5))
    signs = np.where(rng.integers(0, 2, 30) == 1, 1.0, -1.0)
    for c in (0.001, 1.0):
        params = rng.normal(size=6)
        _, grad = objective(params, features, signs, c)
        h = 1e-6
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            hi, _ = objective(params + e, features, signs, c)
            lo, _ = objective(params - e, features, signs, c)
            fd = (hi - lo) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------------------
# training


def test_train_separable_problem_is_perfect():
    features, labels = toy_problem(seed=4, separation=6.0)
    model = train_lr(features, labels, DEFAULT_LR)
    pred, probs = predict(model, features)
    assert np.array_equal(pred, labels)
    assert model.converged
    assert np.all((probs > 0.5) == (labels == 1))


def test_train_loss_matches_grid_search_oracle():
    for seed in (5, 6, 7):
        features, labels = toy_problem(seed=seed, n=24, separation=2.5)
        model = train_lr(features, labels, LrHyper(c=1.0, tol=1e-8, max_iter=500))
        _, oracle_loss = grid_search_lr(features, labels, c=1.0)
        assert model.final_loss == pytest.approx(oracle_loss, rel=1e-4)


def test_train_is_deterministic():
    features, labels = toy_problem(seed=8)
    a = train_lr(features, labels, DEFAULT_LR)
    b = train_lr(features, labels, DEFAULT_LR)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert a.final_loss == b.final_loss


def test_train_records_fingerprint():
    features, labels = toy_problem(seed=9)
    model = train_lr(features, labels, DEFAULT_LR, fingerprint="abc123")
    assert model.fingerprint == "abc123"


def test_train_input_validation():
    features, labels = toy_problem(seed=10)
    with pytest.raises(ValueError, match="align"):
        train_lr(features, labels[:-1], DEFAULT_LR)
    with pytest.raises(ValueError, match="single class"):
        train_lr(features, np.zeros(labels.size, dtype=int), DEFAULT_LR)
    with pytest.raises(ValueError, match="0/1"):
        train_lr(features, labels + 1, DEFAULT_LR)
    bad = features.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        train_lr(bad, labels, DEFAULT_LR)


def test_stronger_regularization_shrinks_weights():
    features, labels = toy_problem(seed=11, separation=4.0)
    loose = train_lr(features, labels, LrHyper(c=10.0, tol=1e-8, max_iter=500))
    tight = train_lr(features, labels, LrHyper(c=0.001, tol=1e-8, max_iter=500))
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


# ---------------------------------------------------------------------------
# the solver against scipy's L-BFGS-B, the path it ports


def scipy_fit(features, labels, hyper):
    """scipy's L-BFGS-B on ``objective`` with train_lr's stopping rules:
    (params, iterations, converged)."""
    signs = np.where(labels == 1, 1.0, -1.0)
    seen = []
    res = minimize(objective, np.zeros(features.shape[1] + 1), args=(features, signs, hyper.c),
                   jac=True, method="L-BFGS-B", callback=seen.append,
                   options={"maxiter": hyper.max_iter, "maxfun": max(50 * hyper.max_iter, 1000),
                            "ftol": 0.0, "gtol": hyper.tol})
    return res.x, len(seen), bool(np.max(np.abs(res.jac)) <= hyper.tol)


def assert_fits_agree(features, labels, hyper):
    """Same iterations and outcome; converged weights within 1e-9 of the
    largest; the same labels on the training rows."""
    seen = []
    model = train_lr(features, labels, hyper, callback=seen.append)
    params, iterations, converged = scipy_fit(features, labels, hyper)
    assert (len(seen), model.converged) == (iterations, converged)
    ours = np.append(model.weights, model.bias)
    if converged:
        assert np.max(np.abs(ours - params)) <= 1e-9 * np.max(np.abs(params))
    theirs = LrModel(weights=params[:-1], bias=float(params[-1]), hyper=hyper,
                     converged=converged, final_loss=0.0)
    np.testing.assert_array_equal(predict(model, features)[0], predict(theirs, features)[0])
    return model, len(seen)


@pytest.mark.parametrize("seed", range(12))
def test_train_takes_scipys_iterations_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(50, 400)), int(rng.integers(2, 60))
    features = rng.normal(size=(n, p))
    labels = (features @ rng.normal(size=p) + rng.normal(size=n) > 0).astype(int)
    hyper = LrHyper(c=float(rng.choice([0.01, 0.1, 1.0])),
                    tol=float(rng.choice([1e-3, 1e-4, 1e-5])), max_iter=1000)
    model, iterations = assert_fits_agree(features, labels, hyper)
    assert model.converged and iterations > 1


@pytest.mark.parametrize("table", ["table1-lr", "table3"])
def test_train_takes_scipys_iterations_on_the_desk_train_split(table):
    config = table_config(table, scale="desk", seed=42)
    _, _, features, labels = next(featurize_sets(config, partial(make_dataset, config)))
    model, _ = assert_fits_agree(features, labels, config.lr_hyper)
    assert model.converged


def test_train_stops_at_the_start_when_the_gradient_is_within_tol():
    features, labels = toy_problem(seed=12)
    seen = []
    model = train_lr(features, labels, LrHyper(tol=1e6), callback=seen.append)
    assert seen == [] and model.converged
    assert not model.weights.any() and model.bias == 0.0
    assert_fits_agree(features, labels, LrHyper(tol=1e6))


def test_train_stops_unconverged_at_max_iter():
    features, labels = toy_problem(seed=13, separation=1.0)
    hyper = LrHyper(tol=1e-12, max_iter=3)
    model, iterations = assert_fits_agree(features, labels, hyper)
    assert iterations == 3 and not model.converged


def test_train_with_a_wrong_sign_gradient_ends_unconverged(monkeypatch):
    features, labels = toy_problem(seed=14)
    true_objective = classify.objective

    def wrong_sign(*args):
        loss, grad = true_objective(*args)
        return loss, -grad

    monkeypatch.setattr(classify, "objective", wrong_sign)
    seen = []
    model = train_lr(features, labels, DEFAULT_LR, callback=seen.append)
    # every step along the ascent direction raises the loss, so the first line
    # search fails with no pair to drop and the zero start is returned
    assert seen == [] and not model.converged
    assert not model.weights.any() and model.final_loss == true_objective(
        np.zeros(3), features, np.where(labels == 1, 1.0, -1.0), DEFAULT_LR.c)[0]


def test_objective_pull_matches_expit():
    rng = np.random.default_rng(15)
    features = rng.normal(size=(200, 4)) * 300.0  # margins far past exp's overflow
    signs = np.where(rng.integers(0, 2, 200) == 1, 1.0, -1.0)
    params = rng.normal(size=5)
    _, grad = objective(params, features, signs, 0.5)
    w = params[:-1]
    pull = -signs * expit(-signs * (features @ w + params[-1]))
    expected = np.append(0.5 * (features.T @ pull) + w, 0.5 * pull.sum())
    np.testing.assert_allclose(grad, expected, rtol=1e-13, atol=1e-300)


# ---------------------------------------------------------------------------
# prediction and evaluation


def test_predict_tie_goes_to_class_one():
    model = LrModel(weights=np.zeros(2), bias=0.0, hyper=DEFAULT_LR,
                    converged=True, final_loss=0.0)
    pred, probs = predict(model, np.zeros((3, 2)))
    assert np.all(pred == 1)
    assert np.all(probs == 0.5)


def margin_model():
    """A one-feature model whose margin is the feature itself."""
    return LrModel(weights=np.ones(1), bias=0.0, hyper=DEFAULT_LR, converged=True, final_loss=0.0)


def tie_rule_margins():
    """Every double within 64 ulps of the class-1 threshold, signed zeros,
    subnormals and infinities, and 10**6 random margins of every magnitude."""
    near = (np.float64(CLASS1_MIN_MARGIN).view(np.int64) + np.arange(-64, 65)).view(np.float64)
    tiny = np.finfo(np.float64).tiny
    special = np.array([0.0, -0.0, 5e-324, -5e-324, tiny - 5e-324, 5e-324 - tiny,
                        tiny, -tiny, np.inf, -np.inf])
    rng = np.random.default_rng(8)
    scale = 10.0 ** rng.uniform(-20, 3, size=10**6)
    return np.concatenate([near, special, rng.choice([-1.0, 1.0], size=scale.size) * scale])


def test_class1_min_margin_is_the_least_margin_expit_sends_to_class_one():
    below = np.nextafter(CLASS1_MIN_MARGIN, -np.inf)
    assert expit(CLASS1_MIN_MARGIN) >= 0.5 and expit(below) < 0.5
    assert -6 * 2.0**-54 < CLASS1_MIN_MARGIN <= -5.5 * 2.0**-54


def test_predict_labels_follow_the_expit_tie_rule():
    z = tie_rule_margins()
    pred, probs = predict(margin_model(), z[:, None])
    np.testing.assert_array_equal(pred, (expit(z) >= 0.5).astype(np.int64))
    # the probabilities may differ from expit's in the last bits only
    np.testing.assert_allclose(probs, expit(z), rtol=1e-14, atol=1e-300)


def test_the_tie_rule_check_catches_labels_taken_from_numpy_probabilities():
    # the check above fails the naive rule: at -6 * 2**-54 numpy's exp rounds
    # differently from the C library's exp that expit uses
    z = tie_rule_margins()
    with np.errstate(over="ignore"):
        naive = 1.0 / (1.0 + np.exp(-z)) >= 0.5
    wrong = z[naive != (expit(z) >= 0.5)]
    if wrong.size == 0:
        pytest.skip("this numpy's exp rounds like the C library's at every margin checked")
    assert -6 * 2.0**-54 in wrong


@pytest.mark.parametrize("row", [[np.nan, 1.0], [np.inf, np.inf]], ids=["nan", "inf-minus-inf"])
def test_predict_refuses_a_nan_margin_by_row(row):
    model = LrModel(weights=np.array([1.0, -1.0]), bias=0.0, hyper=DEFAULT_LR,
                    converged=True, final_loss=0.0)
    features = np.zeros((5, 2))
    features[3] = row
    with pytest.raises(ValueError, match="NaN margin at row 3"):
        predict(model, features)


@pytest.mark.parametrize("weights", [[4.0, -4.0], [1.0, 1.0], [-1.0, -1.0]])
@pytest.mark.parametrize("rows", [1, 5])
def test_predict_refuses_an_overflowed_margin_of_finite_features_by_row(weights, rows):
    # x @ w overflows to +-inf (which sign depends on the matmul kernel) where
    # the exact margin is 0, 2e308 or -2e308
    model = LrModel(weights=np.array(weights), bias=0.0, hyper=DEFAULT_LR,
                    converged=True, final_loss=0.0)
    features = np.zeros((rows, 2))
    features[rows - 1] = [1e308, 1e308]
    with pytest.raises(ValueError, match=rf"infinite margin at row {rows - 1}\b"):
        predict(model, features)


def test_predict_checks_dimension():
    model = LrModel(weights=np.zeros(2), bias=0.0, hyper=DEFAULT_LR,
                    converged=True, final_loss=0.0)
    with pytest.raises(ValueError):
        predict(model, np.zeros((3, 5)))


def test_evaluate_hand_counted_confusion():
    true = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    pred = np.array([0, 0, 1, 1, 1, 1, 0, 0])
    r = evaluate(pred, true)
    assert r.support == (3, 5)
    assert r.accuracy == pytest.approx(5 / 8)
    assert r.precision[0] == pytest.approx(2 / 4)
    assert r.recall[0] == pytest.approx(2 / 3)
    assert r.precision[1] == pytest.approx(3 / 4)
    assert r.recall[1] == pytest.approx(3 / 5)
    f1_0 = 2 * (2 / 4) * (2 / 3) / ((2 / 4) + (2 / 3))
    assert r.f1[0] == pytest.approx(f1_0)


def test_evaluate_absent_class_reports_none():
    true = np.ones(4, dtype=int)
    pred = np.array([1, 1, 0, 1])
    r = evaluate(pred, true)
    assert r.support == (0, 4)
    assert r.precision[0] is None and r.recall[0] is None and r.f1[0] is None
    assert r.recall[1] == pytest.approx(3 / 4)


def test_evaluate_zero_denominators_are_zero_not_nan():
    # class 0 exists in truth but is never predicted
    true = np.array([0, 0, 1, 1])
    pred = np.array([1, 1, 1, 1])
    r = evaluate(pred, true)
    assert r.precision[0] == 0.0
    assert r.recall[0] == 0.0
    assert r.f1[0] == 0.0


def test_evaluate_validates_shapes():
    with pytest.raises(ValueError):
        evaluate(np.array([0, 1]), np.array([0, 1, 1]))
    with pytest.raises(ValueError):
        evaluate(np.array([]), np.array([]))


def test_class_report_encodes_as_json_lists():
    r = evaluate(np.array([0, 1, 1]), np.array([0, 1, 0]))
    doc = to_doc(r)
    assert list(doc) == ["precision", "recall", "f1", "accuracy", "support"]
    assert doc["support"] == [2, 1]
    assert doc["accuracy"] == r.accuracy
    assert doc["recall"] == [0.5, 1.0]


# ---------------------------------------------------------------------------
# persistence


def test_model_save_load_round_trip(tmp_path):
    features, labels = toy_problem(seed=12)
    model = train_lr(features, labels, CHAOSFEX_LR, fingerprint="fp")
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.bias == model.bias
    assert loaded.hyper == model.hyper
    assert loaded.converged == model.converged
    assert loaded.final_loss == model.final_loss
    assert loaded.fingerprint == "fp"
    before = predict(model, features)
    after = predict(loaded, features)
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])


def test_load_model_rejects_unknown_schema(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"schema_version": 99}')
    with pytest.raises(ValueError, match="schema"):
        load_model(path)


def test_load_model_rejects_mistyped_fields(tmp_path):
    features, labels = toy_problem(seed=13)
    path = tmp_path / "model.json"
    save_model(train_lr(features, labels, DEFAULT_LR), path)
    doc = json.loads(path.read_text())
    assert list(doc)[:2] == ["schema_version", "weights"]
    doc["hyper"]["max_iter"] = 100.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="'hyper.max_iter': expected an integer"):
        load_model(path)
