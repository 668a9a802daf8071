"""L2-regularized binary logistic regression and per-class evaluation.

The objective is c * sum_i log(1 + exp(-y_i * (w @ x_i + b))) + ||w||^2 / 2
with y in {-1, +1} and an unregularized bias, so ``c`` is the inverse
regularization strength. Minimization uses the deterministic L-BFGS-B
quasi-Newton solver, stopping when the gradient infinity norm drops to
``tol`` or after ``max_iter`` iterations.

scipy is imported by the training functions alone, so that generating,
featurizing and evaluating never pay for loading it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import read_document, write_text
from .codec import to_doc

MODEL_SCHEMA_VERSION = 1

# The least double margin z with scipy.special.expit(z) >= 0.5: -0x1.7fffffffffffep-52,
# just above -6 * 2**-54. On [this, 0), 1 + exp(-z) rounds to 2, so expit gives
# exactly 0.5, a tie that goes to class 1.
CLASS1_MIN_MARGIN = -3.3306690738754686e-16


@dataclass(frozen=True)
class LrHyper:
    c: float = 1.0
    tol: float = 1e-4
    max_iter: int = 100

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


# settings used by the chaos-feature model vs. the plain baselines
CHAOSFEX_LR = LrHyper(c=0.001, tol=0.001, max_iter=1000)
DEFAULT_LR = LrHyper(c=1.0, tol=1e-4, max_iter=100)


@dataclass(frozen=True)
class LrModel:
    weights: np.ndarray = field(repr=False)
    bias: float
    hyper: LrHyper
    converged: bool
    final_loss: float
    fingerprint: str | None = None


@dataclass(frozen=True)
class ClassReport:
    """Per-class precision/recall/F1 plus accuracy; class 0 first.

    A metric is None when its class is absent from the truth set.
    """

    precision: tuple[float | None, float | None]
    recall: tuple[float | None, float | None]
    f1: tuple[float | None, float | None]
    accuracy: float
    support: tuple[int, int]


def objective(params: np.ndarray, features: np.ndarray, signs: np.ndarray, c: float):
    """Loss and analytic gradient at params = [weights..., bias]."""
    from scipy.special import expit

    w, b = params[:-1], params[-1]
    margins = signs * (features @ w + b)
    loss = c * np.logaddexp(0.0, -margins).sum() + 0.5 * (w @ w)
    pull = -signs * expit(-margins)
    grad = np.empty_like(params)
    grad[:-1] = c * (features.T @ pull) + w
    grad[-1] = c * pull.sum()
    return loss, grad


def train_lr(
    features: np.ndarray,
    labels: np.ndarray,
    hyper: LrHyper,
    fingerprint: str | None = None,
    callback=None,
) -> LrModel:
    """Fit the classifier from a zero start. Deterministic for fixed inputs."""
    from scipy.optimize import minimize

    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError(f"features {x.shape} and labels {y.shape} do not align")
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("training data contains a single class")
    if not np.all(np.isin(classes, (0, 1))):
        raise ValueError(f"labels must be 0/1, got {classes}")

    signs = np.where(y == 1, 1.0, -1.0)
    res = minimize(
        objective,
        np.zeros(x.shape[1] + 1),
        args=(x, signs, hyper.c),
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={
            "maxiter": hyper.max_iter,
            "maxfun": max(50 * hyper.max_iter, 1000),
            "ftol": 0.0,
            "gtol": hyper.tol,
        },
    )
    return LrModel(
        weights=res.x[:-1],
        bias=float(res.x[-1]),
        hyper=hyper,
        converged=bool(np.max(np.abs(res.jac)) <= hyper.tol),
        final_loss=float(res.fun),
        fingerprint=fingerprint,
    )


def predict(model: LrModel, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels and class-1 probabilities.

    A label is 1 exactly when ``scipy.special.expit`` of the margin is at
    least 0.5 (ties go to class 1); it is read off the margin against
    ``CLASS1_MIN_MARGIN``, never off the probabilities. The probabilities come
    from ``numpy.exp`` and can differ from ``expit``'s in the last bits. A
    row whose margin is NaN, or +-inf from features that are all finite
    (an overflowed weighted sum), has no label and is refused by its index;
    a margin of +-inf from an infinite feature takes ``expit``'s label.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.weights.size:
        raise ValueError(
            f"feature dimension {x.shape[-1] if x.ndim == 2 else x.shape} does not "
            f"match model dimension {model.weights.size}"
        )
    with np.errstate(invalid="ignore", over="ignore"):  # such margins are refused below
        margins = x @ model.weights + model.bias
    refused = np.isnan(margins)
    inf = np.flatnonzero(np.isinf(margins))
    refused[inf] = np.isfinite(x[inf]).all(axis=1)
    if refused.any():
        row = int(np.argmax(refused))
        kind = "NaN" if np.isnan(margins[row]) else "infinite"
        raise ValueError(f"{kind} margin at row {row}: its features hold a NaN "
                         "or overflow the weighted sum")
    with np.errstate(over="ignore"):  # a margin below about -709 has probability 0
        probs = 1.0 / (1.0 + np.exp(-margins))
    return (margins >= CLASS1_MIN_MARGIN).astype(np.int64), probs


def evaluate(pred_labels: np.ndarray, true_labels: np.ndarray) -> ClassReport:
    """Confusion-count metrics per class; absent truth classes report None."""
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValueError(f"label shapes differ: {pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise ValueError("cannot evaluate empty label arrays")

    precision, recall, f1, support = [], [], [], []
    for cls in (0, 1):
        tp = int(np.sum((pred == cls) & (true == cls)))
        pp = int(np.sum(pred == cls))
        sup = int(np.sum(true == cls))
        support.append(sup)
        if sup == 0:
            precision.append(None)
            recall.append(None)
            f1.append(None)
            continue
        p = tp / pp if pp else 0.0
        r = tp / sup
        precision.append(p)
        recall.append(r)
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    return ClassReport(
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        accuracy=float(np.mean(pred == true)),
        support=tuple(support),
    )


def save_model(model: LrModel, path: str | Path) -> None:
    doc = {"schema_version": MODEL_SCHEMA_VERSION, **to_doc(model)}
    write_text(path, json.dumps(doc, indent=2) + "\n")


def load_model(path: str | Path) -> LrModel:
    """The model ``save_model`` wrote to ``path``; a fault is a ValueError naming the file."""
    return read_document(path, LrModel, MODEL_SCHEMA_VERSION)
