"""Experiment orchestration: dataset recipes, the three feature pipelines,
and report emission.

A recipe names parameter ranges for one dataset; per-instance parameters are
drawn from child seeds derived by hashing (master seed, recipe name, class,
index), so datasets are independent yet fully reproducible. The three models
share one shape: build the training corpus, split it 70:30 stratified, fit
the feature stage on the training split only, train the classifier, then
score the held-out split and every extra test set.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classify, spectral
from .artifacts import (  # noqa: F401 -- the CLI calls these through pipeline
    SPLIT_SLUGS,
    load_dataset,
    persist_dataset,
    write_text,
)
from .chaosfex import GlsParams, extract_ttss
from .classify import CHAOSFEX_LR, DEFAULT_LR, ClassReport, LrHyper, LrModel
from .codec import DecodeError, from_doc, to_doc
from .seriesgen import (
    CAUSAL_KINDS,
    Dataset,
    Kind,
    ProcessSpec,
    generate,  # noqa: F401 -- bench/layertrace.py wraps pipeline.generate
    generate_many,
)
from .spectral import DEFAULT_HEADROOM, MinMaxScaler

SCHEMA_VERSION = 1

MODELS = ("raw", "fft", "fft_chaosfex")

# accepted spellings for each feature pipeline
MODEL_ALIASES = {
    "raw": "raw",
    "rawvalues": "raw",
    "fft": "fft",
    "fourieramplitude": "fft",
    "fft_chaosfex": "fft_chaosfex",
    "fourierchaosfex": "fft_chaosfex",
}


def canonical_model(name: str) -> str:
    key = str(name).lower()
    if key not in MODEL_ALIASES:
        raise ValueError(f"unknown model {name!r}; expected one of {MODELS}")
    return MODEL_ALIASES[key]

DESK_TRAIN_PER_CLASS = 250
DESK_TEST_PER_CLASS = 150
PAPER_TRAIN_PER_CLASS = 1250
PAPER_TEST_PER_CLASS = 1250
SERIES_LENGTH = 2000
SPLIT_FRACTION = 0.7


def derive_seed(*parts) -> int:
    """Stable 64-bit child seed from a tuple of identifying parts."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


# ---------------------------------------------------------------------------
# recipes


def _require(ok: bool, rule: str, *got) -> None:
    if not ok:
        raise ValueError(f"need {rule}, got {', '.join(map(str, got))}")


@dataclass(frozen=True)
class CausalFamily:
    """Parameter ranges for one causal process family.

    Lags are drawn uniformly on the inclusive integer range, coefficients on
    the real range. MA ranges apply to ARMA/ARFIMA, the fractional range to
    ARFIMA only.
    """

    kind: Kind
    lag_lo: int = 1
    lag_hi: int = 20
    coeff_lo: float = 0.8
    coeff_hi: float = 0.9
    ma_lag_lo: int = 1
    ma_lag_hi: int = 20
    d_lo: float = -0.5
    d_hi: float = 0.5
    noise_mean: float = 0.0
    noise_variance: float = 0.01

    def __post_init__(self):
        _require(self.kind in CAUSAL_KINDS, "kind ar, arma or arfima", Kind(self.kind).value)
        _require(1 <= self.lag_lo <= self.lag_hi, "1 <= lag_lo <= lag_hi", self.lag_lo, self.lag_hi)
        _require(1 <= self.ma_lag_lo <= self.ma_lag_hi, "1 <= ma_lag_lo <= ma_lag_hi",
                 self.ma_lag_lo, self.ma_lag_hi)
        _require(-1 < self.coeff_lo <= self.coeff_hi < 1, "-1 < coeff_lo <= coeff_hi < 1",
                 self.coeff_lo, self.coeff_hi)
        _require(-1 < self.d_lo <= self.d_hi < 1, "-1 < d_lo <= d_hi < 1", self.d_lo, self.d_hi)
        _require(self.noise_variance > 0, "noise_variance > 0", self.noise_variance)


@dataclass(frozen=True)
class NoiseFamily:
    kind: Kind
    mean: float = 0.0
    variance: float = 0.01
    lo: float = -0.6
    hi: float = 0.6

    def __post_init__(self):
        _require(self.kind not in CAUSAL_KINDS, "kind noise_normal or noise_uniform",
                 Kind(self.kind).value)
        _require(self.variance > 0, "variance > 0", self.variance)
        _require(self.lo < self.hi, "lo < hi", self.lo, self.hi)


@dataclass(frozen=True)
class DatasetRecipe:
    name: str
    causal: CausalFamily | None = None
    noncausal: NoiseFamily | None = None

    def __post_init__(self):
        if self.causal is None and self.noncausal is None:
            raise ValueError(f"recipe {self.name!r} defines no generator family")
        # the name is a run-directory path component
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise ValueError(f"recipe name {self.name!r} must not be empty, '.' or '..', "
                             "nor contain '/' or '\\'")

    @classmethod
    def from_name(cls, name: str) -> DatasetRecipe:
        """The bundled recipe called ``name`` (case-insensitive); lets a
        config write a recipe as its name."""
        key = name.lower()
        if key not in RECIPES:
            raise ValueError(f"unknown recipe {name!r}; known: {sorted(RECIPES)}")
        return RECIPES[key]


AR_TRAIN = DatasetRecipe(
    "AR-train",
    causal=CausalFamily(Kind.AR),
    noncausal=NoiseFamily(Kind.NOISE_NORMAL, variance=0.01),
)
SHIFT_I = DatasetRecipe(
    "shift-I",
    causal=CausalFamily(Kind.AR),
    noncausal=NoiseFamily(Kind.NOISE_NORMAL, variance=0.09),
)
SHIFT_II = DatasetRecipe(
    "shift-II",
    causal=CausalFamily(Kind.AR),
    noncausal=NoiseFamily(Kind.NOISE_UNIFORM, lo=-0.6, hi=0.6),
)
AR100 = DatasetRecipe("AR100", causal=CausalFamily(Kind.AR, lag_lo=100, lag_hi=100))
ARMA_TEST = DatasetRecipe("ARMA", causal=CausalFamily(Kind.ARMA))
ARFIMA_TEST = DatasetRecipe("ARFIMA", causal=CausalFamily(Kind.ARFIMA))

RECIPES = {
    r.name.lower(): r
    for r in (AR_TRAIN, SHIFT_I, SHIFT_II, AR100, ARMA_TEST, ARFIMA_TEST)
}


# ---------------------------------------------------------------------------
# dataset assembly


def _draw_spec(family: CausalFamily, length: int, rng: np.random.Generator) -> ProcessSpec:
    lag = int(rng.integers(family.lag_lo, family.lag_hi + 1))
    coeff = float(rng.uniform(family.coeff_lo, family.coeff_hi))
    common = dict(
        length=length,
        noise_mean=family.noise_mean,
        noise_variance=family.noise_variance,
    )
    if family.kind == Kind.AR:
        return ProcessSpec(kind=Kind.AR, ar_terms=((lag, coeff),), **common)
    ma_lag = int(rng.integers(family.ma_lag_lo, family.ma_lag_hi + 1))
    ma_coeff = float(rng.uniform(family.coeff_lo, family.coeff_hi))
    ma_terms = ((0, 1.0), (ma_lag, ma_coeff))
    if family.kind == Kind.ARMA:
        return ProcessSpec(kind=Kind.ARMA, ar_terms=((lag, coeff),), ma_terms=ma_terms, **common)
    d = float(rng.uniform(family.d_lo, family.d_hi))
    return ProcessSpec(kind=Kind.ARFIMA, ar_terms=((lag, coeff),), ma_terms=ma_terms, d=d, **common)


def _noise_spec(family: NoiseFamily, length: int) -> ProcessSpec:
    if family.kind == Kind.NOISE_NORMAL:
        return ProcessSpec(
            kind=family.kind, length=length, noise_mean=family.mean, noise_variance=family.variance
        )
    return ProcessSpec(kind=family.kind, length=length, uniform_lo=family.lo, uniform_hi=family.hi)


def build_dataset(
    recipe: DatasetRecipe, n_per_class: int, length: int, master_seed: int
) -> Dataset:
    """Simulate a labeled dataset: causal rows first, then non-causal rows."""
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    specs: list[ProcessSpec] = []
    seeds: list[int] = []
    if recipe.causal is not None:
        for i in range(n_per_class):
            rng = np.random.default_rng(derive_seed(master_seed, recipe.name, "causal", i))
            specs.append(_draw_spec(recipe.causal, length, rng))
            seeds.append(int(rng.integers(0, 2**63)))
    if recipe.noncausal is not None:
        spec = _noise_spec(recipe.noncausal, length)
        for i in range(n_per_class):
            rng = np.random.default_rng(derive_seed(master_seed, recipe.name, "noncausal", i))
            specs.append(spec)
            seeds.append(int(rng.integers(0, 2**63)))
    return Dataset(generate_many(specs, seeds), tuple(specs), tuple(seeds))


def stratified_split(labels: np.ndarray, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Index split keeping per-class counts within 1 of exact proportionality."""
    if not 0 < fraction < 1:
        raise ValueError(f"split fraction must lie in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    train_idx, rest_idx = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        perm = rng.permutation(idx)
        k = int(round(fraction * idx.size))
        train_idx.append(perm[:k])
        rest_idx.append(perm[k:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(rest_idx))


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int = 42
    model: str = "fft_chaosfex"
    train_recipe: DatasetRecipe = AR_TRAIN
    test_recipes: tuple[DatasetRecipe, ...] = (SHIFT_I, SHIFT_II, AR100, ARMA_TEST, ARFIMA_TEST)
    n_train_per_class: int = DESK_TRAIN_PER_CLASS
    n_test_per_class: int = DESK_TEST_PER_CLASS
    length: int = SERIES_LENGTH
    split_fraction: float = SPLIT_FRACTION
    gls: GlsParams = GlsParams()
    lr: LrHyper | None = None
    headroom: float = DEFAULT_HEADROOM
    demean_first: bool = False
    keep_dc: bool = True
    per_instance_scaling: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if not 0 < self.split_fraction < 1:
            raise ValueError(f"split_fraction must lie in (0, 1), got {self.split_fraction}")
        if self.n_train_per_class < 1 or self.n_test_per_class < 1:
            raise ValueError("per-class counts must be >= 1")
        # the rounding of stratified_split
        k = int(round(self.split_fraction * self.n_train_per_class))
        if not 1 <= k < self.n_train_per_class:
            raise ValueError(
                f"split_fraction {self.split_fraction} keeps {k} of n_train_per_class "
                f"{self.n_train_per_class} rows per class for training; each class "
                "needs at least one training and one held-out row"
            )
        if not 0 < self.headroom < 0.1:
            raise ValueError(f"headroom must lie in (0, 0.1), got {self.headroom}")
        if self.train_recipe.causal is None or self.train_recipe.noncausal is None:
            raise ValueError(f"train_recipe {self.train_recipe.name!r} must define both a causal "
                             "and a noncausal family, one per class")
        names = [self.train_recipe.name, *(r.name for r in self.test_recipes)]
        if len(set(names)) != len(names):
            raise ValueError(f"recipe names must be unique within a config, got {names}")
        for i, recipe in enumerate(self.test_recipes):
            if recipe.name in SPLIT_SLUGS:
                raise ValueError(f"test_recipes[{i}].name {recipe.name!r} is the features "
                                 "directory of a train_recipe split")
        where = ["train_recipe", *(f"test_recipes[{i}]" for i in range(len(self.test_recipes)))]
        for path, recipe in zip(where, (self.train_recipe, *self.test_recipes)):
            family = recipe.causal
            if family is None:
                continue
            # pure AR draws no MA lag
            for key in ("lag_hi",) if family.kind == Kind.AR else ("lag_hi", "ma_lag_hi"):
                lag = getattr(family, key)
                if lag > self.length:
                    raise ValueError(f"{path}.causal.{key} {lag} exceeds length {self.length}")

    @property
    def lr_hyper(self) -> LrHyper:
        if self.lr is not None:
            return self.lr
        return CHAOSFEX_LR if self.model == "fft_chaosfex" else DEFAULT_LR


TABLE_MODELS = {"table1-lr": "raw", "table2-lr": "fft", "table3": "fft_chaosfex"}
SCALES = ("desk", "paper")


def table_config(table: str, scale: str = "desk", seed: int = 42) -> ExperimentConfig:
    """Configuration for one of the bundled experiment presets."""
    if table not in TABLE_MODELS:
        raise ValueError(f"unknown table {table!r}; expected one of {sorted(TABLE_MODELS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    model = TABLE_MODELS[table]
    tests = (SHIFT_I, SHIFT_II) if model != "fft_chaosfex" else (
        SHIFT_I,
        SHIFT_II,
        AR100,
        ARMA_TEST,
        ARFIMA_TEST,
    )
    paper = scale == "paper"
    return ExperimentConfig(
        master_seed=seed,
        model=model,
        test_recipes=tests,
        n_train_per_class=PAPER_TRAIN_PER_CLASS if paper else DESK_TRAIN_PER_CLASS,
        n_test_per_class=PAPER_TEST_PER_CLASS if paper else DESK_TEST_PER_CLASS,
        # train-fitted min-max clips shifted spectra against the domain
        # ceiling, collapsing the chaos features; the preset scales each
        # spectrum independently so shifted sets stay inside [0, 1)
        per_instance_scaling=model == "fft_chaosfex",
    )


# ---------------------------------------------------------------------------
# feature stages


# rows the feature stage transforms at a time; every step of the transform
# acts on each row alone, so the block size never changes a feature bit
TRANSFORM_BLOCK_ROWS = 256


@dataclass(frozen=True)
class FeatureStage:
    """Feature transform fitted on the training split (scaler may be None)."""

    scaler: MinMaxScaler | None
    config: ExperimentConfig

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Features of every row of ``values``, computed one block of
        ``TRANSFORM_BLOCK_ROWS`` rows at a time into one preallocated matrix,
        so the transients of the spectra, scaling and firing are those of a
        block, not of the whole set."""
        first = self._transform_rows(values[:TRANSFORM_BLOCK_ROWS])
        out = np.empty((len(values), first.shape[1]))
        out[: len(first)] = first
        for start in range(TRANSFORM_BLOCK_ROWS, len(values), TRANSFORM_BLOCK_ROWS):
            stop = start + TRANSFORM_BLOCK_ROWS
            try:
                out[start:stop] = self._transform_rows(values[start:stop])
            except ValueError as exc:
                # a row an error names counts from the block's first row
                raise ValueError(f"in the block from row {start}: {exc}") from exc
        return out

    def _transform_rows(self, values: np.ndarray) -> np.ndarray:
        cfg = self.config
        feats = _unscaled_features(cfg, values)
        if cfg.model != "fft_chaosfex":
            return feats
        # rebinding ``feats`` frees each step's input before the next allocates
        if cfg.per_instance_scaling:
            feats = spectral.scale_per_instance(feats, cfg.headroom)
        else:
            feats = spectral.apply_scaler(self.scaler, feats)
        return extract_ttss(feats, cfg.gls)


def _unscaled_features(config: ExperimentConfig, values: np.ndarray) -> np.ndarray:
    """Raw values or amplitude spectra, before any scaling into the neuron
    domain; a row with a non-finite value is refused by its index."""
    if config.demean_first:
        values = spectral.demean(values)
    if config.model == "raw":
        values = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite series value at row {int(np.argmin(finite))}")
        return values
    amps = spectral.amplitude_spectra(values)
    return amps if config.keep_dc else amps[:, 1:]


def fit_feature_stage(config: ExperimentConfig, train_values: np.ndarray) -> FeatureStage:
    scaler = None
    if config.model == "fft_chaosfex" and not config.per_instance_scaling:
        scaler = spectral.fit_scaler(_unscaled_features(config, train_values), config.headroom)
    return FeatureStage(scaler=scaler, config=config)


# ---------------------------------------------------------------------------
# experiment run


@dataclass(frozen=True)
class ReportRow:
    dataset: str
    report: ClassReport


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[ReportRow, ...]
    timings: dict[str, float] = field(default_factory=dict, compare=False)

    def row(self, dataset: str) -> ClassReport:
        for r in self.rows:
            if r.dataset == dataset:
                return r.report
        raise KeyError(dataset)


def config_fingerprint(config: ExperimentConfig) -> str:
    """Hash of everything that determines the training data and features."""
    return hashlib.blake2b(
        json.dumps(config_to_dict(config), sort_keys=True).encode(), digest_size=16
    ).hexdigest()


@contextmanager
def in_stage(stage: str, dataset: str):
    """Re-raise any error as a RuntimeError that names the stage and the set."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"{stage} stage failed on {dataset!r}: {exc}") from exc


def split_indices(config: ExperimentConfig, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    split_seed = derive_seed(config.master_seed, config.train_recipe.name, "split")
    return stratified_split(labels, config.split_fraction, split_seed)


def dataset_source(config: ExperimentConfig, recipe: DatasetRecipe) -> dict:
    """Everything ``build_dataset`` draws ``recipe``'s dataset from; a
    persisted dataset records it, and featurize holds its config to it."""
    train = recipe.name == config.train_recipe.name
    return {
        "master_seed": config.master_seed,
        "recipe": to_doc(recipe),
        "n_per_class": config.n_train_per_class if train else config.n_test_per_class,
        "length": config.length,
    }


def build_all_datasets(config: ExperimentConfig) -> tuple[Dataset, list[Dataset]]:
    """The training-recipe dataset plus one dataset per test recipe."""
    sets = []
    for recipe in (config.train_recipe, *config.test_recipes):
        with in_stage("generate", recipe.name):
            n = dataset_source(config, recipe)["n_per_class"]
            sets.append(build_dataset(recipe, n, config.length, config.master_seed))
    return sets[0], sets[1:]


def assemble_sets(
    config: ExperimentConfig,
    train_set: Dataset,
    test_sets: list[Dataset],
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(display name, values, labels) rows: train split, held-out, then tests.

    Only the training dataset is indexed (copied) into its two splits; each
    test set passes its own matrices. The split is a pure function of the
    configuration, so regenerated and reloaded datasets partition identically.
    """
    values, labels = train_set.values, train_set.labels
    train_idx, heldout_idx = split_indices(config, labels)
    named = [
        (f"{config.train_recipe.name} (train split)", values[train_idx], labels[train_idx]),
        (f"{config.train_recipe.name} (held-out)", values[heldout_idx], labels[heldout_idx]),
    ]
    for recipe, dataset in zip(config.test_recipes, test_sets):
        named.append((recipe.name, dataset.values, dataset.labels))
    return named


def featurize_sets(config: ExperimentConfig, train_set: Dataset, test_sets: list[Dataset]):
    """Yield (display name, run-dir slug, features, labels) for each set of
    ``assemble_sets`` in turn, with the feature stage fitted on the train
    split. A set's values are dropped before the next set is transformed."""
    named = assemble_sets(config, train_set, test_sets)
    del train_set, test_sets  # ``named`` now holds the only reference to each set's values
    with in_stage("featurize", named[0][0]):
        stage = fit_feature_stage(config, named[0][1])
    for slug in [*SPLIT_SLUGS, *(r.name for r in config.test_recipes)]:
        name, values, labels = named.pop(0)
        with in_stage("featurize", name):
            features = stage.transform(values)
        del values
        yield name, slug, features, labels


def train_model(config: ExperimentConfig, name: str, features: np.ndarray,
                labels: np.ndarray) -> LrModel:
    """The classifier fitted on set ``name``, stamped with the config fingerprint."""
    with in_stage("train", name):
        return classify.train_lr(features, labels, config.lr_hyper,
                                 fingerprint=config_fingerprint(config))


def score_set(model: LrModel, name: str, features: np.ndarray,
              labels: np.ndarray) -> ReportRow:
    """Set ``name``'s report row: ``model``'s predictions scored against ``labels``."""
    with in_stage("evaluate", name):
        pred, _ = classify.predict(model, features)
        return ReportRow(dataset=name, report=classify.evaluate(pred, labels))


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Train the configured model and evaluate it on every configured set."""
    clock = time.perf_counter
    t0 = clock()
    # no reference to the datasets stays here, so each is freed once featurized
    sets = featurize_sets(config, *build_all_datasets(config))
    t1 = clock()
    featurized = [(name, features, labels) for name, _, features, labels in sets]
    t2 = clock()
    model = train_model(config, *featurized[0])
    t3 = clock()
    rows = tuple(score_set(model, *s) for s in featurized)
    timings = {"generate": t1 - t0, "featurize": t2 - t1, "train": t3 - t2, "evaluate": clock() - t3}
    return ExperimentReport(config=config, rows=rows, timings=timings)


# ---------------------------------------------------------------------------
# config (de)serialization


def config_to_dict(config: ExperimentConfig) -> dict:
    # the resolved hyperparameters, not ``lr: null``: fingerprints and report
    # bytes depend on them
    return {**to_doc(config), "lr": to_doc(config.lr_hyper)}


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    if isinstance(doc.get("model"), str):
        try:
            doc = {**doc, "model": canonical_model(doc["model"])}
        except ValueError as exc:
            raise ValueError(f"config key 'model': {exc}") from exc
    try:
        return from_doc(ExperimentConfig, doc)
    except DecodeError as exc:
        raise ValueError(exc.render("config key")) from exc


# ---------------------------------------------------------------------------
# reports on disk


def report_to_dict(report: ExperimentReport) -> dict:
    # timings are deliberately excluded: report.json must be byte-identical
    # across reruns with the same configuration
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(report.config),
        "rows": [{"dataset": r.dataset, **to_doc(r.report)} for r in report.rows],
    }


def _fmt_pair(pair: tuple[float | None, float | None]) -> str:
    return "(%s, %s)" % tuple("NA" if v is None else f"{v:.2f}" for v in pair)


def report_to_text(report: ExperimentReport) -> str:
    lines = [
        f"model: {report.config.model}    seed: {report.config.master_seed}    "
        f"train: {report.config.n_train_per_class}/class    "
        f"test: {report.config.n_test_per_class}/class    length: {report.config.length}",
        "",
    ]
    header = f"{'Dataset':<28}{'Precision':<16}{'Recall':<16}{'F1':<16}{'Accuracy':<10}{'Support'}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.rows:
        r = row.report
        lines.append(
            f"{row.dataset:<28}{_fmt_pair(r.precision):<16}{_fmt_pair(r.recall):<16}"
            f"{_fmt_pair(r.f1):<16}{r.accuracy * 100:>7.2f}%  ({r.support[0]}, {r.support[1]})"
        )
    if report.timings:
        lines.append("")
        lines.append(
            "timings: " + ", ".join(f"{k} {v:.2f}s" for k, v in report.timings.items())
        )
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_text(
        out / "report.json", json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    )
    write_text(out / "report.txt", report_to_text(report))


# ---------------------------------------------------------------------------
# plot data


def emit_plot_data(values: np.ndarray, path: str | Path) -> None:
    """Write a two-column (index, value) text file for external plotting."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("refusing to write plot data for an empty vector")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text(path, "".join(f"{i} {x!r}\n" for i, x in enumerate(v.tolist())))


def count_local_extrema(curve: np.ndarray) -> int:
    """Strict turning points of a curve, with plateaus compressed first."""
    diffs = np.diff(np.asarray(curve, dtype=np.float64))
    signs = np.sign(diffs)
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] != signs[:-1]))
