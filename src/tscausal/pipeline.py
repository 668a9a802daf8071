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
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classify, spectral
from .artifacts import (FEATURES_MANIFEST, REPORT_JSON, REPORT_TEXT, DatasetManifest,
                        dataset_manifest_path, read_dataset_manifest, write_text)
from .artifacts import persist_dataset  # noqa: F401 -- the CLI calls it through pipeline
from .chaosfex import GlsParams, extract_ttss
from .classify import CHAOSFEX_LR, DEFAULT_LR, ClassReport, LrHyper, LrModel
from .codec import DecodeError, from_doc, to_doc
from .seriesgen import (
    CAUSAL_KINDS,
    Kind,
    ProcessSpec,
    generate,  # noqa: F401 -- bench/layertrace.py wraps pipeline.generate
    generate_into,
    streams,
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
# the features directories of the train recipe's two splits, in this order
SPLIT_SLUGS = ("train-split", "held-out")


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
        # a run-directory entry under datasets/ and features/
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

# the test sets of the paper's Table 3, in its order
TEST_RECIPES = (SHIFT_I, SHIFT_II, AR100, ARMA_TEST, ARFIMA_TEST)
RECIPES = {r.name.lower(): r for r in (AR_TRAIN, *TEST_RECIPES)}


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


@dataclass(frozen=True, eq=False)
class Dataset:
    """What ``build_dataset`` draws for a recipe: row i is the series of
    ``specs[i]`` simulated from the stream of ``seeds[i]``, of class
    ``labels[i]`` (a read-only int64 vector), 1 causal and 0 non-causal, the
    causal rows first. A dataset holds no values: ``featurize_sets``
    simulates each dataset its ``dataset_for`` returns into that set's
    features, and ``generate_many(dataset.specs, dataset.seeds)`` simulates
    its whole matrix."""

    specs: tuple[ProcessSpec, ...] = field(repr=False)
    seeds: tuple[int, ...] = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.labels.setflags(write=False)


def build_dataset(
    recipe: DatasetRecipe, n_per_class: int, length: int, master_seed: int
) -> Dataset:
    """Draw ``recipe``'s rows and label them: causal rows first, labelled 1,
    then non-causal rows, labelled 0. Nothing is simulated here.

    Row i of a class draws its spec (causal rows only) and its series seed
    from the stream of ``np.random.default_rng(derive_seed(master_seed,
    recipe.name, part, i))``, ``part`` being "causal" or "noncausal", through
    one re-pointed generator per class.
    """
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")

    def rngs(part: str) -> Iterator[np.random.Generator]:
        return streams([derive_seed(master_seed, recipe.name, part, i) for i in range(n_per_class)])

    specs: list[ProcessSpec] = []
    seeds: list[int] = []
    if recipe.causal is not None:
        for rng in rngs("causal"):
            specs.append(_draw_spec(recipe.causal, length, rng))
            seeds.append(int(rng.integers(0, 2**63)))
    n_causal = len(specs)
    if recipe.noncausal is not None:
        spec = _noise_spec(recipe.noncausal, length)
        for rng in rngs("noncausal"):
            specs.append(spec)
            seeds.append(int(rng.integers(0, 2**63)))
    labels = (np.arange(len(specs)) < n_causal).astype(np.int64)
    return Dataset(tuple(specs), tuple(seeds), labels)


@dataclass(frozen=True)
class DatasetSource:
    """Everything ``build_dataset`` draws a dataset from: a dataset manifest's ``source``."""

    master_seed: int
    recipe: DatasetRecipe
    n_per_class: int
    length: int

    def build(self) -> Dataset:
        return build_dataset(self.recipe, self.n_per_class, self.length, self.master_seed)


def load_dataset(dir_path: str | Path, manifest: DatasetManifest | None = None) -> Dataset:
    """The dataset drawn from the ``source`` of ``dir_path``'s manifest, as
    ``make_dataset`` draws it; an error is prefixed with the manifest's path.
    ``manifest``, if already read with ``read_dataset_manifest``, is not read again."""
    if manifest is None:
        manifest = read_dataset_manifest(dir_path)
    try:
        return from_doc(DatasetSource, manifest.source, "source").build()
    except ValueError as exc:
        raise ValueError(f"{dataset_manifest_path(dir_path)}: {exc}") from exc


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
    test_recipes: tuple[DatasetRecipe, ...] = TEST_RECIPES
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
        if self.model != "raw" and self.length < 2:
            raise ValueError(f"length must be >= 2 for model {self.model!r}'s spectra, got {self.length}")
        if not 0 < self.headroom < 0.1:
            raise ValueError(f"headroom must lie in (0, 0.1), got {self.headroom}")
        if self.train_recipe.causal is None or self.train_recipe.noncausal is None:
            raise ValueError(f"train_recipe {self.train_recipe.name!r} must define both a causal "
                             "and a noncausal family, one per class")
        names = [self.train_recipe.name, *(r.name for r in self.test_recipes)]
        if len(set(names)) != len(names):
            raise ValueError(f"recipe names must be unique within a config, got {names}")
        for i, recipe in enumerate(self.test_recipes):
            if recipe.name in (*SPLIT_SLUGS, Path(FEATURES_MANIFEST).name):
                raise ValueError(f"test_recipes[{i}].name {recipe.name!r} is the features "
                                 f"directory of a split or the name of {FEATURES_MANIFEST}")
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
    tests = TEST_RECIPES if model == "fft_chaosfex" else (SHIFT_I, SHIFT_II)
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


# rows the feature stage reads at a time; every step of the transform acts
# on each row alone, so the block size never changes a feature bit, and a
# block's temporaries take about 2 MB at 2,000 values
TRANSFORM_BLOCK_ROWS = 64


def _map_blocks(fn: Callable[[np.ndarray], np.ndarray], rows: range,
                block_of: Callable[[int, int], np.ndarray]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first row, ``fn(block_of(a, b))``) for each block [a, b) of
    ``TRANSFORM_BLOCK_ROWS`` rows of ``rows``, in order, so that only a
    block is ever made or gathered. An empty range is one empty block, so a
    caller meets its error. An error in a block that does not start at row 0
    names the block's first row, and a row it names counts from there."""
    for start in range(rows.start, max(rows.stop, rows.start + 1), TRANSFORM_BLOCK_ROWS):
        stop = min(start + TRANSFORM_BLOCK_ROWS, rows.stop)
        try:
            block = block_of(start, stop)
            result = fn(block)
        except ValueError as exc:
            if not start:
                raise
            raise ValueError(f"in the block from row {start}: {exc}") from exc
        del block  # the caller works on the result with the block freed
        yield start, result


def _feature_width(config: ExperimentConfig, length: int) -> int:
    """Features per row of series of ``length`` values: the values under
    ``raw``, else the bins of the amplitude spectrum that ``keep_dc`` keeps.
    It is never more than ``length``."""
    if config.model == "raw":
        return length
    return length // 2 + 1 - (not config.keep_dc)


def _write_unscaled(config: ExperimentConfig, out: np.ndarray, rows: range,
                    block_of: Callable[[int, int], np.ndarray]) -> None:
    """Write the unscaled features of the series ``block_of`` gives for
    ``rows``, a block at a time, into the same rows of ``out``."""
    def unscaled(block: np.ndarray) -> np.ndarray:
        return _unscaled_features(config, block)

    for start, feats in _map_blocks(unscaled, rows, block_of):
        out[start:start + len(feats)] = feats


@dataclass(frozen=True)
class FeatureStage:
    """Feature transform fitted on the training split (scaler may be None).

    A transform has two passes. The first writes every row's unscaled
    features (``_unscaled_features``) into the output; under
    ``fft_chaosfex`` the second scales each block of them into the neuron
    domain and writes its TTSS features over it. Every step acts on each row
    alone, so neither the block size nor the passes change a feature bit."""

    scaler: MinMaxScaler | None
    config: ExperimentConfig

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Features of every row of ``values``, computed one block of
        ``TRANSFORM_BLOCK_ROWS`` rows at a time into one preallocated matrix.
        The transients of the spectra, scaling and firing are those of a
        block, so the output is the one array the size of the set that a
        transform makes."""
        out = np.empty((len(values), _feature_width(self.config, values.shape[1])))
        _write_unscaled(self.config, out, range(len(values)), lambda a, b: values[a:b])
        self._fire(out)
        return out

    def _fire(self, features: np.ndarray) -> None:
        """The second pass, in place: under ``fft_chaosfex``, write each block
        of ``features``' TTSS features over its unscaled spectra."""
        if self.config.model != "fft_chaosfex":
            return
        for start, feats in _map_blocks(self._scale_and_fire, range(len(features)),
                                        lambda a, b: features[a:b]):
            features[start:start + len(feats)] = feats

    def _scale_and_fire(self, spectra: np.ndarray) -> np.ndarray:
        cfg = self.config
        if cfg.per_instance_scaling:
            scaled = spectral.scale_per_instance(spectra, cfg.headroom)
        else:
            scaled = spectral.apply_scaler(self.scaler, spectra)
        return extract_ttss(scaled, cfg.gls)


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


def _fit(config: ExperimentConfig, rows: range,
         unscaled_of: Callable[[int, int], np.ndarray]) -> FeatureStage:
    """The feature stage fitted on the training rows' unscaled features,
    which ``unscaled_of`` gives a block of ``rows`` at a time. A
    train-fitted scaler is fitted on each block in turn and its per-feature
    minima and maxima are reduced across blocks, so the split's features are
    never held whole; min and max do not round, so the result equals a fit
    on the whole split bit for bit."""
    scaler = None
    if config.model == "fft_chaosfex" and not config.per_instance_scaling:
        def fit(block: np.ndarray) -> MinMaxScaler:
            return spectral.fit_scaler(block, config.headroom)

        for _, block_scaler in _map_blocks(fit, rows, unscaled_of):
            scaler = block_scaler if scaler is None else MinMaxScaler(
                np.minimum(scaler.minimum, block_scaler.minimum),
                np.maximum(scaler.maximum, block_scaler.maximum), config.headroom)
    return FeatureStage(scaler=scaler, config=config)


def fit_feature_stage(config: ExperimentConfig, values: np.ndarray) -> FeatureStage:
    """The feature stage fitted on the training series ``values``, a block
    of ``TRANSFORM_BLOCK_ROWS`` rows at a time."""
    return _fit(config, range(len(values)), lambda a, b: _unscaled_features(config, values[a:b]))


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


def dataset_source(config: ExperimentConfig, recipe: DatasetRecipe) -> DatasetSource:
    """``recipe``'s source as ``config`` sizes and seeds it; featurize holds a
    dataset manifest's source to it."""
    train = recipe.name == config.train_recipe.name
    return DatasetSource(config.master_seed, recipe,
                         config.n_train_per_class if train else config.n_test_per_class,
                         config.length)


def make_dataset(config: ExperimentConfig, recipe: DatasetRecipe) -> Dataset:
    """``recipe``'s dataset as ``config`` sizes and seeds it, drawn and not
    simulated; an error names the recipe."""
    with in_stage("generate", recipe.name):
        return dataset_source(config, recipe).build()


def set_names(config: ExperimentConfig) -> list[tuple[str, str]]:
    """The display name and features directory of each of ``config``'s sets, in order:
    the train recipe's two splits, then each test recipe under its own name."""
    train = config.train_recipe.name
    return [(f"{train} (train split)", SPLIT_SLUGS[0]), (f"{train} (held-out)", SPLIT_SLUGS[1]),
            *((recipe.name, recipe.name) for recipe in config.test_recipes)]


def assemble_sets(config: ExperimentConfig,
                  train_set: Dataset) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (row indices, labels) of the training dataset's two splits, train
    split first: a pure function of the config, and indices into the
    rows of ``train_set``, which the feature stage gathers a block at a time."""
    return [(rows, train_set.labels[rows]) for rows in split_indices(config, train_set.labels)]


def _permute_rows(matrix: np.ndarray, order: np.ndarray) -> None:
    """Reorder the rows of ``matrix`` in place into ``matrix[order]``,
    ``order`` being a permutation of its row indices. Each cycle of the
    permutation is followed through one row of scratch, so every row is
    moved once and none is recomputed."""
    order = order.tolist()  # a row moved is marked as a fixed point
    scratch = np.empty(matrix.shape[1:], matrix.dtype)
    for first in range(len(order)):
        if order[first] == first:
            continue
        scratch[...] = matrix[first]
        row = first
        while order[row] != first:
            source = order[row]
            matrix[row] = matrix[source]
            order[row] = row
            row = source
        matrix[row] = scratch
        order[row] = row


def _buffer_floats(config: ExperimentConfig) -> int:
    """The floats of every set's buffer: the most that any of ``config``'s
    sets needs for its features or for its causal series."""
    width, most = _feature_width(config, config.length), 0
    for recipe in (config.train_recipe, *config.test_recipes):
        per_class = dataset_source(config, recipe).n_per_class
        causal = per_class * (recipe.causal is not None)
        rows = causal + per_class * (recipe.noncausal is not None)
        most = max(most, rows * width, causal * config.length)
    return most


def _simulate_unscaled(config: ExperimentConfig, dataset: Dataset, floats: int) -> np.ndarray:
    """The first pass over ``dataset``: every row's unscaled features, in row
    order, as the front of a new zeroed buffer of ``floats`` float64 values.

    The dataset is simulated into the buffer class by class. Its causal
    rows, one recursive run, are simulated whole at the front of the buffer
    and their features written over them a block at a time, as a block of
    rows [a, b) writes below where row b starts. The white-noise rows are
    then simulated one ``TRANSFORM_BLOCK_ROWS`` block at a time, and each
    block's features go into the rows after the causal ones, over causal
    series already read. So the buffer holds max(rows x feature width,
    causal rows x length) values, and no more than one class's series are
    ever whole."""
    specs, seeds, length = dataset.specs, dataset.seeds, config.length
    n, causal = len(specs), int(np.count_nonzero(dataset.labels))
    buffer = np.zeros(floats)
    series = buffer[:causal * length].reshape(causal, length)
    generate_into(specs[:causal], seeds[:causal], series)
    out = buffer[:n * _feature_width(config, length)].reshape(n, -1)

    def white(a: int, b: int) -> np.ndarray:
        block = np.zeros((b - a, length))
        generate_into(specs[a:b], seeds[a:b], block)
        return block

    _write_unscaled(config, out, range(causal), lambda a, b: series[a:b])
    _write_unscaled(config, out, range(causal, n), white)
    return out


def featurize_sets(config: ExperimentConfig, dataset_for: Callable[[DatasetRecipe], Dataset]):
    """Yield (display name, features directory, features, labels) for each
    set ``set_names`` names, with the feature stage fitted on the train
    split. ``dataset_for(recipe)`` draws a recipe's dataset when its set's
    turn comes.

    Each dataset is simulated straight into its set's own buffer, class by
    class, and the set's features are a view of that buffer: the first pass
    (``_simulate_unscaled``) writes every row's unscaled features, a
    train-fitted scaler is fitted on the train rows' spectra already in the
    buffer, and the second pass (``FeatureStage._fire``) scales and fires
    each block in place. Every row of the train dataset is transformed in
    order, as a test set's is; its feature rows are then moved in place into
    split order, the train rows before the held-out rows, and the two splits
    are disjoint views of the one buffer.

    Every set's buffer has the size of the largest set's, a pure function of
    the config. glibc's malloc raises its mmap threshold to the size of a
    mapping it frees, so once the first buffer is dropped every later one
    comes from its heap. At one size each buffer fits the chunk the set
    before it freed, and the heap holds one buffer; a larger buffer after a
    smaller one would not fit and would grow the heap by a second buffer,
    which stays resident. No two sets' buffers are ever alive at once, and a
    caller that drops each set's features before asking for the next holds
    one buffer at most."""
    (train, train_dir), (held, held_dir), *tests = set_names(config)
    floats = _buffer_floats(config)
    dataset = dataset_for(config.train_recipe)
    (rows, labels), (held_rows, held_labels) = assemble_sets(config, dataset)
    with in_stage("featurize", config.train_recipe.name):
        every = _simulate_unscaled(config, dataset, floats)
        del dataset
        stage = _fit(config, range(len(rows)), lambda a, b: every[rows[a:b]])
        stage._fire(every)
    _permute_rows(every, np.concatenate([rows, held_rows]))
    features, held_features = every[:len(rows)], every[len(rows):]
    del every
    yield train, train_dir, features, labels
    del features
    yield held, held_dir, held_features, held_labels
    del held_features
    for recipe, (name, set_dir) in zip(config.test_recipes, tests):
        dataset = dataset_for(recipe)
        labels = dataset.labels
        with in_stage("featurize", name):
            features = _simulate_unscaled(config, dataset, floats)
            del dataset
            stage._fire(features)
        yield name, set_dir, features, labels
        del features


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
    """Train the configured model and evaluate it on every configured set.

    Sets stream through the stages one at a time: the model is trained on
    the first set featurized, the train split, and every set is scored as
    soon as it is featurized and then dropped, so no two sets' features are
    alive at once. Each timing sums its stage over the sets: ``generate``
    times the draws of each dataset's specs and seeds, and ``featurize`` its
    simulation too.
    """
    clock = time.perf_counter
    timings = dict.fromkeys(("generate", "featurize", "train", "evaluate"), 0.0)

    def dataset_for(recipe: DatasetRecipe) -> Dataset:
        t = clock()
        dataset = make_dataset(config, recipe)
        timings["generate"] += clock() - t
        return dataset

    start = clock()
    model, rows = None, []
    for name, _, features, labels in featurize_sets(config, dataset_for):
        if model is None:  # the first set is the train split
            t = clock()
            model = train_model(config, name, features, labels)
            timings["train"] = clock() - t
        t = clock()
        rows.append(score_set(model, name, features, labels))
        timings["evaluate"] += clock() - t
        del features  # before the next set is featurized
    # featurize is what the other stages leave of the run
    timings["featurize"] = clock() - start - sum(timings.values())
    return ExperimentReport(config=config, rows=tuple(rows), timings=timings)


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
        out / REPORT_JSON, json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    )
    write_text(out / REPORT_TEXT, report_to_text(report))


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

