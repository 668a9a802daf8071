import dataclasses
import json
import re

import numpy as np
import pytest

from helpers import (
    build_dataset_oracle,
    count_local_extrema,
    persist_built,
    plant_row,
    scalar_series,
    series_of,
)
from lifetimes import buffer_of, traced_peak, watch_sets
from tscausal.chaosfex import GlsParams, firing_table
from tscausal.classify import CHAOSFEX_LR, DEFAULT_LR, LrHyper
from tscausal import pipeline, seriesgen, spectral
from tscausal.codec import from_doc, to_doc
from tscausal.pipeline import (
    AR100,
    AR_TRAIN,
    ARFIMA_TEST,
    ARMA_TEST,
    RECIPES,
    SERIES_LENGTH,
    SHIFT_I,
    SHIFT_II,
    CausalFamily,
    DatasetRecipe,
    ExperimentConfig,
    NoiseFamily,
    assemble_sets,
    build_dataset,
    canonical_model,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    dataset_source,
    derive_seed,
    emit_plot_data,
    fit_feature_stage,
    load_dataset,
    make_dataset,
    persist_dataset,
    report_to_dict,
    report_to_text,
    run_experiment,
    set_names,
    split_indices,
    stratified_split,
    table_config,
    write_report,
)
from tscausal.seriesgen import CAUSAL_KINDS, Kind


def tiny_config(**kw):
    base = dict(
        master_seed=7,
        model="fft",
        test_recipes=(SHIFT_I,),
        n_train_per_class=12,
        n_test_per_class=6,
        length=128,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# seeds and recipes


def test_derive_seed_is_stable_and_64_bit():
    a = derive_seed(42, "AR-train", "causal", 0)
    assert a == derive_seed(42, "AR-train", "causal", 0)
    assert 0 <= a < 2**64


def test_derive_seed_separates_parts():
    seeds = {
        derive_seed(42, "a", "b"),
        derive_seed(42, "ab", ""),
        derive_seed(42, "a", "b", 0),
        derive_seed(43, "a", "b"),
    }
    assert len(seeds) == 4


def test_bundled_recipe_parameters():
    assert AR_TRAIN.causal.lag_lo == 1 and AR_TRAIN.causal.lag_hi == 20
    assert AR_TRAIN.causal.coeff_lo == 0.8 and AR_TRAIN.causal.coeff_hi == 0.9
    assert AR_TRAIN.noncausal.variance == 0.01
    assert SHIFT_I.noncausal.variance == 0.09
    assert SHIFT_II.noncausal.kind == Kind.NOISE_UNIFORM
    assert (SHIFT_II.noncausal.lo, SHIFT_II.noncausal.hi) == (-0.6, 0.6)
    assert AR100.causal.lag_lo == AR100.causal.lag_hi == 100
    assert AR100.noncausal is None
    assert ARMA_TEST.causal.kind == Kind.ARMA
    assert ARFIMA_TEST.causal.kind == Kind.ARFIMA
    assert set(RECIPES) == {"ar-train", "shift-i", "shift-ii", "ar100", "arma", "arfima"}


def test_recipe_requires_a_family():
    with pytest.raises(ValueError):
        DatasetRecipe("empty")


@pytest.mark.parametrize("kw, message", [
    ({"kind": Kind.NOISE_NORMAL}, "need kind ar, arma or arfima, got noise_normal"),
    ({"lag_lo": 0}, "1 <= lag_lo <= lag_hi"),
    ({"lag_lo": 5, "lag_hi": 3}, "1 <= lag_lo <= lag_hi"),
    ({"ma_lag_lo": 4, "ma_lag_hi": 2}, "1 <= ma_lag_lo <= ma_lag_hi"),
    ({"coeff_lo": 0.9, "coeff_hi": 0.8}, "-1 < coeff_lo <= coeff_hi < 1"),
    ({"coeff_hi": 1.0}, "-1 < coeff_lo <= coeff_hi < 1"),
    ({"d_lo": -1.0}, "-1 < d_lo <= d_hi < 1"),
    ({"d_lo": 0.4, "d_hi": 0.2}, "-1 < d_lo <= d_hi < 1"),
    ({"noise_variance": 0.0}, "need noise_variance > 0, got 0.0"),
])
def test_causal_family_rejects_bad_ranges(kw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CausalFamily(**{"kind": Kind.AR, **kw})


@pytest.mark.parametrize("kw, message", [
    ({"kind": Kind.ARMA}, "need kind noise_normal or noise_uniform, got arma"),
    ({"variance": -0.1}, "need variance > 0, got -0.1"),
    ({"lo": 0.5, "hi": 0.5}, "need lo < hi, got 0.5, 0.5"),
])
def test_noise_family_rejects_bad_ranges(kw, message):
    with pytest.raises(ValueError, match=message):
        NoiseFamily(**{"kind": Kind.NOISE_UNIFORM, **kw})


def test_build_dataset_layout_and_determinism():
    data = build_dataset(AR_TRAIN, n_per_class=4, length=64, master_seed=1)
    labels = data.labels
    assert np.array_equal(labels, [1, 1, 1, 1, 0, 0, 0, 0])
    again = build_dataset(AR_TRAIN, n_per_class=4, length=64, master_seed=1)
    assert data.specs == again.specs and data.seeds == again.seeds
    assert np.array_equal(series_of(data), series_of(again))


def test_build_dataset_per_index_seeds_are_independent():
    few = build_dataset(AR_TRAIN, n_per_class=3, length=64, master_seed=1)
    many = build_dataset(AR_TRAIN, n_per_class=5, length=64, master_seed=1)
    # growing the dataset must not disturb earlier rows of either class
    few_values, many_values = series_of(few), series_of(many)
    for i in range(3):
        assert np.array_equal(few_values[i], many_values[i])
        assert np.array_equal(few_values[3 + i], many_values[5 + i])


def test_build_dataset_draws_lags_in_range():
    specs, _ = build_dataset_oracle(AR_TRAIN, 50, 64, 3)
    lags = {spec.ar_terms[0][0] for spec in specs if spec.kind == Kind.AR}
    coeffs = [spec.ar_terms[0][1] for spec in specs if spec.kind == Kind.AR]
    assert min(lags) >= 1 and max(lags) <= 20
    assert len(lags) > 5
    assert all(0.8 <= c <= 0.9 for c in coeffs)


def test_build_dataset_causal_only_recipe():
    data = build_dataset(AR100, n_per_class=3, length=128, master_seed=2)
    assert series_of(data).shape == (3, 128)
    assert all(data.labels == 1)
    specs, _ = build_dataset_oracle(AR100, 3, 128, 2)
    assert all(spec.ar_terms[0][0] == 100 for spec in specs)


@pytest.mark.parametrize("recipe", RECIPES.values(), ids=RECIPES.keys())
def test_build_dataset_equals_its_per_series_oracle_bit_for_bit(recipe):
    data = build_dataset(recipe, n_per_class=5, length=SERIES_LENGTH, master_seed=7)
    specs, seeds = build_dataset_oracle(recipe, 5, SERIES_LENGTH, 7)
    assert data.specs == tuple(specs) and data.seeds == tuple(seeds)
    assert data.labels.tolist() == [1 if s.kind in CAUSAL_KINDS else 0 for s in specs]
    # an ARFIMA row is its scalar ARMA core, convolved as generate_many does
    want = np.array([scalar_series(dataclasses.replace(spec, kind=Kind.ARMA, d=0.0)
                                   if spec.kind == Kind.ARFIMA else spec, seed)
                     for spec, seed in zip(specs, seeds)])
    arfima = [i for i, spec in enumerate(specs) if spec.kind == Kind.ARFIMA]
    if arfima:
        cores = want[arfima]
        seriesgen._fractionally_integrate(cores, [specs[i].d for i in arfima])
        want[arfima] = cores
    assert np.array_equal(series_of(data).view(np.uint64), want.view(np.uint64))


def test_build_dataset_rejects_bad_count():
    with pytest.raises(ValueError):
        build_dataset(AR_TRAIN, n_per_class=0, length=64, master_seed=1)


def test_stratified_split_counts_and_disjointness():
    labels = np.array([0] * 10 + [1] * 10)
    train, rest = stratified_split(labels, 0.7, seed=5)
    assert train.size == 14 and rest.size == 6
    assert np.array_equal(np.sort(np.concatenate([train, rest])), np.arange(20))
    assert np.sum(labels[train] == 1) == 7
    assert np.sum(labels[rest] == 1) == 3


def test_stratified_split_deterministic():
    labels = np.array([0, 1] * 25)
    a = stratified_split(labels, 0.7, seed=9)
    b = stratified_split(labels, 0.7, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = stratified_split(labels, 0.7, seed=10)
    assert not np.array_equal(a[0], c[0])


def test_stratified_split_rejects_bad_fraction():
    with pytest.raises(ValueError):
        stratified_split(np.array([0, 1]), 1.0, seed=1)


# ---------------------------------------------------------------------------
# configuration


def test_canonical_model_aliases():
    assert canonical_model("RAW") == "raw"
    assert canonical_model("FourierAmplitude") == "fft"
    assert canonical_model("fourierchaosfex") == "fft_chaosfex"
    with pytest.raises(ValueError, match="unknown model"):
        canonical_model("svm")


def test_config_validation():
    with pytest.raises(ValueError, match="model"):
        tiny_config(model="boost")
    with pytest.raises(ValueError, match="split_fraction"):
        tiny_config(split_fraction=1.5)
    with pytest.raises(ValueError, match="counts"):
        tiny_config(n_train_per_class=0)
    with pytest.raises(ValueError, match="unique"):
        tiny_config(test_recipes=(SHIFT_I, SHIFT_I))
    with pytest.raises(ValueError, match="unique"):
        tiny_config(test_recipes=(AR_TRAIN,))


def test_config_lr_hyper_selection():
    assert tiny_config(model="fft").lr_hyper == DEFAULT_LR
    assert tiny_config(model="raw").lr_hyper == DEFAULT_LR
    assert tiny_config(model="fft_chaosfex").lr_hyper == CHAOSFEX_LR
    custom = LrHyper(c=0.5, tol=1e-3, max_iter=10)
    assert tiny_config(lr=custom).lr_hyper == custom


def test_table_presets():
    t1 = table_config("table1-lr")
    t2 = table_config("table2-lr")
    t3 = table_config("table3")
    assert (t1.model, t2.model, t3.model) == ("raw", "fft", "fft_chaosfex")
    assert [r.name for r in t1.test_recipes] == ["shift-I", "shift-II"]
    assert [r.name for r in t2.test_recipes] == ["shift-I", "shift-II"]
    assert [r.name for r in t3.test_recipes] == [
        "shift-I", "shift-II", "AR100", "ARMA", "ARFIMA",
    ]
    assert t3.per_instance_scaling
    assert not t2.per_instance_scaling
    assert t1.n_train_per_class == 250 and t1.n_test_per_class == 150


def test_table_paper_scale():
    cfg = table_config("table3", scale="paper")
    assert cfg.n_train_per_class == 1250 and cfg.n_test_per_class == 1250
    assert cfg.length == 2000
    assert cfg.split_fraction == 0.7


def test_table_config_rejects_unknown():
    with pytest.raises(ValueError, match="unknown table"):
        table_config("table9")
    with pytest.raises(ValueError, match="unknown scale"):
        table_config("table3", scale="huge")


def test_config_round_trips_through_dict():
    cfg = tiny_config(model="fft_chaosfex", per_instance_scaling=True,
                      gls=GlsParams(q=0.4, max_len=500),
                      lr=LrHyper(c=0.2, tol=1e-5, max_iter=50))
    doc = json.loads(json.dumps(config_to_dict(cfg)))
    assert config_from_dict(doc) == cfg


def test_config_from_dict_accepts_recipe_names():
    cfg = config_from_dict({"model": "fft", "test_recipes": ["shift-I", "shift-II"]})
    assert cfg.test_recipes == (SHIFT_I, SHIFT_II)
    assert cfg.train_recipe == AR_TRAIN


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_dict({"modle": "fft"})


def test_config_from_dict_names_the_failing_key():
    with pytest.raises(ValueError, match="config key 'n_train_per_class'"):
        config_from_dict({"n_train_per_class": "many"})


def test_recipe_round_trip_and_lookup():
    doc = json.loads(json.dumps(to_doc(ARFIMA_TEST)))
    assert doc["causal"]["kind"] == "arfima" and doc["noncausal"] is None
    assert from_doc(DatasetRecipe, doc) == ARFIMA_TEST
    assert from_doc(DatasetRecipe, "ar100") == AR100
    with pytest.raises(ValueError, match="unknown recipe 'mystery'"):
        from_doc(DatasetRecipe, "mystery")


@pytest.mark.parametrize("doc, message", [
    ({"per_instance_scaling": "false"}, "'per_instance_scaling': expected a boolean, got a string"),
    ({"master_seed": 1.9}, "'master_seed': expected an integer, got a number"),
    ({"length": True}, "'length': expected an integer, got a boolean"),
    ({"model": 3}, "'model': expected a string, got an integer"),
    ({"gls": {"max_len": 10.7}}, "'gls.max_len': expected an integer"),
    ({"gls": {"q": 1.5}}, "'gls': q must lie in [0, 1)"),
    ({"lr": {"c": 1, "tol": 0.1, "maxiter": 5}}, "unknown config key 'lr.maxiter'"),
    ({"test_recipes": ["shift-I", 4]}, "'test_recipes[1]': expected an object, got an integer"),
    ({"test_recipes": ["mystery"]}, "'test_recipes[0]': unknown recipe 'mystery'"),
    ({"test_recipes": [{"nme": "x", "causal": {"kind": "ar"}}]},
     "unknown config key 'test_recipes[0].nme'"),
    ({"test_recipes": [{"causal": {"kind": "ar"}}]},
     "'test_recipes[0].name': required key is missing"),
    ({"train_recipe": {"name": "x", "causal": {"kind": "wavelet"}}},
     "'train_recipe.causal.kind': expected one of"),
    ({"test_recipes": [{"name": "x", "causal": {"kind": "ar", "lag_lo": 5, "lag_hi": 3}}]},
     "'test_recipes[0].causal': need 1 <= lag_lo <= lag_hi, got 5, 3"),
    ({"test_recipes": [{"name": "x", "causal": {"kind": "ar", "lag_hi": 50}}], "length": 40},
     "test_recipes[0].causal.lag_hi 50 exceeds length 40"),
    ({"test_recipes": ["AR100"], "length": 64}, "test_recipes[0].causal.lag_hi 100 exceeds length 64"),
    ({"headroom": 2.0}, "headroom must lie in (0, 0.1), got 2.0"),
    ({"split_fraction": 0.01, "n_train_per_class": 5},
     "split_fraction 0.01 keeps 0 of n_train_per_class 5 rows per class for training"),
    ({"split_fraction": 0.95, "n_train_per_class": 10},
     "split_fraction 0.95 keeps 10 of n_train_per_class 10"),
    ({"threads": 4}, "unknown config key 'threads'"),
])
def test_config_from_dict_is_strict_and_names_the_key(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict(doc)


def test_config_length_check_skips_ma_lags_of_pure_ar():
    noise = NoiseFamily(Kind.NOISE_NORMAL)
    ar = DatasetRecipe("short-ar", causal=CausalFamily(Kind.AR, lag_hi=8, ma_lag_hi=50),
                       noncausal=noise)
    arma = DatasetRecipe("short-arma", causal=CausalFamily(Kind.ARMA, lag_hi=8, ma_lag_hi=50),
                         noncausal=noise)
    assert tiny_config(length=32, train_recipe=ar, test_recipes=()).length == 32
    with pytest.raises(ValueError, match=re.escape("train_recipe.causal.ma_lag_hi 50 exceeds")):
        tiny_config(length=32, train_recipe=arma, test_recipes=())


def test_config_from_dict_widens_integers_to_floats():
    cfg = config_from_dict({"gls": {"q": 0}})
    assert cfg.gls.q == 0.0 and isinstance(cfg.gls.q, float)
    assert config_to_dict(cfg)["gls"]["q"] == 0.0


def test_config_fingerprint_tracks_content():
    base = tiny_config()
    assert config_fingerprint(base) == config_fingerprint(tiny_config())
    assert config_fingerprint(base) != config_fingerprint(tiny_config(master_seed=8))


# ---------------------------------------------------------------------------
# feature stages


def test_feature_stage_raw_passthrough():
    cfg = tiny_config(model="raw")
    values = np.random.default_rng(0).normal(size=(4, 128))
    stage = fit_feature_stage(cfg, values)
    np.testing.assert_array_equal(stage.transform(values), values)


def test_feature_stage_fft_shape_and_dc():
    values = np.random.default_rng(1).normal(loc=3.0, size=(4, 128))
    keep = fit_feature_stage(tiny_config(model="fft"), values)
    assert keep.transform(values).shape == (4, 65)
    drop = fit_feature_stage(tiny_config(model="fft", keep_dc=False), values)
    assert drop.transform(values).shape == (4, 64)
    np.testing.assert_array_equal(keep.transform(values)[:, 1:], drop.transform(values))


def test_feature_stage_demean_kills_dc_column():
    values = np.random.default_rng(2).normal(loc=3.0, size=(4, 128))
    stage = fit_feature_stage(tiny_config(model="fft", demean_first=True), values)
    np.testing.assert_allclose(stage.transform(values)[:, 0], 0.0, atol=1e-9)


def test_feature_stage_chaos_fits_scaler_only_when_needed():
    values = np.abs(np.random.default_rng(3).normal(size=(4, 128)))
    fitted = fit_feature_stage(tiny_config(model="fft_chaosfex"), values)
    assert fitted.scaler is not None
    per_inst = fit_feature_stage(
        tiny_config(model="fft_chaosfex", per_instance_scaling=True), values
    )
    assert per_inst.scaler is None
    out = per_inst.transform(values)
    assert out.shape == (4, 65)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_feature_stage_chaos_train_rows_in_domain():
    values = np.random.default_rng(4).normal(size=(6, 128))
    cfg = tiny_config(model="fft_chaosfex")
    stage = fit_feature_stage(cfg, values)
    out = stage.transform(values)
    assert out.shape == (6, 65)
    assert out.min() >= 0.0 and out.max() <= 1.0


FEATURE_STAGES = {
    "raw": dict(model="raw"),
    "fft-demeaned": dict(model="fft", demean_first=True, keep_dc=False),
    "chaos-fitted": dict(model="fft_chaosfex"),
    "chaos-per-instance": dict(model="fft_chaosfex", per_instance_scaling=True),
}


# one row, whole blocks, and whole blocks and one row more
@pytest.mark.parametrize("rows", [1, 256, 257])
@pytest.mark.parametrize("stage_kw", FEATURE_STAGES.values(), ids=FEATURE_STAGES)
def test_blocked_transform_equals_a_one_shot_transform_bit_for_bit(monkeypatch, stage_kw, rows):
    assert 256 % pipeline.TRANSFORM_BLOCK_ROWS == 0
    rng = np.random.default_rng(rows)
    stage = fit_feature_stage(tiny_config(**stage_kw), rng.normal(size=(rows, 128)))
    # a shifted set, so the fitted scaler clips
    values = rng.normal(loc=0.5, scale=3.0, size=(rows, 128))
    blocked = stage.transform(values)
    monkeypatch.setattr(pipeline, "TRANSFORM_BLOCK_ROWS", rows)
    one_shot = stage.transform(values)
    assert blocked.shape == one_shot.shape and blocked.shape[0] == rows
    np.testing.assert_array_equal(blocked.view(np.uint64), one_shot.view(np.uint64))


def test_a_transform_error_names_the_block_of_the_offending_row():
    rng = np.random.default_rng(6)
    stage = fit_feature_stage(tiny_config(model="fft_chaosfex"), rng.normal(size=(8, 128)))
    block = pipeline.TRANSFORM_BLOCK_ROWS
    values = rng.normal(size=(block + 30, 128))
    values[block + 24] = 1e308  # finite, but its spectrum holds inf and nan
    with pytest.raises(
            ValueError, match=rf"in the block from row {block}: non-finite amplitude spectrum at row 24\b"):
        stage.transform(values)


@pytest.mark.parametrize("per_instance", [False, True], ids=["fitted", "per-instance"])
def test_both_chaosfex_stages_refuse_a_row_whose_spectrum_overflows(per_instance):
    # per-instance scaling (the table3 preset) once turned such a row into
    # constant features without an error
    config = tiny_config(model="fft_chaosfex", per_instance_scaling=per_instance)
    rng = np.random.default_rng(8)
    stage = fit_feature_stage(config, rng.normal(size=(8, 128)))
    values = rng.normal(size=(10, 128))
    values[4] = 1e308
    with pytest.raises(ValueError, match=r"non-finite amplitude spectrum at row 4\b"):
        stage.transform(values)
    if not per_instance:
        with pytest.raises(ValueError, match=r"non-finite amplitude spectrum at row 4\b"):
            fit_feature_stage(config, values)


@pytest.mark.parametrize("per_instance", [False, True], ids=["fitted", "per-instance"])
def test_transform_peak_memory_stays_below_1_2x_its_output(per_instance):
    # the spectra, scaling and firing transients are a block's, not the
    # set's; in one shot the traced peak was 5.25x the output, and it
    # measures 1.10x in blocks of 64 rows
    config = tiny_config(model="fft_chaosfex", length=256, per_instance_scaling=per_instance)
    values = np.random.default_rng(5).normal(size=(4096, 256))
    stage = fit_feature_stage(config, values)
    firing_table(config.gls)
    out_bytes = len(values) * (256 // 2 + 1) * 8
    peak = traced_peak(stage.transform, values)
    assert peak < 1.2 * out_bytes, f"traced peak is {peak / out_bytes:.2f}x the output"


@pytest.mark.parametrize("stage_kw", FEATURE_STAGES.values(), ids=FEATURE_STAGES)
def test_split_features_from_index_blocks_equal_a_transform_of_the_copied_split(
        monkeypatch, stage_kw):
    # blocks of 5 rows cut both 12-per-class splits, and the stage fitted on
    # the train split's copy, in one block, is the reference
    config = tiny_config(**stage_kw)
    dataset = make_dataset(config, config.train_recipe)
    splits = split_indices(config, dataset.labels)
    values = series_of(dataset)
    stage = fit_feature_stage(config, values[splits[0]])
    monkeypatch.setattr(pipeline, "TRANSFORM_BLOCK_ROWS", 5)
    sets = list(pipeline.featurize_sets(config, lambda recipe: make_dataset(config, recipe)))
    for (_, _, features, labels), idx in zip(sets, splits):
        np.testing.assert_array_equal(labels, dataset.labels[idx])
        want = stage.transform(values[idx])
        np.testing.assert_array_equal(features.view(np.uint64), want.view(np.uint64))


IN_PLACE_STAGES = {
    "raw": dict(model="raw"),
    "fft": dict(model="fft"),
    "fft-no-dc": dict(model="fft", keep_dc=False),
    "fft-demeaned": dict(model="fft", demean_first=True),
    "chaos-fitted": dict(model="fft_chaosfex"),
    "chaos-per-instance": dict(model="fft_chaosfex", per_instance_scaling=True),
}


@pytest.mark.parametrize("length", [2, 128])
@pytest.mark.parametrize("stage_kw", IN_PLACE_STAGES.values(), ids=IN_PLACE_STAGES)
def test_every_set_equals_a_transform_of_its_simulated_series(monkeypatch, stage_kw, length):
    # a two-class train recipe and test recipes of both classes, of the
    # causal class alone (ARMA) and of the noise class alone, each simulated
    # class by class into its own buffer; blocks of 5 rows cut both classes
    # of every set. A raw row, and at length 2 a spectrum of 2 // 2 + 1
    # values, is as wide as its series, so each block then overwrites exactly
    # the rows it read
    short = CausalFamily(Kind.AR, lag_hi=1)
    config = tiny_config(
        length=length, **stage_kw,
        train_recipe=DatasetRecipe("t", causal=short, noncausal=NoiseFamily(Kind.NOISE_NORMAL)),
        test_recipes=(DatasetRecipe("u", causal=short, noncausal=NoiseFamily(Kind.NOISE_UNIFORM)),
                      DatasetRecipe("v", causal=CausalFamily(Kind.ARMA, lag_hi=1, ma_lag_hi=1)),
                      DatasetRecipe("w", noncausal=NoiseFamily(Kind.NOISE_UNIFORM))))
    monkeypatch.setattr(pipeline, "TRANSFORM_BLOCK_ROWS", 5)
    sets = list(pipeline.featurize_sets(config, lambda recipe: make_dataset(config, recipe)))
    train = series_of(make_dataset(config, config.train_recipe))
    splits = split_indices(config, make_dataset(config, config.train_recipe).labels)
    stage = fit_feature_stage(config, train[splits[0]])
    want = [stage.transform(train[idx]) for idx in splits]
    want += [stage.transform(series_of(make_dataset(config, r))) for r in config.test_recipes]
    assert [len(f) for _, _, f, _ in sets] == [16, 8, 12, 6, 6]
    for (name, _, features, _), expected in zip(sets, want):
        assert features.shape == expected.shape, name
        np.testing.assert_array_equal(features.view(np.uint64), expected.view(np.uint64), err_msg=name)


def record_fits(monkeypatch) -> list:
    """Patch ``spectral.fit_scaler`` to record each call's (matrix, scaler,
    traced peak of the fit)."""
    fits, fit = [], spectral.fit_scaler

    def recorded(unscaled, headroom):
        fits.append((unscaled, fit(unscaled, headroom), traced_peak(fit, unscaled, headroom)))
        return fits[-1][1]

    monkeypatch.setattr(spectral, "fit_scaler", recorded)
    return fits


@pytest.mark.parametrize("keep_dc", [True, False], ids=["dc-kept", "dc-dropped"])
def test_the_scaler_featurize_fits_equals_a_fit_on_the_gathered_split_bit_for_bit(
        monkeypatch, keep_dc):
    config = tiny_config(model="fft_chaosfex", keep_dc=keep_dc, test_recipes=())
    dataset = make_dataset(config, config.train_recipe)
    rows, _ = split_indices(config, dataset.labels)
    spectra = spectral.amplitude_spectra(series_of(dataset))[:, int(not keep_dc):]
    want = spectral.fit_scaler(spectra[rows], config.headroom)
    # the held-out rows widen some feature's range, so a fit that took any of
    # them in would differ
    whole = spectral.fit_scaler(spectra, config.headroom)
    assert not np.array_equal(np.stack([want.minimum, want.maximum]),
                              np.stack([whole.minimum, whole.maximum]))
    fits = record_fits(monkeypatch)
    # blocks of 5 rows cut both classes of the 24-row train dataset
    monkeypatch.setattr(pipeline, "TRANSFORM_BLOCK_ROWS", 5)
    list(pipeline.featurize_sets(config, lambda recipe: make_dataset(config, recipe)))
    [(_, got, _)] = fits
    np.testing.assert_array_equal(got.minimum.view(np.uint64), want.minimum.view(np.uint64))
    np.testing.assert_array_equal(got.maximum.view(np.uint64), want.maximum.view(np.uint64))
    assert got.headroom == config.headroom


def test_featurize_fits_the_scaler_on_the_train_splits_rows_in_its_buffer(monkeypatch):
    # a fit on a gathered copy of the split's spectra peaked at 4.99x their
    # bytes, and gathered a block at a time 0.13x; over the rows in the
    # buffer it allocates only its minima and maxima, and measures 0.0036x
    config = tiny_config(model="fft_chaosfex", length=1024, n_train_per_class=500, test_recipes=())
    fits = record_fits(monkeypatch)
    _, _, features, _ = next(pipeline.featurize_sets(config, lambda recipe: make_dataset(config, recipe)))
    [(unscaled, _, peak)] = fits
    assert np.shares_memory(unscaled, features) and unscaled.shape == features.shape
    spectra_bytes = features.size * 8
    assert peak < 0.01 * spectra_bytes, f"traced peak is {peak / spectra_bytes:.4f}x the split's spectra"


# ---------------------------------------------------------------------------
# experiments


def test_split_indices_uses_train_recipe_and_seed():
    cfg = tiny_config()
    labels = np.array([0, 1] * 12)
    a = split_indices(cfg, labels)
    b = split_indices(cfg, labels)
    assert np.array_equal(a[0], b[0])
    c = split_indices(dataclasses.replace(cfg, master_seed=99), labels)
    assert not np.array_equal(a[0], c[0])


def test_assemble_sets_names_and_shapes():
    cfg = tiny_config(test_recipes=(SHIFT_I, AR100))
    assert set_names(cfg) == [("AR-train (train split)", "train-split"),
                              ("AR-train (held-out)", "held-out"),
                              ("shift-I", "shift-I"), ("AR100", "AR100")]
    dataset = make_dataset(cfg, cfg.train_recipe)
    (train_rows, train_labels), (held_rows, held_labels) = assemble_sets(cfg, dataset)
    # 70:30 of 12 per class, as row indices into the dataset, not copies
    assert train_rows.shape == (16,) and held_rows.shape == (8,)
    assert np.array_equal(np.sort(np.concatenate([train_rows, held_rows])), np.arange(24))
    assert np.array_equal(train_labels, dataset.labels[train_rows])
    assert np.array_equal(held_labels, dataset.labels[held_rows])
    assert series_of(make_dataset(cfg, SHIFT_I)).shape == (12, 128)


def test_run_experiment_report_layout():
    cfg = tiny_config()
    report = run_experiment(cfg)
    assert [r.dataset for r in report.rows] == [
        "AR-train (train split)", "AR-train (held-out)", "shift-I",
    ]
    assert report.row("shift-I").support == (6, 6)
    assert set(report.timings) == {"generate", "featurize", "train", "evaluate"}
    with pytest.raises(KeyError):
        report.row("nope")


def test_run_experiment_is_deterministic():
    cfg = tiny_config()
    a = report_to_dict(run_experiment(cfg))
    b = report_to_dict(run_experiment(cfg))
    assert a == b


def test_run_experiment_report_is_the_same_from_a_cached_firing_table():
    cfg = tiny_config(model="fft_chaosfex", per_instance_scaling=True,
                      gls=GlsParams(max_len=200))
    firing_table.cache_clear()
    a = report_to_dict(run_experiment(cfg))
    assert firing_table.cache_info().currsize == 1
    b = report_to_dict(run_experiment(cfg))
    assert firing_table.cache_info().hits > 0
    assert a == b


@pytest.mark.parametrize("model", ["raw", "fft"])
def test_every_set_is_a_view_of_a_buffer_of_one_size(model):
    # every set's buffer has the size of the largest set's: 24 rows of
    # features (the train set and shift-I) or 12 causal series of 128
    # values (all three), whichever is more
    config = tiny_config(model=model, test_recipes=(SHIFT_I, AR100), n_test_per_class=12)
    sets = [(name, features) for name, _, features, _ in
            pipeline.featurize_sets(config, lambda recipe: make_dataset(config, recipe))]
    buffers = [buffer_of(features) for _, features in sets]
    width = 128 if model == "raw" else 65
    assert [b.size for b in buffers] == [max(24 * width, 12 * 128)] * 4
    # the train dataset's two splits are disjoint rows of one buffer
    assert buffers[0] is buffers[1] and not np.shares_memory(sets[0][1], sets[1][1])
    assert len({id(b) for b in buffers}) == 3


def test_a_dataset_featurized_twice_gives_the_same_features():
    # a dataset is drawn specs and seeds, which featurize simulates into a
    # buffer of its own, so a dataset_for that caches its datasets is
    # featurized from its series each time
    config = tiny_config(model="fft_chaosfex", test_recipes=(SHIFT_I, AR100))
    cache = {}

    def dataset_for(recipe):
        if recipe.name not in cache:
            cache[recipe.name] = make_dataset(config, recipe)
        return cache[recipe.name]

    first, again = ([features.copy() for _, _, features, _ in pipeline.featurize_sets(config, dataset_for)]
                    for _ in range(2))
    for a, b in zip(first, again, strict=True):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


PERMUTATIONS = {
    "identity": lambda n: np.arange(n),
    "one-cycle": lambda n: np.roll(np.arange(n), 1),
    **{f"random-{seed}": lambda n, seed=seed: np.random.default_rng(seed).permutation(n)
       for seed in range(3)},
}


# the spectra at the front of a dataset's buffer, and raw rows as wide as
# their series, which fill it
@pytest.mark.parametrize("width", [65, 128])
@pytest.mark.parametrize("permutation", PERMUTATIONS.values(), ids=PERMUTATIONS)
def test_rows_permuted_in_place_equal_an_indexed_copy_bit_for_bit(permutation, width):
    rows, length = 37, 128
    buffer = np.random.default_rng(width).normal(size=rows * length)
    rest = buffer[rows * width:].copy()
    matrix = buffer[:rows * width].reshape(rows, width)
    order = permutation(rows)
    want = matrix[order]
    pipeline._permute_rows(matrix, order)
    assert np.shares_memory(matrix, buffer)
    np.testing.assert_array_equal(matrix.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(buffer[rows * width:].view(np.uint64), rest.view(np.uint64))


@pytest.mark.parametrize("split", [0, 1], ids=["train-split", "held-out"])
@pytest.mark.parametrize("stage_kw", FEATURE_STAGES.values(), ids=FEATURE_STAGES)
def test_a_non_finite_train_row_is_refused_by_the_train_recipe_and_its_dataset_row(
        monkeypatch, stage_kw, split):
    # the train dataset's first pass reads every row in order, before any
    # scaler is fitted, so a row past the first block is counted within
    # the dataset, not within its split, under a train-fitted scaler too
    # (whose fit once met the row first and named the split and its split
    # row); blocks start at row 0 in the causal class and at its end, row
    # 12, in the noise class
    config = tiny_config(**stage_kw)
    splits = split_indices(config, make_dataset(config, config.train_recipe).labels)
    for row in (int(splits[split][splits[split] >= 5][0]), int(splits[split][splits[split] >= 12][1])):
        monkeypatch.undo()
        plant_row(monkeypatch, config.train_recipe.name, row, np.nan)
        monkeypatch.setattr(pipeline, "TRANSFORM_BLOCK_ROWS", 5)
        start = row - (row - (0 if row < 12 else 12)) % 5
        what = "series value" if stage_kw["model"] == "raw" else "amplitude spectrum"
        with pytest.raises(RuntimeError, match=rf"^featurize stage failed on 'AR-train': in the "
                                               rf"block from row {start}: non-finite {what} at row "
                                               rf"{row - start}\b"):
            list(pipeline.featurize_sets(config, lambda recipe: make_dataset(config, recipe)))


def test_run_experiment_holds_one_dataset_and_one_set_of_features_at_a_time(monkeypatch):
    config = tiny_config(test_recipes=(SHIFT_I, SHIFT_II, AR100))
    with watch_sets(monkeypatch, "build_dataset") as watch:
        run_experiment(config)
    # the train dataset makes the train split and the held-out set; each
    # set's features are a view of its own buffer, which they keep alive
    # until dropped
    assert len(watch.datasets) == 4 and len(watch.features) == 5 and len(watch.buffers) == 4
    assert watch.alive_at_yield == [[0], [0], [1], [2], [3]]
    assert not watch.live_datasets() and not watch.live_buffers() and not watch.live_features()


def test_run_experiment_peak_memory_stays_below_0_32x_its_datasets():
    # each dataset is simulated class by class into its set's buffer, which
    # its features overwrite, no series is held twice and every temporary
    # is a block's, so the traced peak is the train set's buffer and a
    # block: it measures 0.29x the bytes of all datasets, where a whole
    # set's series took it to 0.45x, held-out features in their own array
    # to 0.54x, features beside their values to 0.61x and copies of the
    # train splits to 0.75x
    config = table_config("table3", scale="desk", seed=42)
    run_experiment(config)  # builds the firing table and other first-use state
    sizes = [(config.train_recipe, config.n_train_per_class),
             *((recipe, config.n_test_per_class) for recipe in config.test_recipes)]
    n_series = sum(n * ((r.causal is not None) + (r.noncausal is not None)) for r, n in sizes)
    dataset_bytes = n_series * config.length * np.dtype(np.float64).itemsize
    peak = traced_peak(run_experiment, config)
    assert peak < 0.32 * dataset_bytes, f"traced peak is {peak / dataset_bytes:.2f}x the datasets"


def test_report_json_excludes_timings():
    report = run_experiment(tiny_config())
    doc = report_to_dict(report)
    assert "timings" not in doc
    assert doc["schema_version"] == 1
    assert {row["dataset"] for row in doc["rows"]} == {
        "AR-train (train split)", "AR-train (held-out)", "shift-I",
    }


def test_report_text_mentions_every_dataset():
    report = run_experiment(tiny_config())
    text = report_to_text(report)
    for row in report.rows:
        assert row.dataset in text
    assert "Accuracy" in text and "timings:" in text


def test_write_report_files(tmp_path):
    report = run_experiment(tiny_config())
    write_report(report, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc == report_to_dict(report)
    assert (tmp_path / "report.txt").read_text() == report_to_text(report)


# ---------------------------------------------------------------------------
# plot helpers


def test_count_local_extrema_examples():
    # the measure of acceptance criterion 5, kept with the tests
    assert count_local_extrema(np.array([0, 1, 0, 1, 0])) == 3
    assert count_local_extrema(np.array([0, 1, 2, 3])) == 0
    assert count_local_extrema(np.array([0, 1, 1, 0])) == 1
    assert count_local_extrema(np.array([2, 2, 2])) == 0
    assert count_local_extrema(np.array([5])) == 0


def test_emit_plot_data_round_trips(tmp_path):
    path = tmp_path / "curve.dat"
    values = np.array([0.5, 1 / 3, 2e-17])
    emit_plot_data(values, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines):
        idx, val = line.split()
        assert int(idx) == i
        assert float(val) == values[i]


def test_emit_plot_data_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_plot_data(np.array([]), tmp_path / "x.dat")


# ---------------------------------------------------------------------------
# dataset persistence


def test_dataset_round_trip_is_bit_exact(tmp_path):
    data = persist_built(tmp_path / "d", AR_TRAIN, n_per_class=3, length=64, master_seed=4)
    loaded = load_dataset(tmp_path / "d")
    assert loaded.specs == data.specs and loaded.seeds == data.seeds
    assert np.array_equal(data.labels, loaded.labels)


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_a_loaded_desk_dataset_equals_the_built_one(tmp_path, name):
    # the dataset is drawn again from the manifest's source
    config, recipe = ExperimentConfig(), RECIPES[name]
    data = make_dataset(config, recipe)
    persist_dataset(tmp_path / "d", dataset_source(config, recipe))
    loaded = load_dataset(tmp_path / "d")
    assert np.array_equal(loaded.labels, data.labels)
    assert loaded.specs == data.specs and loaded.seeds == data.seeds


def test_dataset_labels_are_read_only(tmp_path):
    data = persist_built(tmp_path / "d", AR_TRAIN, n_per_class=3, length=64, master_seed=4)
    for dataset in (data, load_dataset(tmp_path / "d")):
        assert not dataset.labels.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dataset.labels[0] = 0


def edit_source(dir_path, edit) -> str:
    """Apply ``edit`` to the source in ``dir_path``'s manifest; return the manifest's path."""
    path = dir_path / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["source"])
    path.write_text(json.dumps(manifest))
    return path


def test_load_dataset_rejects_wrong_schema(tmp_path):
    persist_built(tmp_path / "d", AR100, n_per_class=2, length=128, master_seed=5)
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    manifest["schema_version"] = 99
    (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="schema version"):
        load_dataset(tmp_path / "d")


def test_load_dataset_refuses_an_empty_dataset(tmp_path):
    persist_built(tmp_path / "d", AR100, n_per_class=2, length=128, master_seed=5)
    path = edit_source(tmp_path / "d", lambda source: source.update(n_per_class=0))
    with pytest.raises(ValueError, match=re.escape(f"{path}: n_per_class must be >= 1, got 0")):
        load_dataset(tmp_path / "d")


def test_load_dataset_names_a_mistyped_spec_key(tmp_path):
    # the recipe's causal family gives each causal spec its noise variance
    persist_built(tmp_path / "d", AR100, n_per_class=2, length=128, master_seed=5)
    path = edit_source(tmp_path / "d",
                       lambda source: source["recipe"]["causal"].update(noise_variance="0.01"))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: key 'source.recipe.causal.noise_variance': expected a number")):
        load_dataset(tmp_path / "d")


def test_load_dataset_refuses_a_spec_that_breaks_a_process_rule(tmp_path):
    # AR100's lag of 100 does not fit in 64 values
    persist_built(tmp_path / "d", AR100, n_per_class=2, length=128, master_seed=5)
    path = edit_source(tmp_path / "d", lambda source: source.update(length=64))
    with pytest.raises(ValueError, match=re.escape(f"{path}: AR lag 100 exceeds series length 64")):
        load_dataset(tmp_path / "d")


def test_load_dataset_refuses_an_unknown_source_key(tmp_path):
    persist_built(tmp_path / "d", AR100, n_per_class=2, length=128, master_seed=5)
    path = edit_source(tmp_path / "d", lambda source: source.update(note="hand-edited"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown key 'source.note'")):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("key", ["source", "length", "recipe"])
def test_load_dataset_names_a_missing_manifest_key(tmp_path, key):
    persist_built(tmp_path / "d", AR100, n_per_class=2, length=128, master_seed=5)
    path = tmp_path / "d" / "manifest.json"
    manifest = json.loads(path.read_text())
    if key == "source":
        del manifest[key]
    else:
        del manifest["source"][key]
        key = f"source.{key}"
    path.write_text(json.dumps(manifest))
    message = f"{path}: key '{key}': required key is missing"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_dataset(tmp_path / "d")


def test_load_dataset_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope")
