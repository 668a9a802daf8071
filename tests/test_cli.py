import functools
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tscausal
from helpers import plant_row
from lifetimes import watch_sets
from tscausal import classify, pipeline
from tscausal.cli import build_parser, main

TINY = {
    "master_seed": 7,
    "model": "fft",
    "test_recipes": ["shift-I"],
    "n_train_per_class": 12,
    "n_test_per_class": 6,
    "length": 128,
}


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return path


def run_chain(tmp_path, config_path, capsys):
    run = tmp_path / "run"
    for argv in (
        ["generate", "--config", str(config_path), "--out", str(run)],
        ["featurize", str(run)],
        ["train", str(run)],
        ["evaluate", str(run)],
    ):
        assert main(argv) == 0, capsys.readouterr().err
    return run


# ---------------------------------------------------------------------------
# help and usage


def test_top_level_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("generate", "featurize", "train", "evaluate", "reproduce", "plot"):
        assert cmd in out


@pytest.mark.parametrize("cmd", ["generate", "featurize", "train", "evaluate",
                                 "reproduce", "plot"])
def test_subcommand_help_exits_zero(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert f"usage: tscausal {cmd}" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_table_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "table9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["featurize", "run"], ["reproduce", "table3"], ["plot"]])
def test_threads_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config errors


def test_missing_config_file(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "run")]) == 2
    assert "config file not found" in capsys.readouterr().err


def test_invalid_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "fft",\n  "length": }\n')
    assert main(["generate", "--config", str(bad),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"modle": "fft"}))
    assert main(["generate", "--config", str(bad),
                 "--out", str(tmp_path / "run")]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ({"per_instance_scaling": "false"}, "'per_instance_scaling'"),
    ({"master_seed": 1.9}, "'master_seed'"),
    ({"gls": {"max_len": 10.7}}, "'gls.max_len'"),
    ({"test_recipes": [{"nme": "x", "causal": {"kind": "ar"}}]}, "'test_recipes[0].nme'"),
    # both failed halfway through simulation before load-time range checks
    ({"test_recipes": [{"name": "x", "causal": {"kind": "ar", "lag_lo": 5, "lag_hi": 3}}]},
     "'test_recipes[0].causal'"),
    ({"test_recipes": ["AR100"], "length": 64}, "test_recipes[0].causal.lag_hi 100 exceeds length 64"),
    # these three used to fail only at featurize or train, with exit 1
    ({"headroom": 2.0}, "headroom must lie in (0, 0.1)"),
    ({"headroom": 2.0, "per_instance_scaling": True}, "headroom must lie in (0, 0.1)"),
    ({"split_fraction": 0.01, "n_train_per_class": 5}, "split_fraction 0.01 keeps 0 of n_train_per_class 5"),
    # the knob is gone; a config that still sets it is refused
    ({"threads": 4}, "unknown config key 'threads'"),
    # json reads NaN and Infinity; both used to run to a report
    ({"lr": {"c": float("nan")}}, "'lr.c': expected a finite number"),
    ({"gls": {"eps": float("inf")}}, "'gls.eps': expected a finite number"),
    # a test recipe named after a split wrote its features over the split's
    ({"test_recipes": [{"name": "held-out", "noncausal": {"kind": "noise_uniform"}}]},
     "test_recipes[0].name 'held-out' is the features directory"),
    ({"test_recipes": [{"name": "train-split", "causal": {"kind": "ar"}}]},
     "test_recipes[0].name 'train-split' is the features directory"),
    # recipe names are directory names under datasets/ and features/
    ({"test_recipes": [{"name": "../../escaped", "causal": {"kind": "ar"}}]},
     "'test_recipes[0]': recipe name '../../escaped' must not be"),
    ({"test_recipes": [{"name": "", "causal": {"kind": "ar"}}]},
     "'test_recipes[0]': recipe name '' must not be"),
    ({"test_recipes": [{"name": "..", "causal": {"kind": "ar"}}]},
     "'test_recipes[0]': recipe name '..' must not be"),
    ({"train_recipe": {"name": "a\\b", "causal": {"kind": "ar"},
                       "noncausal": {"kind": "noise_normal"}}},
     "'train_recipe': recipe name 'a\\\\b' must not be"),
    # a one-class training set used to fail only at train, with exit 1
    ({"train_recipe": "AR100"}, "train_recipe 'AR100' must define both a causal and a noncausal"),
    ({"train_recipe": {"name": "noise", "noncausal": {"kind": "noise_normal"}}},
     "train_recipe 'noise' must define both a causal and a noncausal"),
    # its features directory was features/manifest.json: featurize failed with
    # exit 1, and the run directory refused every later featurize
    ({"test_recipes": [{"name": "manifest.json", "causal": {"kind": "ar"}}]},
     "test_recipes[0].name 'manifest.json' is the features directory of a split or the name "
     "of features/manifest.json"),
    # a spectrum needs two values; featurize used to fail with exit 1
    ({"length": 1, "model": "fft", "test_recipes": [],
      "train_recipe": {"name": "t", "causal": {"kind": "ar", "lag_hi": 1},
                       "noncausal": {"kind": "noise_normal"}}},
     "length must be >= 2 for model 'fft''s spectra, got 1"),
    ({"length": 1, "test_recipes": [],
      "train_recipe": {"name": "t", "causal": {"kind": "ar", "lag_hi": 1},
                       "noncausal": {"kind": "noise_normal"}}},
     "length must be >= 2 for model 'fft_chaosfex''s spectra, got 1"),
])
def test_bad_config_fails_at_load_naming_the_key(tmp_path, capsys, doc, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "run")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_raw_config_keeps_length_1(tmp_path):
    # only the spectral models need two values per series
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({
        "length": 1, "model": "raw", "test_recipes": [], "n_train_per_class": 10,
        "train_recipe": {"name": "t", "causal": {"kind": "ar", "lag_hi": 1},
                         "noncausal": {"kind": "noise_normal"}}}))
    run = tmp_path / "run"
    assert main(["generate", "--config", str(path), "--out", str(run)]) == 0
    for step in ("featurize", "train", "evaluate"):
        assert main([step, str(run)]) == 0


def test_a_model_override_that_makes_the_config_invalid_is_a_config_error(tmp_path, capsys):
    # a raw config keeps length 1, which has no spectra; `featurize --model
    # fft` used to exit 1 as a runtime error
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({
        "length": 1, "model": "raw", "test_recipes": [], "n_train_per_class": 10,
        "train_recipe": {"name": "t", "causal": {"kind": "ar", "lag_hi": 1},
                         "noncausal": {"kind": "noise_normal"}}}))
    run = tmp_path / "run"
    for argv in (["generate", "--config", str(path), "--out", str(run)], ["featurize", str(run)]):
        assert main(argv) == 0, capsys.readouterr().err
    features = {p: p.read_bytes() for p in (run / "features").rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["featurize", str(run), "--model", "fft"]) == 2
    assert ("config error: --model fft: length must be >= 2 for model 'fft''s spectra, got 1"
            in capsys.readouterr().err)
    assert {p: p.read_bytes() for p in (run / "features").rglob("*") if p.is_file()} == features


def test_featurize_before_generate_fails_cleanly(tmp_path, tiny_config_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "config.json").write_text(tiny_config_path.read_text())
    assert main(["featurize", str(run)]) == 1
    assert "run `generate` first" in capsys.readouterr().err


def test_featurize_names_a_key_missing_from_a_dataset_manifest(tmp_path, tiny_config_path, capsys):
    run = tmp_path / "run"
    assert main(["generate", "--config", str(tiny_config_path), "--out", str(run)]) == 0
    path = run / "datasets" / "AR-train" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["generator"]
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    err = capsys.readouterr().err
    assert f"error [featurize]: {path}: key 'generator': required key is missing" in err


@pytest.mark.parametrize("model", ["fft", "fft_chaosfex"])
def test_featurize_names_the_set_and_row_whose_spectrum_is_not_finite(tmp_path, capsys, monkeypatch,
                                                                     model):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**TINY, "model": model, "test_recipes": ["shift-II"]}))
    run = tmp_path / "run"
    assert main(["generate", "--config", str(config_path), "--out", str(run)]) == 0
    plant_row(monkeypatch, "shift-II", 3, 1e308)  # finite, but its spectrum overflows
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    err = capsys.readouterr().err
    assert "error [featurize]: featurize stage failed on 'shift-II': " in err
    assert "non-finite amplitude spectrum at row 3:" in err
    assert not (run / "features" / "manifest.json").exists()


def test_featurize_names_the_set_and_row_of_a_non_finite_raw_value(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**TINY, "model": "raw", "test_recipes": ["shift-II"]}))
    run = tmp_path / "run"
    assert main(["generate", "--config", str(config_path), "--out", str(run)]) == 0
    plant_row(monkeypatch, "shift-II", 3, np.nan)
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    err = capsys.readouterr().err
    assert "error [featurize]: featurize stage failed on 'shift-II': " in err
    assert "non-finite series value at row 3" in err
    assert not (run / "features" / "manifest.json").exists()


def test_evaluate_names_the_set_and_row_of_a_nan_margin(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**TINY, "model": "raw", "test_recipes": ["shift-II"]}))
    run = run_chain(tmp_path, config_path, capsys)
    path = next((run / "features").glob("*shift-II*")) / "features.npy"
    features = np.load(path)
    features[3, 5] = np.nan
    np.save(path, features)
    assert main(["evaluate", str(run), "--out", str(tmp_path / "again")]) == 1
    err = capsys.readouterr().err
    assert "error [evaluate]: evaluate stage failed on 'shift-II': NaN margin at row 3" in err
    assert not (tmp_path / "again" / "report.json").exists()


def test_evaluate_names_the_set_and_row_of_an_overflowed_margin(tmp_path, capsys, monkeypatch):
    # a finite row of 1e308 passes the raw feature stage, but its weighted sum
    # overflows to an infinite margin that no label can be read off
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**TINY, "model": "raw", "test_recipes": ["shift-II"]}))
    run = tmp_path / "run"
    assert main(["generate", "--config", str(config_path), "--out", str(run)]) == 0
    plant_row(monkeypatch, "shift-II", 3, 1e308)
    for step in (["featurize", str(run)], ["train", str(run)]):
        assert main(step) == 0, capsys.readouterr().err
    capsys.readouterr()
    assert main(["evaluate", str(run)]) == 1
    err = capsys.readouterr().err
    assert "error [evaluate]: evaluate stage failed on 'shift-II': infinite margin at row 3" in err
    assert not (run / "report.json").exists()


def test_featurize_refuses_a_recipe_that_overflows_by_its_name(tmp_path, capsys):
    # generate writes the manifest only; the simulation overflows in featurize,
    # which names the set in the chained and the in-process run alike, and
    # no numpy warning escapes
    config = {**TINY, "test_recipes": [{"name": "big", "causal": {"kind": "ar",
                                                                 "noise_mean": 1e308}}]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run = tmp_path / "run"
    assert main(["generate", "--config", str(config_path), "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    message = "featurize stage failed on 'big': generated series contains non-finite values (kind=ar)"
    assert f"error [featurize]: {message}" in capsys.readouterr().err
    assert not (run / "features" / "manifest.json").exists()
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        pipeline.run_experiment(pipeline.config_from_dict(config))


def test_train_names_its_stage_and_set(tmp_path, tiny_config_path, capsys):
    run = tmp_path / "run"
    assert main(["generate", "--config", str(tiny_config_path), "--out", str(run)]) == 0
    assert main(["featurize", str(run)]) == 0
    path = run / "features" / "train-split" / "labels.npy"
    np.save(path, np.zeros_like(np.load(path)))
    capsys.readouterr()
    assert main(["train", str(run)]) == 1
    assert ("error [train]: train stage failed on 'AR-train (train split)': "
            "training data contains a single class") in capsys.readouterr().err
    assert not (run / "model.json").exists()


def test_evaluate_names_a_key_missing_from_the_features_manifest(tmp_path, tiny_config_path, capsys):
    run = run_chain(tmp_path, tiny_config_path, capsys)
    path = run / "features" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["shapes"]
    path.write_text(json.dumps(manifest))
    assert main(["evaluate", str(run), "--out", str(tmp_path / "again")]) == 1
    err = capsys.readouterr().err
    assert f"error [evaluate]: {path}: key 'shapes': required key is missing" in err


@pytest.mark.parametrize("bad", ["../../other/features/shift-I", "..", ".", ""])
def test_evaluate_refuses_a_features_manifest_set_outside_its_directory(
        tmp_path, tiny_config_path, capsys, bad):
    # the manifest names no directory: set_names does, from the config
    run = run_chain(tmp_path, tiny_config_path, capsys)
    # another run's features, which a stored dir could reach
    shutil.copytree(run / "features" / "shift-I", tmp_path / "other" / "features" / "shift-I")
    path = run / "features" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["sets"] = [{"dir": d} for d in ("train-split", "held-out", bad)]
    path.write_text(json.dumps(manifest))
    assert main(["evaluate", str(run), "--out", str(tmp_path / "again")]) == 1
    assert f"error [evaluate]: {path}: unknown key 'sets'" in capsys.readouterr().err
    assert not (tmp_path / "again" / "report.json").exists()


@pytest.mark.parametrize("damage, message", [
    (lambda text: text[:40], "invalid JSON at line"),
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "bias"}),
     "key 'bias': required key is missing"),
    (lambda text: "[1, 2]", "expected a JSON object"),
], ids=["truncated", "no-bias", "array"])
def test_evaluate_names_a_damaged_model_file(tmp_path, tiny_config_path, capsys, damage, message):
    run = run_chain(tmp_path, tiny_config_path, capsys)
    path = run / "model.json"
    path.write_text(damage(path.read_text()))
    assert main(["evaluate", str(run), "--out", str(tmp_path / "again")]) == 1
    assert f"error [evaluate]: {path}: {message}" in capsys.readouterr().err


def test_evaluate_before_train_fails_cleanly(tmp_path, tiny_config_path, capsys):
    run = tmp_path / "run"
    assert main(["generate", "--config", str(tiny_config_path), "--out", str(run)]) == 0
    assert main(["featurize", str(run)]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(run)]) == 1
    assert "run `train` first" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cold start: no step loads scipy or concurrent.futures


def modules_after(code, cwd, package="scipy"):
    """The modules of ``package`` a fresh interpreter holds after running ``code``."""
    src = str(Path(tscausal.__file__).resolve().parents[1])
    code += ("\nimport sys; print('loaded:', *sorted(m for m in sys.modules "
             f"if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         cwd=cwd, capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1].split()[1:]


@pytest.mark.parametrize("module", ["tscausal", "tscausal.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert modules_after(f"import {module}", tmp_path) == []
    assert modules_after(f"import {module}", tmp_path, "concurrent") == []


# an import hook under which ``import scipy`` (or any submodule) fails
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, NoScipy())
"""


def test_every_step_runs_without_scipy(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({**TINY, "model": "fft_chaosfex"}))
    argvs = [["generate", "--config", "config.json", "--out", "run"], ["featurize", "run"],
             ["train", "run"], ["evaluate", "run"],
             ["reproduce", "table1-lr", "--seed", "3", "--out", "reproduced"]]
    code = BLOCK_SCIPY + "from tscausal.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0, {argv!r}\n" for argv in argvs)
    assert modules_after(code, tmp_path) == []
    assert (tmp_path / "run" / "report.json").is_file()
    assert (tmp_path / "reproduced" / "report.json").is_file()


# ---------------------------------------------------------------------------
# chained workflow


def readme_layout(*tests: str) -> set[str]:
    """README's "Run directory layout" of a finished run of the test recipes ``tests``."""
    layout = {"config.json", "features/manifest.json", "model.json", "report.json", "report.txt"}
    layout |= {f"datasets/{name}/manifest.json" for name in ("AR-train", *tests)}
    layout |= {f"features/{name}/{file}" for name in ("train-split", "held-out", *tests)
               for file in ("features.npy", "labels.npy")}
    return layout


def files_under(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def test_chain_produces_expected_layout(tmp_path, tiny_config_path, capsys):
    run = run_chain(tmp_path, tiny_config_path, capsys)
    # these files, and no others
    assert files_under(run) == readme_layout("shift-I")
    for name in ("AR-train", "shift-I"):
        manifest = json.loads((run / "datasets" / name / "manifest.json").read_text())
        assert list(manifest) == ["schema_version", "generator", "source"]
    manifest = json.loads((run / "features" / "manifest.json").read_text())
    assert list(manifest) == ["schema_version", "config", "shapes"]
    assert manifest["shapes"] == [[16, 65], [8, 65], [12, 65]]


def test_chain_matches_in_process_run(tmp_path, tiny_config_path, capsys):
    run = run_chain(tmp_path, tiny_config_path, capsys)
    chained = json.loads((run / "report.json").read_text())
    config = pipeline.config_from_dict(json.loads(tiny_config_path.read_text()))
    direct = pipeline.report_to_dict(pipeline.run_experiment(config))
    assert chained == direct


@pytest.mark.parametrize("per_instance", [False, True], ids=["fitted", "per-instance"])
def test_chain_artifacts_equal_the_stage_functions_bit_for_bit(tmp_path, capsys, per_instance):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {**TINY, "model": "fft_chaosfex", "per_instance_scaling": per_instance}))
    run = run_chain(tmp_path, config_path, capsys)
    config = pipeline.config_from_dict(json.loads(config_path.read_text()))
    featurized, shapes = [], []
    for name, set_dir, features, labels in pipeline.featurize_sets(
            config, functools.partial(pipeline.make_dataset, config)):
        files = run / "features" / set_dir
        np.testing.assert_array_equal(np.load(files / "features.npy").view(np.uint64),
                                      features.view(np.uint64))
        np.testing.assert_array_equal(np.load(files / "labels.npy"), labels)
        featurized.append((name, features, labels))
        shapes.append(list(features.shape))
    manifest = json.loads((run / "features" / "manifest.json").read_text())
    assert manifest["shapes"] == shapes
    model = pipeline.train_model(config, *featurized[0])
    classify.save_model(model, tmp_path / "direct-model.json")
    assert (run / "model.json").read_bytes() == (tmp_path / "direct-model.json").read_bytes()
    rows = tuple(pipeline.score_set(model, *s) for s in featurized)
    report = pipeline.ExperimentReport(config=config, rows=rows)
    assert json.loads((run / "report.json").read_text()) == pipeline.report_to_dict(report)


@pytest.fixture
def four_set_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, "test_recipes": ["shift-I", "shift-II", "AR100"]}))
    return path


def test_generate_simulates_nothing(tmp_path, four_set_config_path, capsys, monkeypatch):
    # a dataset is its manifest; featurize simulates it at its set's turn
    calls = []
    for name in ("build_dataset", "generate_into"):
        monkeypatch.setattr(pipeline, name, lambda *args, name=name: calls.append(name))
    run = tmp_path / "run"
    argv = ["generate", "--config", str(four_set_config_path), "--out", str(run)]
    assert main(argv) == 0, capsys.readouterr().err
    assert calls == []
    datasets = run / "datasets"
    assert files_under(datasets) \
        == {f"{name}/manifest.json" for name in ("AR-train", "shift-I", "shift-II", "AR100")}


def test_featurize_holds_one_dataset_and_one_set_of_features_at_a_time(
        tmp_path, four_set_config_path, capsys, monkeypatch):
    run = tmp_path / "run"
    assert main(["generate", "--config", str(four_set_config_path), "--out", str(run)]) == 0
    with watch_sets(monkeypatch, "load_dataset") as watch:
        assert main(["featurize", str(run)]) == 0, capsys.readouterr().err
    # the train dataset makes the train split and the held-out set; each
    # set's features are a view of its own buffer, which they keep alive
    # until dropped
    assert len(watch.datasets) == 4 and len(watch.features) == 5 and len(watch.buffers) == 4
    assert watch.alive_at_yield == [[0], [0], [1], [2], [3]]
    assert not watch.live_datasets() and not watch.live_buffers() and not watch.live_features()


def test_seed_override_changes_generated_data(tmp_path, tiny_config_path, capsys):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert main(["generate", "--config", str(tiny_config_path), "--out", str(run_a)]) == 0
    assert main(["generate", "--config", str(tiny_config_path), "--seed", "99",
                 "--out", str(run_b)]) == 0
    echo = json.loads((run_b / "config.json").read_text())
    assert echo["master_seed"] == 99
    a, b = (pipeline.load_dataset(run / "datasets" / "AR-train").seeds for run in (run_a, run_b))
    assert set(a).isdisjoint(b)


def test_model_override_at_featurize(tmp_path, tiny_config_path, capsys):
    run = tmp_path / "run"
    assert main(["generate", "--config", str(tiny_config_path), "--out", str(run)]) == 0
    assert main(["featurize", str(run), "--model", "raw"]) == 0
    manifest = json.loads((run / "features" / "manifest.json").read_text())
    assert manifest["config"]["model"] == "raw"
    features = np.load(run / "features" / "train-split" / "features.npy")
    assert features.shape[1] == TINY["length"]


def test_featurize_model_override_resolves_the_hyperparameters_of_its_model(tmp_path, capsys):
    config = {k: v for k, v in TINY.items() if k != "model"}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run = tmp_path / "run"
    for argv in (["generate", "--config", str(config_path), "--out", str(run)],
                 ["featurize", str(run), "--model", "raw"], ["train", str(run)],
                 ["evaluate", str(run)]):
        assert main(argv) == 0, capsys.readouterr().err
    assert json.loads((run / "config.json").read_text())["lr"] is None
    direct = tmp_path / "direct"
    raw = pipeline.config_from_dict({**config, "model": "raw"})
    pipeline.write_report(pipeline.run_experiment(raw), direct)
    assert (run / "report.json").read_bytes() == (direct / "report.json").read_bytes()


def test_an_unknown_featurize_model_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["featurize", str(tmp_path), "--model", "bogus"])
    assert exc.value.code == 2
    assert "argument --model: invalid choice: 'bogus'" in capsys.readouterr().err


def test_a_chain_over_another_configs_run_leaves_only_its_own_files(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({**TINY, "test_recipes": ["shift-I", "shift-II"]}))
    b.write_text(json.dumps(TINY))
    run = run_chain(tmp_path, a, capsys)
    # an earlier release's values beside each manifest, and a file of the user's
    for name in ("AR-train", "shift-I", "shift-II"):
        np.save(run / "datasets" / name / "values.npy", np.zeros((2, 3)))
    (run / "datasets" / "x").mkdir()
    (run / "datasets" / "x" / "notes.txt").write_text("mine\n")
    run_chain(tmp_path, b, capsys)
    assert files_under(run) == readme_layout("shift-I") | {"datasets/x/notes.txt"}
    # no directory of shift-II is left, empty or not
    assert {p.name for p in (run / "datasets").iterdir()} == {"AR-train", "shift-I", "x"}
    assert {p.name for p in (run / "features").iterdir()} == {
        "manifest.json", "train-split", "held-out", "shift-I"}
    assert (run / "datasets" / "x" / "notes.txt").read_text() == "mine\n"


def test_generate_invalidates_the_features_of_the_datasets_it_replaces(
        tmp_path, tiny_config_path, capsys):
    run = run_chain(tmp_path, tiny_config_path, capsys)
    argv = ["generate", "--config", str(tiny_config_path), "--seed", "8", "--out", str(run)]
    assert main(argv) == 0
    assert not (run / "features" / "manifest.json").exists()
    capsys.readouterr()
    for step in ("train", "evaluate"):
        assert main([step, str(run)]) == 1
        assert "(run `featurize` first)" in capsys.readouterr().err


# featurize, like generate, deletes what was made from the features it replaces
@pytest.mark.parametrize("step, fails", [
    ("generate", False), ("generate", True), ("featurize", False), ("featurize", True),
], ids=["completes", "fails-part-way", "featurize-completes", "featurize-fails-part-way"])
def test_generate_removes_the_model_and_report_of_the_datasets_it_replaces(
        tmp_path, tiny_config_path, capsys, monkeypatch, step, fails):
    run = run_chain(tmp_path, tiny_config_path, capsys)
    if fails and step == "generate":
        persist = pipeline.persist_dataset

        def persist_the_train_set_only(dir_path, source):
            if dir_path.name != "AR-train":
                raise OSError("no space left on device")
            persist(dir_path, source)

        monkeypatch.setattr(pipeline, "persist_dataset", persist_the_train_set_only)
    elif fails:
        load = pipeline.load_dataset

        def load_the_train_set_only(dir_path, *args, **kwargs):
            if dir_path.name != "AR-train":
                raise OSError("disk read error")
            return load(dir_path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "load_dataset", load_the_train_set_only)
    if step == "generate":
        argv = ["generate", "--config", str(tiny_config_path), "--seed", "8", "--out", str(run)]
    else:
        argv = ["featurize", str(run), "--model", "raw"]
    assert main(argv) == (1 if fails else 0)
    for name in ("model.json", "report.json", "report.txt"):
        assert not (run / name).exists(), name
    features_manifest = run / "features" / "manifest.json"
    if step == "featurize" and not fails:
        assert json.loads(features_manifest.read_text())["config"]["model"] == "raw"
    else:
        assert not features_manifest.exists()
    if step == "featurize" and fails:
        assert "error [featurize]: disk read error" in capsys.readouterr().err
    elif fails:
        assert "error [generate]: no space left on device" in capsys.readouterr().err
        train_manifest = json.loads((run / "datasets" / "AR-train" / "manifest.json").read_text())
        assert train_manifest["source"]["master_seed"] == 8


def test_a_featurize_refused_by_its_config_keeps_the_model_and_reports(
        tmp_path, tiny_config_path, capsys):
    run = run_chain(tmp_path, tiny_config_path, capsys)
    names = ("features/manifest.json", "model.json", "report.json", "report.txt")
    before = {name: (run / name).read_bytes() for name in names}
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**TINY, "master_seed": 8}))
    capsys.readouterr()
    assert main(["featurize", str(run), "--config", str(other)]) == 1
    assert "dataset was generated with master_seed 7" in capsys.readouterr().err
    assert {name: (run / name).read_bytes() for name in names} == before


def test_evaluate_refuses_a_model_trained_for_other_features(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**TINY, "model": "fft_chaosfex"}))
    run = tmp_path / "run"
    model_path = tmp_path / "fft-model.json"
    assert main(["generate", "--config", str(config_path), "--out", str(run)]) == 0
    assert main(["featurize", str(run), "--model", "fft"]) == 0
    # outside the run directory, so the next featurize leaves it in place
    assert main(["train", str(run), "--model-out", str(model_path)]) == 0
    trained_for = json.loads(model_path.read_text())["fingerprint"]
    # same feature width, different pipeline
    assert main(["featurize", str(run)]) == 0
    manifest = json.loads((run / "features" / "manifest.json").read_text())
    features_for = pipeline.config_fingerprint(pipeline.config_from_dict(manifest["config"]))
    capsys.readouterr()
    assert main(["evaluate", str(run), "--model-path", str(model_path)]) == 1
    err = capsys.readouterr().err
    assert trained_for != features_for
    assert trained_for in err and features_for in err
    assert not (run / "report.json").exists()


def test_evaluate_is_byte_identical_across_runs(tmp_path, tiny_config_path, capsys):
    run = run_chain(tmp_path, tiny_config_path, capsys)
    first = (run / "report.json").read_bytes()
    out2 = tmp_path / "second"
    assert main(["evaluate", str(run), "--out", str(out2)]) == 0
    assert (out2 / "report.json").read_bytes() == first


# ---------------------------------------------------------------------------
# reproduce and plot


def test_reproduce_writes_report_and_echo(tmp_path, capsys, monkeypatch):
    out = tmp_path / "rep"
    monkeypatch.setattr(pipeline, "DESK_TRAIN_PER_CLASS", 10)
    monkeypatch.setattr(pipeline, "DESK_TEST_PER_CLASS", 5)
    assert main(["reproduce", "table1-lr", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "AR-train (train split)" in stdout
    echo = json.loads((out / "config.json").read_text())
    assert echo["model"] == "raw"
    assert echo["n_train_per_class"] == 10
    report = json.loads((out / "report.json").read_text())
    assert {r["dataset"] for r in report["rows"]} == {
        "AR-train (train split)", "AR-train (held-out)", "shift-I", "shift-II",
    }


def test_plot_emits_expected_panels(tmp_path, capsys):
    out = tmp_path / "plots"
    assert main(["plot", "--out", str(out)]) == 0
    spectra = {p.name for p in out.glob("spectrum-*.dat")}
    curves = {p.name for p in out.glob("ttss-*.dat")}
    assert spectra == {"spectrum-ar15.dat", "spectrum-noise-normal.dat",
                       "spectrum-noise-uniform.dat"}
    assert curves == {"ttss-ar15.dat", "ttss-ar100.dat", "ttss-arma.dat",
                      "ttss-arfima.dat", "ttss-noise-normal.dat",
                      "ttss-noise-uniform.dat"}
    sample = (out / "ttss-ar15.dat").read_text().splitlines()
    assert len(sample) == 1001
    idx, val = sample[500].split()
    assert idx == "500"
    assert 0.0 <= float(val) <= 1.0


def test_parser_prog_name():
    assert build_parser().prog == "tscausal"
