"""Command-line entry point.

Six subcommands: ``generate``, ``featurize``, ``train``, ``evaluate``,
``reproduce``, ``plot``. The first four compose through a run directory
(datasets, then features, then a model, then a report); ``reproduce`` runs
one of the bundled experiment presets end to end and must produce the same
metrics as the chained form. Exit codes: 0 success, 1 runtime failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import artifacts, classify, pipeline, spectral
from .codec import to_doc
from .seriesgen import Kind, ProcessSpec, generate_many


class ConfigError(Exception):
    """A config file that cannot be parsed or validated."""


def _load_config(path: str | Path) -> pipeline.ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = artifacts.read_json_object(p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        return pipeline.config_from_dict(doc)
    except ValueError as exc:
        raise ConfigError(f"{p}: {exc}") from exc


def _write_config_echo(config: pipeline.ExperimentConfig, run_dir: Path) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    artifacts.write_text(
        run_dir / "config.json",
        # ``lr`` as given, so that `featurize --model` resolves it for its own model
        json.dumps(to_doc(config), indent=2, sort_keys=True) + "\n",
    )


def _run_dir(out: str | None, seed: int, run_name: str | None) -> Path:
    """Explicit --out wins; otherwise runs/<timestamp>-seed<seed>[-<name>]."""
    if out is not None:
        return Path(out)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    suffix = f"-{run_name}" if run_name else ""
    return Path("runs") / f"{stamp}-seed{seed}{suffix}"


def _apply_overrides(config: pipeline.ExperimentConfig, args) -> pipeline.ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        config = replace(config, master_seed=args.seed)
    if getattr(args, "model", None) is not None:
        config = replace(config, model=pipeline.canonical_model(args.model))
    return config


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    run_dir = _run_dir(args.out, config.master_seed, args.run_name)
    train_set, test_sets = pipeline.build_all_datasets(config)
    # features made from the datasets being replaced must not be trained on
    (run_dir / "features" / "manifest.json").unlink(missing_ok=True)
    _write_config_echo(config, run_dir)
    recipes = (config.train_recipe, *config.test_recipes)
    for recipe, dataset in zip(recipes, (train_set, *test_sets)):
        pipeline.persist_dataset(
            dataset, run_dir / "datasets" / recipe.name, pipeline.dataset_source(config, recipe)
        )
    print(f"wrote {1 + len(test_sets)} datasets under {run_dir / 'datasets'}")
    return 0


def _features_manifest(run_dir: Path) -> artifacts.FeaturesManifest:
    path = run_dir / "features" / "manifest.json"
    if not path.is_file():
        raise FileNotFoundError(f"missing features manifest: {path} (run `featurize` first)")
    return artifacts.read_document(path, artifacts.FeaturesManifest,
                                   artifacts.ARTIFACT_SCHEMA_VERSION)


def _load_feature_set(run_dir: Path, entry: artifacts.FeatureSet) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of one features-manifest set."""
    set_dir = run_dir / "features" / entry.dir
    features = artifacts.load_array(set_dir / "features.npy", np.float64, 2)
    labels = artifacts.load_array(set_dir / "labels.npy", np.int64, 1)
    rows, columns = entry.shape
    if features.shape != (rows, columns) or labels.shape != (rows,):
        raise ValueError(
            f"{set_dir}: corrupt feature set: {features.shape[0]}x{features.shape[1]} features "
            f"and {labels.size} labels for a manifest shape of {rows}x{columns}"
        )
    return features, labels


def cmd_featurize(args) -> int:
    run_dir = Path(args.run_dir)
    config_path = args.config if args.config else run_dir / "config.json"
    config = _apply_overrides(_load_config(config_path), args)

    datasets = []
    for recipe in (config.train_recipe, *config.test_recipes):
        d = run_dir / "datasets" / recipe.name
        if not d.is_dir():
            raise FileNotFoundError(f"missing dataset directory: {d} (run `generate` first)")
        datasets.append(pipeline.load_dataset(d, pipeline.dataset_source(config, recipe)))
    sets = pipeline.featurize_sets(config, datasets[0], datasets[1:])
    del datasets  # ``sets`` now holds the only reference to each dataset

    feat_root = run_dir / "features"
    manifest_path = feat_root / "manifest.json"
    # no manifest may point at feature sets that are being replaced
    manifest_path.unlink(missing_ok=True)
    sets_meta = []
    for name, slug, features, labels in sets:
        set_dir = feat_root / slug
        set_dir.mkdir(parents=True, exist_ok=True)
        artifacts.save_array(set_dir / "features.npy", features)
        artifacts.save_array(set_dir / "labels.npy", labels)
        sets_meta.append(artifacts.FeatureSet(name, slug, features.shape))
    manifest = artifacts.FeaturesManifest(config.model, pipeline.config_to_dict(config),
                                          tuple(sets_meta))
    doc = {"schema_version": artifacts.ARTIFACT_SCHEMA_VERSION, **to_doc(manifest)}
    artifacts.write_text(manifest_path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(sets_meta)} feature sets ({config.model}) under {feat_root}")
    return 0


def cmd_train(args) -> int:
    run_dir = Path(args.run_dir)
    manifest = _features_manifest(run_dir)
    config = pipeline.config_from_dict(manifest.config)
    entry = manifest.sets[0]
    features, labels = _load_feature_set(run_dir, entry)
    model = pipeline.train_model(config, entry.name, features, labels)
    out_path = Path(args.model_out) if args.model_out else run_dir / "model.json"
    classify.save_model(model, out_path)
    print(
        f"trained {config.model} model on {labels.size} instances: "
        f"converged={model.converged} loss={model.final_loss:.6g} -> {out_path}"
    )
    return 0


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run_dir)
    manifest = _features_manifest(run_dir)
    config = pipeline.config_from_dict(manifest.config)
    model_path = Path(args.model_path) if args.model_path else run_dir / "model.json"
    if not model_path.is_file():
        raise FileNotFoundError(f"missing model file: {model_path} (run `train` first)")
    model = classify.load_model(model_path)
    expected = pipeline.config_fingerprint(config)
    if model.fingerprint != expected:
        raise ValueError(
            f"model {model_path} was trained under config fingerprint {model.fingerprint}, "
            f"but the features were made under {expected}; run `train` again"
        )
    # a set's files are read before its stage starts, so load errors name the file alone
    rows = tuple(
        pipeline.score_set(model, entry.name, *_load_feature_set(run_dir, entry))
        for entry in manifest.sets
    )
    report = pipeline.ExperimentReport(config=config, rows=rows)
    out_dir = Path(args.out) if args.out else run_dir
    pipeline.write_report(report, out_dir)
    print(pipeline.report_to_text(report), end="")
    return 0


def cmd_reproduce(args) -> int:
    config = pipeline.table_config(args.table, scale=args.scale, seed=args.seed)
    run_dir = _run_dir(args.out, config.master_seed, args.run_name)
    report = pipeline.run_experiment(config)
    _write_config_echo(config, run_dir)
    pipeline.write_report(report, run_dir)
    print(pipeline.report_to_text(report), end="")
    print(f"report written to {run_dir}")
    return 0


# representative realizations behind the plot panels; coefficients sit in the
# middle of the experiment ranges
def _panel_specs(length: int) -> list[tuple[str, ProcessSpec]]:
    arma_kw = dict(ar_terms=((2, 0.85),), ma_terms=((0, 1.0), (3, 0.85)), noise_variance=0.01)
    return [
        ("ar15", ProcessSpec(kind=Kind.AR, length=length, ar_terms=((15, 0.85),), noise_variance=0.01)),
        ("ar100", ProcessSpec(kind=Kind.AR, length=length, ar_terms=((100, 0.85),), noise_variance=0.01)),
        ("arma", ProcessSpec(kind=Kind.ARMA, length=length, **arma_kw)),
        ("arfima", ProcessSpec(kind=Kind.ARFIMA, length=length, d=0.3, **arma_kw)),
        ("noise-normal", ProcessSpec(kind=Kind.NOISE_NORMAL, length=length, noise_variance=0.01)),
        ("noise-uniform", ProcessSpec(kind=Kind.NOISE_UNIFORM, length=length, uniform_lo=-0.6, uniform_hi=0.6)),
    ]


def cmd_plot(args) -> int:
    config = pipeline.table_config("table3", scale="desk", seed=args.seed)
    run_dir = _run_dir(args.out, config.master_seed, args.run_name)

    names, specs = zip(*_panel_specs(config.length))
    seeds = [pipeline.derive_seed(config.master_seed, "plot", name) for name in names]
    values = generate_many(specs, seeds)
    spectra = spectral.amplitude_spectra(values)
    # TTSS curves use the table3 feature stage, whose per-instance scaling
    # fits nothing, so no training split is simulated
    stage = pipeline.fit_feature_stage(config, np.empty((0, config.length)))
    curves = {f"spectrum-{n}": spectra[names.index(n)]
              for n in ("ar15", "noise-normal", "noise-uniform")}
    curves.update((f"ttss-{n}", ttss) for n, ttss in zip(names, stage.transform(values)))
    for stem, curve in curves.items():
        pipeline.emit_plot_data(curve, run_dir / f"{stem}.dat")
    print(f"wrote {len(curves)} plot data files under {run_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="output directory (default: runs/<timestamp>-seed<seed>)")
    sub.add_argument("--run-name", help="suffix for the default output directory name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tscausal",
        description="Classify time series as causal vs non-causal via spectral and chaotic-neuron features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate the configured datasets into a run directory")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--seed", type=int, help="override the config master seed")
    _add_common_output_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("featurize", help="extract features for every dataset in a run directory")
    p.add_argument("run_dir", help="run directory produced by `generate`")
    p.add_argument("--config", help="config JSON (default: <run_dir>/config.json)")
    p.add_argument("--model", type=str.lower, choices=pipeline.MODEL_ALIASES, metavar="NAME",
                   help="override the feature pipeline (raw, fft, fft_chaosfex)")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train the classifier on the train-split features")
    p.add_argument("run_dir", help="run directory produced by `featurize`")
    p.add_argument("--model-out", help="model file path (default: <run_dir>/model.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained model on every feature set")
    p.add_argument("run_dir", help="run directory produced by `featurize`")
    p.add_argument("--model-path", help="model file (default: <run_dir>/model.json)")
    p.add_argument("--out", help="report directory (default: the run directory)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reproduce", help="run a bundled experiment preset end to end")
    p.add_argument("table", choices=sorted(pipeline.TABLE_MODELS), help="experiment preset")
    p.add_argument("--scale", choices=pipeline.SCALES, default="desk",
                   help="desk: 250/150 per class; paper: 1250/1250 per class")
    p.add_argument("--seed", type=int, default=42, help="master seed")
    _add_common_output_flags(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("plot", help="emit two-column .dat files for spectra and TTSS curves")
    p.add_argument("--seed", type=int, default=42, help="master seed")
    _add_common_output_flags(p)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
