"""The tscausal benchmark: time-to-report on two workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, taken by wrapping each
layer's public functions from outside the package (see ``layertrace.py``).
Every pass's ``report.json`` is checked against the digests pinned in
``golden.json`` at its seed, or, at any other seed, against the first report
of the same configuration in this invocation; a ``table3`` report must also
meet acceptance criterion 1. See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from layertrace import ROOT_SPAN, Tracer, clock

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
LAUNCHER = BENCH / "trace_cli.py"
MB = 2**20

# in-process: one paper-scale table3 pass, timed warm after an untimed desk pass
TABLE3 = "table3-paper"
TABLE3_PASS = (("table3", "paper"),)
TABLE3_WARMUP = (("table3", "desk"),)
# four fresh CLI processes over one run directory; never warmed up
CHAINED = "chained-cli-desk"
WORKLOADS = [TABLE3, CHAINED]
CHAINED_KEY = "chained/desk"
TINY = {"n_train_per_class": 5, "n_test_per_class": 5, "length": 256}


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=32).hexdigest()


def meets_criterion_1(report: dict) -> bool:
    """The thresholds of acceptance criterion 1, read from report.json."""
    rows = {r["dataset"]: r for r in report["rows"]}
    accs = [rows[n]["accuracy"] for n in ("AR-train (held-out)", "shift-I", "shift-II")]
    recalls = [rows[n]["recall"][1] for n in ("AR100", "ARMA", "ARFIMA")]
    return all(a >= 0.97 for a in accs) and all(r >= 0.95 for r in recalls)


class Checker:
    """Verifies each report.json against a reference digest per config key.

    Keys without a pin take the first report seen as their reference.
    """

    def __init__(self, pins: dict[str, str] | None, criteria: bool = True):
        self.reference = dict(pins or {})
        self.criteria = criteria
        self.seen: dict[str, str] = {}

    def verify(self, key: str, path: Path) -> bool:
        data = path.read_bytes()
        got = digest(data)
        self.seen.setdefault(key, got)
        ok = got == self.reference.setdefault(key, got)
        if ok and self.criteria and key.startswith("table3/"):
            ok = meets_criterion_1(json.loads(data))
        if not ok:
            print(f"report check failed: {key} {got}", file=sys.stderr)
        return ok


@dataclass
class Context:
    work: Path
    checker: Checker
    env: dict
    tiny: bool = False


@dataclass
class Pass:
    ok: bool
    wall: float
    out_bytes: int
    child_rss: int = 0
    tracer: Tracer | None = None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def preset(table: str, scale: str, seed: int, tiny: bool):
    from tscausal import pipeline

    config = pipeline.table_config(table, scale=scale, seed=seed)
    return replace(config, **TINY) if tiny else config


def chained_config(seed: int, tiny: bool) -> dict:
    return {"master_seed": seed, **(TINY if tiny else {})}


def spawn(argv: list[str], ctx: Context) -> tuple[int, resource.struct_rusage]:
    """Run a child to completion; return its exit code and resource usage."""
    err = tempfile.TemporaryFile(dir=ctx.work)
    with err:
        proc = subprocess.Popen(argv, cwd=REPO, env=ctx.env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-4000:])
    return code, usage


def setup_seconds(module: str, ctx: Context, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing ``module``."""
    argv = [sys.executable, "-c", f"import {module}"]
    spawn(argv, ctx)  # compiles bytecode and fills the page cache
    times = []
    for _ in range(repeats):
        t0 = clock()
        code, _ = spawn(argv, ctx)
        times.append(clock() - t0)
        if code != 0:
            raise RuntimeError(f"`import {module}` exited with {code}")
    return statistics.median(times)


def inprocess_pass(tables, seed: int, ctx: Context, tracer: Tracer | None) -> Pass:
    from tscausal import pipeline

    out = Path(tempfile.mkdtemp(dir=ctx.work))
    configs = [(f"{table}/{scale}", preset(table, scale, seed, ctx.tiny)) for table, scale in tables]
    ok = True
    with tracer.installed() if tracer else nullcontext():
        t0 = clock()
        try:
            with tracer.span(ROOT_SPAN) if tracer else nullcontext():
                for key, config in configs:
                    pipeline.write_report(pipeline.run_experiment(config), out / key)
        except Exception:
            traceback.print_exc()
            ok = False
        wall = clock() - t0
    ok = ok and all([ctx.checker.verify(key, out / key / "report.json") for key, _ in configs])
    size = dir_bytes(out)
    shutil.rmtree(out)
    return Pass(ok, wall, size, tracer=tracer)


def chained_pass(seed: int, ctx: Context, tracer: Tracer | None) -> Pass:
    tmp = Path(tempfile.mkdtemp(dir=ctx.work))
    run_dir, config = tmp / "run", tmp / "config.json"
    config.write_text(json.dumps(chained_config(seed, ctx.tiny)))
    steps = [
        ("generate", "--config", str(config), "--out", str(run_dir)),
        ("featurize", str(run_dir)),
        ("train", str(run_dir)),
        ("evaluate", str(run_dir)),
    ]
    ok, rss, children = True, 0, []
    t0 = clock()
    with tracer.span(ROOT_SPAN) if tracer else nullcontext() as root:
        for step in steps:
            if tracer:
                dump = tmp / f"trace-{step[0]}.json"
                argv = [sys.executable, str(LAUNCHER), str(dump), *step]
                before = dir_bytes(run_dir) if run_dir.exists() else 0
            else:
                argv = [sys.executable, "-m", "tscausal.cli", *step]
            spawned = clock()
            code, usage = spawn(argv, ctx)
            rss = max(rss, usage.ru_maxrss)
            if tracer:
                tracer.counts[f"cli.{step[0]}.bytes_written"] += dir_bytes(run_dir) - before
                children.append((dump, spawned))
            if code != 0:
                print(f"`tscausal {step[0]}` exited with {code}", file=sys.stderr)
                ok = False
                break
    wall = clock() - t0
    for dump, spawned in children:
        if dump.exists():
            tracer.merge(dump, spawned, root)
    ok = ok and ctx.checker.verify(CHAINED_KEY, run_dir / "report.json")
    size = dir_bytes(run_dir)
    shutil.rmtree(tmp)
    return Pass(ok, wall, size, child_rss=rss * 1024, tracer=tracer)


def chained_reference(seed: int, ctx: Context) -> None:
    """Without a pinned digest, the chained report must match an in-process
    run of the same config."""
    from tscausal import pipeline

    out = Path(tempfile.mkdtemp(dir=ctx.work))
    config = pipeline.config_from_dict(chained_config(seed, ctx.tiny))
    pipeline.write_report(pipeline.run_experiment(config), out)
    ctx.checker.verify(CHAINED_KEY, out / "report.json")
    shutil.rmtree(out)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    ctx: Context,
    setup_repeats: int = 5,
) -> tuple[dict, list[Pass]]:
    """Measure one workload; returns the result record (raw metric values)
    and the passes, traced ones included."""
    chained = name == CHAINED
    attempted = failed = 0
    if chained:
        if CHAINED_KEY not in ctx.checker.reference:
            chained_reference(seed, ctx)
        one_pass = lambda tracer: chained_pass(seed, ctx, tracer)  # noqa: E731
    else:
        one_pass = lambda tracer: inprocess_pass(TABLE3_PASS, seed, ctx, tracer)  # noqa: E731
        warm = inprocess_pass(TABLE3_WARMUP, seed, ctx, None)
        attempted, failed = 1, int(not warm.ok)

    metrics: dict[str, float] = {}
    if not trace:
        module = "tscausal.cli" if chained else "tscausal"
        metrics["setup_s"] = setup_seconds(module, ctx, setup_repeats)

    plain: list[Pass] = []
    traced: list[Pass] = []
    start = clock()
    while True:
        plain.append(one_pass(None))
        if trace:
            traced.append(one_pass(Tracer()))
            traced[-1].tracer.finish()
        if clock() - start >= seconds:
            break
    passes = plain + traced
    attempted += len(passes)
    failed += sum(not p.ok for p in passes)

    walls = [p.wall for p in plain]
    if trace:
        per_pass = [p.tracer.layer_metrics() for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(walls)
    else:
        metrics["wall_s"] = statistics.median(walls)
        if chained:
            rss = max(p.child_rss for p in plain)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        metrics["peak_rss_mb"] = rss / MB
        metrics["run_dir_mb"] = statistics.median(p.out_bytes for p in plain) / MB
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, passes


def declared_units(bench: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def write_trace(path: Path, passes: list[Pass], env: dict) -> None:
    doc = {
        "env": env,
        "passes": [
            {
                "wall_s": p.wall,
                "spans": [vars(s) for s in p.tracer.spans],
                "counts": p.tracer.counts,
                "self_s": p.tracer.self_times(),
            }
            for p in passes
            if p.tracer
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure passes for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its children and removes its work dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench_file = REPO / "BENCHMARK.json"
    if not (SRC / "tscausal" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: run from a tscausal checkout; {SRC}/tscausal or {bench_file} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tscausal

    if Path(tscausal.__file__).resolve().parent != (SRC / "tscausal").resolve():
        print(f"error: imported tscausal from {tscausal.__file__}, not {SRC}", file=sys.stderr)
        return 2

    golden = json.loads((BENCH / "golden.json").read_text())
    pins = golden["digests"] if args.seed == golden["seed"] else None
    env = environment()
    workdir = REPO / ".bench_work"
    workdir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir))
    child_env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    ctx = Context(work=work, checker=Checker(pins), env=child_env)
    try:
        result, passes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_units(json.loads(bench_file.read_text()), bool(args.trace))
    if set(result["metrics"]) != set(units):
        missing, extra = set(units) - set(result["metrics"]), set(result["metrics"]) - set(units)
        print(f"error: metrics differ from BENCHMARK.json: missing {sorted(missing)}, undeclared {sorted(extra)}",
              file=sys.stderr)
        return 1
    if args.trace:
        write_trace(workdir / "traces" / f"{args.workload}-seed{args.seed}.json", passes, env)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in sorted(ctx.checker.seen.items()):
        print(f"digest {key} {value}")
    for name, unit in units.items():
        print(f"  {name:<40} {result['metrics'][name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<40} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']}/{result['attempted']} passes)")
    print("env " + json.dumps(env, sort_keys=True))
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
