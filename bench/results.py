"""Collect result sets of the benchmark and judge one against another.

    python3 bench/results.py collect --workload NAME [--workload NAME ...] \\
        --seeds 1-10 [--trace 0|1] [--seconds S] --out SET.jsonl
    python3 bench/results.py pairs --parent DIR --change DIR --workload NAME \\
        --seeds 1-10 --out OUTDIR
    python3 bench/results.py summary SET.jsonl
    python3 bench/results.py compare PARENT.jsonl CHANGE.jsonl

``collect`` runs ``bench/run.py`` once per workload and seed and appends one
JSON line per run: workload, seed, trace, the environment record and the
run's result. ``pairs`` does the same for two checkouts, alternating which
side runs first, so that both sides share the host's slow and fast phases,
and then compares them. ``summary`` prints each end-to-end metric's median,
quartiles and spread (interquartile range over median) against its bound
from BENCHMARK.json. ``compare`` applies the rules a performance change is judged
by, per workload and end-to-end metric:

- a gain counts only when the change wins at least 9 in 10 pairs (pairs share
  a seed; ties count for neither side) and the medians differ by more than
  the parent's interquartile range;
- a regression is a change median worse than the parent's by more than the
  metric's bound;
- a metric whose spread on either side is wider than its bound is
  "unresolved", unless every change run beats every parent run;
- failed_frac (failed over attempted passes) must not rise.

It exits 1 on any regression or failed_frac rise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent


def load_benchmark() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root: Path, workload: str, seed: int, trace: int, seconds: float) -> dict | None:
    """One benchmark run from the checkout at ``root``, as a result-set record."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"{root}: {workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
        return None
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    record = {"workload": workload, "seed": seed, "trace": trace, "env": env, "result": json.loads(lines[-1])}
    if not trace:
        print(f"{root.name}: {workload} seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in record["result"]["metrics"].items()), flush=True)
    return record


def append(path: Path, record: dict) -> None:
    with path.open("a") as fh:
        fh.write(json.dumps(record) + "\n")


def collect(workloads, seeds, trace, seconds, out: Path) -> int:
    failures = 0
    for workload in workloads:
        for seed in seeds:
            record = run_once(REPO, workload, seed, trace, seconds)
            if record is None:
                failures += 1
            else:
                append(out, record)
    return failures


def pairs(parent: Path, change: Path, workloads, seeds, seconds, out: Path) -> int:
    """Parent and change runs per workload and seed, alternating which side
    goes first, into ``out``/parent.jsonl and ``out``/change.jsonl."""
    out.mkdir(parents=True, exist_ok=True)
    sides = [(parent, out / "parent.jsonl"), (change, out / "change.jsonl")]
    failures = 0
    for workload in workloads:
        for i, seed in enumerate(seeds):
            for root, path in sides if i % 2 == 0 else sides[::-1]:
                record = run_once(root, workload, seed, 0, seconds)
                if record is None:
                    failures += 1
                else:
                    append(path, record)
    return failures


def load_set(path: Path) -> dict[str, list[dict]]:
    """Untraced records by workload."""
    runs = defaultdict(list)
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if not record["trace"]:
            runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def values_of(records: list[dict], metric: str) -> dict[int, float]:
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in records}


def failed_frac(records: list[dict]) -> float:
    attempted = sum(r["result"]["attempted"] for r in records)
    return sum(r["result"]["failed"] for r in records) / attempted if attempted else 0.0


def summary(path: Path) -> int:
    bench = load_benchmark()
    runs = load_set(path)
    print(f"{'workload':<18}{'metric':<14}{'n':>3}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for workload, records in sorted(runs.items()):
        for m in bench["end_to_end"]:
            vals = list(values_of(records, m["name"]).values())
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = "" if s < m["bound"] / 3 else "  > bound/3"
            print(f"{workload:<18}{m['name']:<14}{len(vals):>3}{q1:>12.6g}{med:>12.6g}{q3:>12.6g}"
                  f"{s:>9.4f}{m['bound']:>7}{flag}")
        print(f"{workload:<18}{'failed_frac':<14}{len(records):>3}{failed_frac(records):>36.4g}")
    return 0


def judge(parent: dict[int, float], change: dict[int, float], better: str, bound: float) -> tuple[str, dict]:
    sign = 1.0 if better == "lower" else -1.0
    p_vals, c_vals = list(parent.values()), list(change.values())
    pq1, pmed, pq3 = quartiles(p_vals)
    cq1, cmed, cq3 = quartiles(c_vals)
    common = sorted(set(parent) & set(change))
    if common:
        matched = [(parent[s], change[s]) for s in common]
    else:
        matched = list(zip(p_vals, c_vals))
    wins = sum(sign * (c - p) < 0 for p, c in matched)
    worse = sign * (cmed - pmed) / pmed if pmed else 0.0
    stats = {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3), "wins": f"{wins}/{len(matched)}",
             "worse": worse}
    all_better = max(sign * c for c in c_vals) < min(sign * p for p in p_vals)
    if wins >= 0.9 * len(matched) and sign * (cmed - pmed) < 0 and abs(cmed - pmed) > pq3 - pq1:
        return "gain", stats
    if max(spread(p_vals), spread(c_vals)) > bound and not all_better:
        return "unresolved", stats
    if worse > bound:
        return "regression", stats
    return "within bound", stats


def compare(parent_path: Path, change_path: Path) -> int:
    bench = load_benchmark()
    parent, change = load_set(parent_path), load_set(change_path)
    bad = False
    print(f"{'workload':<18}{'metric':<14}{'parent q1/med/q3':>32}{'change q1/med/q3':>32}"
          f"{'wins':>7}{'worse':>9}  verdict")
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:<18}missing from {'parent' if workload not in parent else 'change'}")
            bad = True
            continue
        for m in bench["end_to_end"]:
            verdict, st = judge(values_of(parent[workload], m["name"]), values_of(change[workload], m["name"]),
                                m["better"], m["bound"])
            bad |= verdict == "regression"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{workload:<18}{m['name']:<14}{fmt(st['parent']):>32}{fmt(st['change']):>32}"
                  f"{st['wins']:>7}{st['worse']:>+9.2%}  {verdict}")
        pf, cf = failed_frac(parent[workload]), failed_frac(change[workload])
        verdict = "rose" if cf > pf else "not raised"
        bad |= cf > pf
        print(f"{workload:<18}{'failed_frac':<14}{pf:>32.4g}{cf:>32.4g}{'':>16}  {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Collect and compare benchmark result sets.")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("collect", help="run the benchmark per workload and seed into a result set")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("pairs", help="alternate parent and change runs per workload and seed")
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--out", type=Path, required=True, help="directory for parent.jsonl and change.jsonl")
    p = sub.add_parser("summary", help="median, quartiles and spread per workload and metric")
    p.add_argument("set", type=Path)
    p = sub.add_parser("compare", help="judge a change result set against a parent result set")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    if args.mode in ("collect", "pairs"):
        seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
        seeds = parse_seeds(args.seeds)
        if args.mode == "pairs":
            failures = pairs(args.parent.resolve(), args.change.resolve(), args.workload, seeds, seconds, args.out)
            failures += compare(args.out / "parent.jsonl", args.out / "change.jsonl")
        else:
            failures = collect(args.workload, seeds, args.trace, seconds, args.out)
            if not args.trace:
                summary(args.out)
        return 1 if failures else 0
    if args.mode == "summary":
        return summary(args.set)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    raise SystemExit(main())
