"""Steadiness check: run one workload k times, one seed each, and report
each metric's median, quartiles and spread against its bound.

    python3 e2ebench/steady.py --workload intake_explore_1x --runs 10 --seed-base 100

The spread is (q3 - q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``.  Runs are serial subprocesses of
``run.py``; every result line is appended to ``--out`` (JSON lines) so two
sets of runs can be compared afterwards with ``--compare``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def summarise(results: list[dict], spec: dict) -> list[str]:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lines = [f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"]
    names = list(results[0]["metrics"])
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "  OVER" if rel > bound else ("  ok" if rel < bound / 3 else "  within")
        lines.append(
            f"{name + ' (' + unit + ')':<34} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
            f"{rel:>7.3f} {bound if bound is not None else '':>6}{flag}"
        )
    shares = {r["failed"] / r["attempted"] for r in results}
    correct = all(r["correct"] for r in results)
    lines.append(f"runs={len(results)} correct={correct} failed shares={sorted(shares)}")
    return lines


def compare(first: list[dict], second: list[dict], spec: dict) -> list[str]:
    """Second set's median against the first's, per end-to-end metric."""
    lines = [f"{'metric':<24} {'median 1':>12} {'median 2':>12} {'change':>8} {'bound':>6}"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        a = statistics.median(r["metrics"][name]["value"] for r in first)
        b = statistics.median(r["metrics"][name]["value"] for r in second)
        change = (b - a) / a
        worse = change if metric["better"] == "lower" else -change
        flag = "  WORSE" if worse > metric["bound"] else ""
        lines.append(f"{name:<24} {a:>12.4f} {b:>12.4f} {change:>+8.3f} {metric['bound']:>6}{flag}")
    return lines


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"run failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def read(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON lines file the results are appended to")
    parser.add_argument("--compare", type=Path, nargs=2, default=None,
                        help="compare the medians of two results files")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        print("\n".join(compare(read(args.compare[0]), read(args.compare[1]), spec)))
        return 0
    if not args.workload:
        parser.error("--workload is required to run")
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for i in range(args.runs):
        seed = args.seed_base + i
        result = run_once(args.workload, seed, seconds)
        result["seed"] = seed
        results.append(result)
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(result) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    print("\n".join(summarise(results, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
