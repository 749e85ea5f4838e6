#!/usr/bin/env python3
"""Launcher of the repository benchmark (see README.md next to this file).

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        builds the benchmark binary (release, offline) and runs one workload;
        the last line of standard output is the result object.
    python3 benchmark/run.py
        runs every workload with tracing and prints every metric.
    python3 benchmark/run.py --collect <runs> <out.jsonl>
        one set of runs: <runs> runs of every workload, seeds 1..<runs>, each
        as long as BENCHMARK.json's run_seconds.
    python3 benchmark/run.py --compare <a.jsonl> <b.jsonl>
        applies the bounds of BENCHMARK.json to two such sets; exit 1 on `worse`.

Reads no environment variable except cargo's own CARGO_TARGET_DIR.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the binary and returns its path. Exits with cargo's code on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(done.returncode or 1)
    return os.path.join(ROOT, target, "release", "benchmark")


def run_once(binary, workload, seed, seconds, trace):
    """One run; returns (exit code, parsed result line or None)."""
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


def collect(runs, out):
    binary = build()
    seconds = spec()["run_seconds"]
    with open(out, "w") as f:
        for workload in [w["name"] for w in spec()["workloads"]]:
            for seed in range(1, runs + 1):
                code, result = run_once(binary, workload, seed, seconds, 0)
                if code != 0 or result is None:
                    sys.exit(f"{workload} seed {seed}: exit code {code}")
                f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                f.flush()
                print(f"{workload} seed {seed} done", file=sys.stderr)


def load_set(path):
    """{workload: {metric: [values]}} of one collected set."""
    values = {}
    with open(path) as f:
        for line in filter(str.strip, f):
            run = json.loads(line)
            if not run["correct"] or run["failed"]:
                sys.exit(f"{path}: an incorrect run of {run['workload']} (seed {run['seed']})")
            for name, m in run["metrics"].items():
                values.setdefault(run["workload"], {}).setdefault(name, []).append(m["value"])
    return values


def spread(values):
    """Median, (q3 - q1) / median, and "median [q1 .. q3]" for printing."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2, f"{q2:.6g} [{q1:.6g} .. {q3:.6g}]"


def compare(path_a, path_b):
    a, b = load_set(path_a), load_set(path_b)
    declared = spec()
    worse = False
    print(f"{'workload':15} {'metric':26} {'a: median [q1 .. q3]':>34} {'b: median [q1 .. q3]':>34} "
          f"{'b vs a':>8} {'bound':>6}  verdict")
    for workload in [w["name"] for w in declared["workloads"]]:
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med_a, iqr_a, text_a = spread(a[workload][name])
            med_b, iqr_b, text_b = spread(b[workload][name])
            # Relative worsening of b against a, positive = worse.
            change = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                change = -change
            if change > bound:
                verdict, worse = "worse", True
            elif max(iqr_a, iqr_b) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:15} {name:26} {text_a:>34} {text_b:>34} {change:+8.2%} {bound:6.2f}  {verdict}")
    return 1 if worse else 0


def run_all():
    binary = build()
    failed = False
    for workload in [w["name"] for w in spec()["workloads"]]:
        # The binary's table of every metric goes to our standard output.
        done = subprocess.run([binary, "--workload", workload, "--trace", "1"],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=sys.stdout)
        failed |= done.returncode != 0
    return 1 if failed else 0


def main(argv):
    if not argv:
        return run_all()
    if argv[0] == "--compare" and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[0] == "--collect" and len(argv) == 3:
        collect(int(argv[1]), argv[2])
        return 0
    if argv[0] in ("-h", "--help", "--compare", "--collect"):
        sys.exit(__doc__)
    # One workload: become the binary, so no process of ours outlives it.
    binary = build()
    sys.stdout.flush()
    os.execv(binary, [binary] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
