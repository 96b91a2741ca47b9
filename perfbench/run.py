#!/usr/bin/env python3
"""Build the benchmark binary from source and run the benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
      Builds (incrementally) and runs one workload, or every workload listed
      in BENCHMARK.json, each in its own process. The last line of stdout is
      the binary's JSON result (for `all`: one JSON object keyed by workload).

  python3 perfbench/run.py repeat --workload NAME --runs N [--seed0 S]
                                  [--seconds S] [--out FILE]
      Runs a workload N times with seeds S, S+1, ... and appends one JSON line
      per run to FILE (default .bench_build/runs-NAME.jsonl).

  python3 perfbench/run.py compare FIRST.jsonl SECOND.jsonl
      For every workload and end-to-end metric of two sets of runs: median,
      quartiles, the quartile spread as a share of the median, and whether
      the sets agree within the metric's bound from BENCHMARK.json. Exits 1
      when any pair disagrees.

Build products, traces and the daemon's temporary directories go under
$CARGO_TARGET_DIR when set, else .bench_build/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally; returns the binary's path."""
    tree = os.path.join(build_dir(), "cmake")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", tree, "-j", "4", "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(tree, "perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    base = os.path.relpath(build_dir())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(base, "work"),
           "--trace-dir", os.path.join(base, "trace")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def cmd_run(args):
    binary = build()
    if args.workload != "all":
        code, out = run_workload(binary, args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        return code
    results = {}
    worst = 0
    for w in load_spec()["workloads"]:
        code, out = run_workload(binary, w["name"], args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        worst = worst or code
        results[w["name"]] = last_json(out) if code == 0 else None
    print(json.dumps(results))
    return worst


def cmd_repeat(args):
    binary = build()
    out_path = args.out or os.path.join(build_dir(), f"runs-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "a") as f:
        for i in range(args.runs):
            seed = args.seed0 + i
            t0 = time.monotonic()
            code, out = run_workload(binary, args.workload, seed, args.seconds, 0)
            result = last_json(out) if code == 0 else None
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "exit": code, "result": result}) + "\n")
            f.flush()
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()} \
                if result else "FAILED"
            log(f"{args.workload} seed {seed}: {time.monotonic() - t0:.1f} s {shown}")
    log(f"appended {args.runs} runs to {out_path}")
    return 0


def read_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                entry = json.loads(line)
                runs.setdefault(entry["workload"], []).append(entry)
    return runs


def summarize(entries, name):
    values = [e["result"]["metrics"][name]["value"] for e in entries if e["result"]]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return values, med, q1, q3, (q3 - q1) / med


def failed_share(entries):
    shares = {e["result"]["failed"] / e["result"]["attempted"]
              for e in entries if e["result"]}
    return shares


def cmd_compare(args):
    spec = load_spec()
    first, second = read_runs(args.first), read_runs(args.second)
    ok = True
    print(f"{'workload':14} {'metric':16} {'set':3} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(first) & set(second)):
        a, b = first[workload], second[workload]
        if any(e["result"] is None for e in a + b):
            print(f"{workload}: a run failed")
            ok = False
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            rows = [summarize(a, name), summarize(b, name)]
            worse = (rows[1][1] - rows[0][1]) / rows[0][1]
            if not lower:
                worse = -worse
            verdicts = []
            for label, (values, med, q1, q3, spread) in zip(("1", "2"), rows):
                steady = name == "setup_s" or spread <= bound
                verdicts.append(steady)
                print(f"{workload:14} {name:16} {label:3} {len(values):3d} {med:12.5g} "
                      f"{q1:12.5g} {q3:12.5g} {spread:7.3f} {bound:6.2f}  "
                      f"{'steady' if steady else 'SPREAD TOO WIDE'}")
            agree = all(verdicts) and worse <= bound
            ok = ok and agree
            print(f"{'':14} {name:16} second median {100 * worse:+.1f}% worse -> "
                  f"{'AGREE' if agree else 'DISAGREE'}")
        shares = failed_share(a) | failed_share(b)
        same = len(shares) == 1
        ok = ok and same
        print(f"{workload:14} failed share {sorted(shares)} -> {'AGREE' if same else 'DISAGREE'}")
    print("ALL AGREE" if ok else "DISAGREEMENT")
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "repeat":
        p = argparse.ArgumentParser(prog="run.py repeat")
        p.add_argument("--workload", required=True)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seed0", type=int, default=1)
        p.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
        p.add_argument("--out")
        return cmd_repeat(p.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("first")
        p.add_argument("second")
        return cmd_compare(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return cmd_run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, FileNotFoundError, OSError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
