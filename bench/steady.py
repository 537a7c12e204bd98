"""Run the benchmark on several seeds and summarize how steady it is.

For every workload and end-to-end metric this prints the median of the
runs, the distance between their first and third quartiles as a share of
the median (the spread), and the metric's bound from BENCHMARK.json, then
writes the summary to the `--out` file.  With `--against`, it also checks
each median against that of an earlier summary: a median worse than the
earlier one by more than the bound is flagged.

    python3 bench/steady.py --seeds 1-10 --out bench/baseline-1.json
    python3 bench/steady.py --seeds 1-10 --out bench/baseline-2.json \
        --against bench/baseline-1.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=REPO, check=True, text=True,
                          stdout=subprocess.PIPE)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main(argv=None):
    cmd = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cmd.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    cmd.add_argument("--out", required=True)
    cmd.add_argument("--against")
    args = cmd.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    earlier = {}
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            earlier = json.load(f)["workloads"]
    workloads = [w["name"] for w in spec["workloads"]]
    summary = {}
    for workload in workloads:
        reports = [run_once(spec, workload, seed) for seed in args.seeds]
        if not all(r["correct"] for r in reports):
            sys.exit("%s: a run failed its output checks" % workload)
        rows = summary[workload] = {
            "attempted": [r["attempted"] for r in reports],
            "failed": [r["failed"] for r in reports],
            "metrics": {name: summarize([r["metrics"][name]["value"]
                                         for r in reports], bound)
                        for name, bound in bounds.items()}}
        for name, row in rows["metrics"].items():
            flags = "" if row["spread"] <= row["bound"] else "  OUTSIDE BOUND"
            if workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                change = (row["median"] - before) / before if before else 0.0
                worse = -change if name in higher else change
                row["worse_than_earlier"] = worse
                flags += "  worse %+.3f%s" % (
                    worse, "  WORSE THAN BOUND" if worse > row["bound"] else "")
            print("%-18s %-22s median %12.4f  spread %.3f  bound %.2f%s" % (
                workload, name, row["median"], row["spread"], row["bound"],
                flags), flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"command": "python3 bench/steady.py " + " ".join(
                       argv if argv is not None else sys.argv[1:]),
                   "machine": "%s, %d CPUs, Python %s" % (
                       cpu_model(), os.cpu_count(), platform.python_version()),
                   "run_seconds": spec["run_seconds"],
                   "workloads": summary}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
