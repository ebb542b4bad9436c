"""Alternating parent/change pairs of the benchmark, summarised as BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --out BENCH_11.json --note "what changed" --claim parabolic_u1:solve_s

For every workload in BENCHMARK.json, pair i (of PAIRS) runs
`perfbench/run.py --workload W --seed <SEED0+i> --seconds SECONDS --trace 0`
once in each checkout, in a fresh interpreter with the checkout as working
directory; even pairs run the parent first, odd pairs the change.  After
each run one more fresh `perfbench/cold.py` gives `cli.import_s`.  Once per
workload and side, MINFLT_RUNS fresh interpreters each time MINFLT_OPS warm
operations after one untimed one and report the minor page faults
(`ru_minflt`) per operation, and TRACE_RUNS runs with `--trace 1` give the
per-layer metrics of each side (their values only, one list per metric).

Every metric gets the median, quartiles (numpy's linear percentiles) and
runs of each side, the change's median relative to the parent's, the
number of pairs the change wins, and the parent's interquartile range.
End-to-end metrics also get their bound from BENCHMARK.json and whether
the change's median is within it.  The checkouts are only read.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

PAIRS = 10
SEED0 = 11  # seed of pair 0
SECONDS = 15.0  # the run length BENCHMARK.json's workloads use
TRACE_RUNS = 1
MINFLT_RUNS = 2
MINFLT_OPS = 4

BLAS_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

MINFLT = """
import json, resource, sys
sys.path.insert(0, "perfbench")
import workloads as W
prep = W.prepare(W.WORKLOADS[sys.argv[1]])
W.operation(prep, W.op_seed(int(sys.argv[2]), 0))
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
n = int(sys.argv[3])
for i in range(1, n + 1):
    W.operation(prep, W.op_seed(int(sys.argv[2]), i))
print(json.dumps((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / n))
"""


def last_json(args, cwd):
    """Run a fresh interpreter in `cwd`; return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, **BLAS_ENV}, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args} in {cwd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs):
    q1, med, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": runs}


def compare(parent, change, better, bound=None):
    p, c = summary(parent), summary(change)
    sign = 1 if better == "lower" else -1
    rel = (c["median"] - p["median"]) / p["median"]
    out = {
        "parent": p,
        "change": c,
        "median_change_rel": rel,
        f"change_{better}_in_pairs": sum(
            sign * (b - a) < 0 for a, b in zip(parent, change)
        ),
        "parent_iqr": p["q3"] - p["q1"],
    }
    if bound is not None:
        out["bound"] = bound
        out["within_bound"] = sign * rel <= bound
    return out


def bench_workload(name, sides, spec):
    runs = {side: [] for side in sides}
    imports = {side: [] for side in sides}
    for i in range(PAIRS):
        seed = SEED0 + i
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            cmd = ["perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(SECONDS), "--trace", "0"]
            runs[side].append(last_json(cmd, sides[side]))
            imports[side].append(
                last_json(["perfbench/cold.py", name], sides[side])["import_s"]
            )
            print(f"{name} pair {i} {side}: solve_s "
                  f"{runs[side][-1]['metrics']['solve_s']['value']:.4g}", flush=True)
    ops = {
        side: {"attempted": sum(r["attempted"] for r in runs[side]),
               "failed": sum(r["failed"] for r in runs[side])}
        for side in sides
    }
    end_to_end = {}
    for metric in spec["end_to_end"]:
        m = metric["name"]
        vals = {s: [r["metrics"][m]["value"] for r in runs[s]] for s in sides}
        end_to_end[m] = {"unit": metric["unit"], **compare(
            vals["parent"], vals["change"], metric["better"], metric["bound"])}
    traced = {side: [last_json(
        ["perfbench/run.py", "--workload", name, "--seed", str(SEED0 + j),
         "--seconds", str(SECONDS), "--trace", "1"], sides[side])["metrics"]
        for j in range(TRACE_RUNS)] for side in sides}
    return {
        "pairs": PAIRS, "ops": ops, "end_to_end": end_to_end,
        "per_layer": {"cli.import_s": {"unit": "s", **compare(
            imports["parent"], imports["change"], "lower")}},
        "trace": {
            m: {side: [t[m]["value"] for t in traced[side]] for side in sides}
            for m in traced["change"][0]
        },
        "ru_minflt_per_op": {
            side: [last_json(["-c", MINFLT, name, str(SEED0 + j), str(MINFLT_OPS)],
                             sides[side])
                   for j in range(MINFLT_RUNS)]
            for side in sides
        },
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--note", default="", help="one line on what the change does")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    import scipy

    record = {
        "change": args.note,
        "method": (
            f"perfbench/run.py --workload W --seed S --seconds {SECONDS:g} "
            "--trace 0 on the parent and the change, in separate checkouts, "
            f"alternating which side runs first; pair i uses seed {SEED0}+i. "
            "cli.import_s is perfbench/cold.py's import_s from one extra cold "
            "interpreter after each run. ru_minflt_per_op: minor page faults per "
            f"warm operation over {MINFLT_OPS} operations after one untimed "
            f"one, in {MINFLT_RUNS} fresh interpreters per side. trace: "
            f"{TRACE_RUNS} --trace 1 run(s) per side, seeds {SEED0} on. "
            "A change "
            "'win' is a pair where the change reads better. BLAS pinned to one "
            "thread. Written by scripts/bench_pairs.py."
        ),
        "hardware": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = {
            "metric": metric, "workload": workload,
            "rule": f"change better in >= {PAIRS - PAIRS // 10} of "
                    f"{PAIRS} pairs and median gap > parent IQR",
        }
    record["workloads"] = {n: bench_workload(n, sides, spec) for n in names}
    if args.claim:
        res = record["workloads"][workload]["end_to_end"][metric]
        better = next(m["better"] for m in spec["end_to_end"] if m["name"] == metric)
        wins = res[f"change_{better}_in_pairs"]
        gap = res["parent"]["median"] - res["change"]["median"]
        gap = gap if better == "lower" else -gap
        record["claim"].update(
            wins=wins, median_gap=gap, parent_iqr=res["parent_iqr"],
            met=wins >= PAIRS - PAIRS // 10 and gap > res["parent_iqr"],
        )
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
