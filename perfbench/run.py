"""fracsmc benchmark: time to an accurate solve, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload poisson_sin --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selfcheck

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones.  See perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent

# cold set-ups per run, each in a fresh interpreter; setup_s is their median
COLD_RUNS = 3
# sampler probes: ROADMAP's orders, draws per timed call, timed calls
PROBE_ALPHAS = (0.4, 1.0, 1.4, 1.9)
PROBE_DRAWS = 50_000
PROBE_REPS = 5
THREAD_VARS = W.BLAS_THREAD_VARS + ("BLIS_NUM_THREADS", "FRACSMC_THREADS")


# ---------------------------------------------------------------------------
# measurement


@dataclasses.dataclass
class Record:
    wall_s: float
    cpu_s: float
    outcome: W.Outcome


def measure(prep, seed, first, seconds, call=W.operation, tracer=None):
    """Run warm operations for `seconds` (at least one); time each."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        i = first + len(records)
        s = W.op_seed(seed, i)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = call(prep, s)
            else:
                out = tracer.run_op(i, call, prep, s)
        except Exception as exc:  # a raising solve is a failed operation
            if all(r.outcome.ok for r in records):  # show the first one
                traceback.print_exc()
            out = W.Outcome(False, f"raised {exc!r}")
        records.append(
            Record(time.perf_counter() - w0, time.process_time() - c0, out)
        )
    return records


def cold_setups(name, n):
    """Set-up timings of `n` fresh interpreters, one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "cold.py"), name],
            cwd=W.ROOT,
            capture_output=True,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _timed_median(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def sampler_probes(workload, seed):
    """ns per draw of the jump and interior samplers, called directly.

    Returns {alpha: (jump ns, interior ns)} and the sampler names that no
    longer exist; an absent sampler reads 0.
    """
    from fracsmc import walks
    from fracsmc.rng import RngStream

    jump_fn = getattr(walks, "sample_jump_scaled", None)
    interior_fn = getattr(walks, "sample_interior", None)
    absent = [f"fracsmc.walks.{name}" for name, fn in (
        ("sample_jump_scaled", jump_fn), ("sample_interior", interior_fn)) if fn is None]
    rng = RngStream(seed).generator()
    geom = walks.BallGeometry(0.0, 1.0)
    out = {}
    for alpha in sorted({workload.alpha, *PROBE_ALPHAS}):
        omega = rng.uniform(size=PROBE_DRAWS)
        jump = interior = 0.0
        if jump_fn:
            jump = _timed_median(lambda: jump_fn(omega, alpha), PROBE_REPS)
        if interior_fn:
            interior_fn(0.0, geom, alpha, rng, size=1)  # builds the table
            interior = _timed_median(
                lambda: interior_fn(0.0, geom, alpha, rng, size=PROBE_DRAWS), PROBE_REPS
            )
        out[alpha] = (jump / PROBE_DRAWS, interior / PROBE_DRAWS)
    return out, absent


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    None below 100 samples, where that percentile would be under p90.
    """
    n = len(values)
    if n < 100:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def end_to_end(colds, plain):
    return {
        "setup_s": (statistics.median(c["setup_s"] for c in colds), "s"),
        "solve_s": (statistics.median(r.wall_s for r in plain), "s"),
        "solve_cpu_s": (statistics.median(r.cpu_s for r in plain), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, prep, colds, plain, traced, tracer, probes):
    layers = tracer.layers()
    n_ops = len(traced)

    def per_op(layer, key="self_s"):
        agg = layers.get(layer)
        return agg[key] / n_ops if agg else 0.0

    def work(layer, k):
        agg = layers.get(layer)
        return agg["work"][k] / n_ops if agg and agg["work"] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    kernel_calls = per_op("walks.kernel", "calls")
    paths, steps = work("walks.kernel", 0), work("walks.kernel", 1)
    draws = work("walks.jump", 0)
    points = work("basis.residual", 0)
    m = {
        "walks.kernel.calls": (kernel_calls, "count"),
        "walks.kernel.self_s": (per_op("walks.kernel"), "s"),
        "walks.kernel.paths_per_call": (ratio(paths, kernel_calls), "paths"),
        "walks.path_steps": (steps, "count"),
        "walks.step_ns": (ratio(per_op("walks.kernel") * 1e9, steps), "ns"),
        "walks.jump.draws": (draws, "count"),
        "walks.jump.self_s": (per_op("walks.jump"), "s"),
        "walks.jump.ns_per_draw": (ratio(per_op("walks.jump") * 1e9, draws), "ns"),
        "walks.jump.useful_ratio": (
            ratio(work("walks.jump/kernel", 0), work("walks.jump/kernel", 1)), "ratio"
        ),
        "walks.interior.ns_per_draw": (probes[workload.alpha][1], "ns"),
    }
    for alpha in PROBE_ALPHAS:
        m[f"walks.jump.ns_per_draw.alpha{alpha}"] = (probes[alpha][0], "ns")
        m[f"walks.interior.ns_per_draw.alpha{alpha}"] = (probes[alpha][1], "ns")
    m.update({
        "walks.table_s": (statistics.median(c["table_s"] for c in colds), "s"),
        "basis.residual.points": (points, "count"),
        "basis.residual.self_s": (per_op("basis.residual"), "s"),
        "basis.residual.ns_per_point": (
            ratio(per_op("basis.residual", "total_s") * 1e9, points), "ns"
        ),
        "specfun.jacobi_eval_all.calls": (per_op("specfun.jacobi_eval_all", "calls"), "count"),
        "specfun.jacobi_eval_all.self_s": (per_op("specfun.jacobi_eval_all"), "s"),
        "specfun.legendre.calls": (per_op("specfun.legendre", "calls"), "count"),
        "specfun.legendre.self_s": (per_op("specfun.legendre"), "s"),
        "basis.interpolate.calls": (per_op("basis.interpolate", "calls"), "count"),
        "basis.interpolate.self_s": (per_op("basis.interpolate"), "s"),
        "basis.probe.self_s": (per_op("basis.probe"), "s"),
        "presets.reference.self_s": (per_op("presets.reference"), "s"),
        "rng.generators": (per_op("rng.generator", "calls"), "count"),
        "rng.generator.self_s": (per_op("rng.generator"), "s"),
    })
    solver = prep.solve.__module__.rpartition(".")[2] if prep.solve else None
    for eq in ("poisson", "parabolic"):
        mine = [r.outcome for r in plain] if eq == solver else []
        sweep_ms = [ms for o in mine for ms in o.sweep_ms]
        m[f"{eq}.sweeps"] = (statistics.fmean(o.sweeps for o in mine) if mine else 0.0, "count")
        m[f"{eq}.sweep_s"] = (statistics.median(sweep_ms) / 1e3 if sweep_ms else 0.0, "s")
        m[f"{eq}.self_s"] = (per_op(eq), "s")
        m[f"{eq}.stopped_by_tol"] = (
            statistics.fmean(o.converged for o in mine) if mine else 0.0, "ratio"
        )
    m.update({
        "cli.import_s": (statistics.median(c["import_s"] for c in colds), "s"),
        "presets.build_s": (statistics.median(c["build_s"] for c in colds), "s"),
        "basis.grid_s": (statistics.median(c["grid_s"] for c in colds), "s"),
        "oracles.frac_laplacian.self_s": (per_op("oracles.frac_laplacian"), "s"),
        "oracles.euler_exit.self_s": (per_op("oracles.euler_exit"), "s"),
        "oracles.cms.self_s": (per_op("oracles.cms"), "s"),
        "oracles.jump_law_ks.self_s": (per_op("oracles.jump_law_ks"), "s"),
        "bench.trace_overhead": (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in plain),
            "ratio",
        ),
        # time inside operations that no layer span covers
        "bench.unattributed_share": (
            ratio(per_op("bench.op"), per_op("bench.op", "total_s")), "ratio"
        ),
    })
    return m


def traced_prep(prep, tracer):
    """The prepared solve with its solver and reference under spans.

    Set-up holds the solver and the preset's reference by object, so the
    rebinding in modules does not reach them; they are wrapped here.
    """
    from spans import size_of

    kwargs = dict(prep.kwargs)
    if "reference" in kwargs:
        kwargs["reference"] = tracer.wrap("presets.reference", kwargs["reference"], size_of)
    return dataclasses.replace(prep, solve=tracer.installed(prep.solve), kwargs=kwargs)


# ---------------------------------------------------------------------------
# environment


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, args):
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# self-check


def selfcheck():
    """Show that the gate turns bad outputs into failed operations."""
    import numpy as np

    u1 = W.prepare(W.WORKLOADS["poisson_u1_alpha04"])
    good = measure(u1, 0, 0, 0)[0].outcome
    reference = u1.kwargs["reference"]
    nan_source = lambda x: np.full(np.shape(x), np.nan)

    def raising(*args, **kwargs):
        raise FloatingPointError("injected")

    val = W.prepare(W.WORKLOADS["validate_all"])
    oracles = sys.modules["fracsmc.oracles"]
    frac_lap = oracles.frac_laplacian_direct

    cases = [
        ("gate below the measured e_inf", u1,
         lambda p, s: W.operation(p, s, gate=good.e_inf / 2)),
        ("perturbed reference", dataclasses.replace(
            u1, kwargs={**u1.kwargs, "reference": lambda x: reference(x) + 1e-9}),
         W.operation),
        ("non-finite node values", dataclasses.replace(
            u1, args=(u1.args[0], nan_source) + u1.args[2:]), W.operation),
        ("solver raises", dataclasses.replace(u1, solve=raising), W.operation),
        ("validate check FAILs", val, W.operation),
    ]
    ok = good.ok
    print(f"{'PASS' if good.ok else 'FAIL'} unperturbed operation passes: {good.detail}")
    for name, prep, call in cases:
        if prep is val:
            oracles.frac_laplacian_direct = lambda *a, **k: 2 * frac_lap(*a, **k)
        try:
            records = measure(prep, 0, 0, 0, call=call)
        finally:
            oracles.frac_laplacian_direct = frac_lap
        failed = sum(not r.outcome.ok for r in records)
        caught = failed == len(records) == 1
        ok &= caught
        print(f"{'PASS' if caught else 'FAIL'} {name}: {failed}/{len(records)} "
              f"operations failed ({records[0].outcome.detail})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def run_workload(workload, args):
    """Set up, measure and report one workload; the last line printed is its result."""
    try:
        prep = W.prepare(workload)
        colds = cold_setups(workload.name, COLD_RUNS)
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"error: cannot set up {workload.name}: {exc}", file=sys.stderr)
        return False

    plain = measure(prep, args.seed, 0, args.seconds)
    records = list(plain)
    metrics = end_to_end(colds, plain)
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(
                traced_prep(prep, tracer), args.seed, len(plain), args.seconds, tracer=tracer
            )
        finally:
            tracer.uninstall()
        records += traced
        probes, absent = sampler_probes(workload, args.seed)
        tracer.absent += absent
        layer = per_layer(workload, prep, colds, plain, traced, tracer, probes)

    failed = [r.outcome for r in records if not r.outcome.ok]
    print(f"# fracsmc benchmark: {workload.name}")
    print("# env " + json.dumps(environment(workload, args)))
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")
    solve_tail = tail([r.wall_s for r in plain])
    if solve_tail:
        p, v = solve_tail
        print(f"{'solve_s_tail':<36} {v:.6g} s  (p{p:.1f} of {len(plain)} ops)")
    else:
        print(f"{'solve_s_tail':<36} n/a  ({len(plain)} ops; needs 100)")
    print(f"{'fail_rate':<36} {len(failed) / len(records):.6g}  "
          f"({len(failed)} of {len(records)} ops)")
    if failed:
        print(f"# first failure: {failed[0].detail}")
    if args.trace:
        print("# absent layers: " + (", ".join(sorted(set(tracer.absent))) or "none"))
        for name, (value, unit) in layer.items():
            print(f"{name:<36} {value:.6g} {unit}")
        metrics = layer
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", choices=sorted(W.WORKLOADS) + ["all"],
        help="one workload, or all of them in turn in this process",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="check that the accuracy gate catches bad outputs, then exit",
    )
    args = parser.parse_args(argv)
    if args.selfcheck:
        try:
            return selfcheck()
        except (ImportError, OSError, RuntimeError) as exc:
            print(f"error: cannot set up the self-check: {exc}", file=sys.stderr)
            return 2
    if args.workload is None:
        parser.error("--workload or --selfcheck is required")
    chosen = W.WORKLOADS.values() if args.workload == "all" else [W.WORKLOADS[args.workload]]
    for workload in chosen:
        if not run_workload(workload, args):
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
