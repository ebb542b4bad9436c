"""The four benchmark workloads: cold set-up, one warm operation, its gate.

An operation is one solve of a bundled config, made exactly as
`fracsmc run` makes it (`cli.run_experiment` builds the preset and calls
the solver), or one `cli.run_validate("all", seed)`.  Set-up covers what a
`fracsmc run` user pays on every invocation: import, config parse,
preset/reference build, grid build and the lazily built interior-sampler
tables, which are filled here through the public `walks.sample_interior`.
README.md in this directory says why each workload is there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None  # bundled config under scripts/configs, None for validate
    gate: float | None  # largest final e_inf an operation may end with
    alpha: float  # order used for the sampler probes of this workload
    table_alphas: tuple  # interior tables a user's run builds lazily


WORKLOADS = {
    w.name: w
    for w in (
        Workload("poisson_u1_alpha04", "poisson_u1_alpha04.cfg", 1e-12, 0.4, (0.4,)),
        Workload("poisson_sin", "poisson_sin.cfg", 1e-9, 1.2, (1.2,)),
        Workload("parabolic_u1", "parabolic_u1.cfg", 1e-9, 0.4, ()),
        Workload("validate_all", None, None, 1.4, (0.6, 1.4, 2.0)),
    )
}

# grids the validation suites build (basis suite), cached by basis.make_grid
_VALIDATE_GRIDS = ((0.4, 2), (1.2, 2), (2.0, 2))


class _Captured(Exception):
    """Raised by the solver stand-in once run_experiment has called it."""


@dataclass
class Prepared:
    """A workload ready for warm operations."""

    workload: Workload
    solve: object = None  # the solver function run_experiment calls
    args: tuple = ()
    kwargs: dict = dataclasses.field(default_factory=dict)
    timings: dict = dataclasses.field(default_factory=dict)

    @property
    def cli(self):
        return sys.modules["fracsmc.cli"]


def _import_fracsmc():
    """Import fracsmc from this checkout's src/, never from site-packages."""
    if not (SRC / "fracsmc" / "__init__.py").is_file():
        raise RuntimeError(f"no fracsmc sources under {SRC}")
    # Everything runs on one thread: solves at n_threads = 1, and BLAS too.
    # On a shared 2-vCPU box a second BLAS thread makes the poisson_sin
    # reference eigh take ~0.26 s instead of ~6 ms, swinging with the other
    # vCPU's load.  Set before numpy loads; cold set-up children inherit it.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import fracsmc.cli

    where = Path(fracsmc.cli.__file__).resolve()
    if SRC not in where.parents:
        raise RuntimeError(f"imported fracsmc from {where}, not from {SRC}")
    return fracsmc.cli


def _capture_solver_call(cli, cfg):
    """Let run_experiment build the preset, and record the solver call it makes."""
    calls = {}
    # smc_solve and stsmc_solve today; any *solve name, so a merged solver is found
    originals = {n: f for n, f in vars(cli).items() if n.endswith("solve") and callable(f)}

    def stand_in(name):
        def record(*args, **kwargs):
            calls[name] = (args, kwargs)
            raise _Captured

        return record

    try:
        for n in originals:
            setattr(cli, n, stand_in(n))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_experiment(cfg, 1, False)
    except _Captured:
        pass
    finally:
        for n, fn in originals.items():
            setattr(cli, n, fn)
    if len(calls) != 1:
        raise RuntimeError(f"run_experiment made {len(calls)} solver calls, expected 1")
    (name, (args, kwargs)), = calls.items()
    return originals[name], args, kwargs


def prepare(workload: Workload) -> Prepared:
    """Cold set-up, timed by phase; the phases sum to setup_s."""
    t = {}
    start = time.perf_counter()
    cli = _import_fracsmc()
    t["import_s"] = time.perf_counter() - start
    from fracsmc import basis, walks
    from fracsmc.rng import RngStream

    prep = Prepared(workload)
    mark = time.perf_counter()
    if workload.config is not None:
        text = (ROOT / "scripts" / "configs" / workload.config).read_text()
        cfg = cli.parse_config(text)
        prep.solve, prep.args, prep.kwargs = _capture_solver_call(cli, cfg)
        grids = [(cfg.alpha, cfg.n_x)]
    else:
        grids = list(_VALIDATE_GRIDS)
    t["build_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    for alpha, n_x in grids:
        basis.make_grid(alpha, n_x)
    if workload.config is not None and cfg.equation == "parabolic":
        basis.make_time_grid(cfg.t_final, cfg.n_t)
    t["grid_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    rng = RngStream(0).generator()
    for alpha in workload.table_alphas:
        walks.sample_interior(0.0, walks.BallGeometry(0.0, 1.0), alpha, rng, size=1)
    t["table_s"] = time.perf_counter() - mark
    t["setup_s"] = time.perf_counter() - start
    prep.timings = t
    return prep


@dataclass
class Outcome:
    """What one operation returned, judged against the workload's gate."""

    ok: bool
    detail: str
    e_inf: float = float("nan")
    sweeps: int = 0
    sweep_ms: tuple = ()
    converged: bool = False


def operation(prep: Prepared, seed: int, gate: float | None = None) -> Outcome:
    """One warm operation; `gate` overrides the workload's accuracy gate."""
    if prep.solve is None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = prep.cli.run_validate("all", seed)
        failed = [ln for ln in out.getvalue().splitlines() if ln.startswith("FAIL")]
        ok = rc == 0 and not failed
        return Outcome(ok, f"rc={rc} " + "; ".join(failed))

    cfg = dataclasses.replace(prep.args[0], seed=seed)
    sol = prep.solve(cfg, *prep.args[1:], **prep.kwargs)
    gate = prep.workload.gate if gate is None else gate
    e_inf = sol.history[-1].e_inf
    finite = all(math.isfinite(v) for v in sol.node_values.ravel())
    # NaN e_inf fails the comparison, so a missing reference cannot pass
    ok = finite and e_inf <= gate
    return Outcome(
        ok,
        f"e_inf={e_inf:.3e} gate={gate:.1e} finite={finite}",
        e_inf=e_inf,
        sweeps=len(sol.history),
        sweep_ms=tuple(h.elapsed_ms for h in sol.history),
        converged=bool(sol.converged),
    )


def op_seed(seed: int, i: int) -> int:
    """Seed of the i-th operation of a run: distinct per run seed and index."""
    return seed * 100_003 + i
