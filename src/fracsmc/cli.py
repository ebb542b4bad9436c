"""Experiment front end: `run <config>` and `validate <suite>`.

Config files are line-oriented key=value text with '#' comments; unknown
keys are a hard error so typos cannot silently fall back to defaults.
Reports are CSV with one row per sweep, formatted to round-trip doubles
exactly.  Timing cells are left empty unless --timings is passed, so a
report is byte-identical for a given config.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import basis, oracles, presets, specfun, walks
from .parabolic import ParabolicConfig, stsmc_solve
from .poisson import PoissonConfig, smc_solve
from .rng import RngStream

# preset name -> (equation, builder taking alpha)
_PRESETS = {
    "u1": ("poisson", presets.poly_preset),
    "u2": ("poisson", presets.sine_preset),
    "source_sin": ("poisson", presets.sin_source_preset),
    "u1_parabolic": ("parabolic", presets.parabolic_poly_preset),
    "u2_parabolic": ("parabolic", presets.parabolic_sine_preset),
}


# config key -> solver config field, where the two names differ; the solver
# configs own every numeric rule, and their messages name fields
_KEY_FIELDS = {"m": "n_walks", "m1": "inner_samples", "t_final": "final_time"}
_KEY_OF_FIELD = {name: key for key, name in _KEY_FIELDS.items()}
_FIELD_NAME = re.compile(r"\b(" + "|".join(_KEY_OF_FIELD) + r")\b")


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment as described by a config file."""

    equation: str
    preset: str
    alpha: float
    n_x: int
    m: int
    n_t: int = 0
    t_final: float = 0.0
    n_sub: int = 64
    # Poisson occupation-rule nodes, >= ceil((n_x+1)/2)
    m1: int = walks.OCCUPATION_NODES
    k_max: int = 60
    tol: float = 1e-12
    seed: int = 0
    out: str = "report.csv"

    def solver_config(self) -> PoissonConfig | ParabolicConfig:
        """The solver's config for this experiment (not yet validated)."""
        cls = PoissonConfig if self.equation == "poisson" else ParabolicConfig
        wanted = {f.name for f in fields(cls)}
        values = {_KEY_FIELDS.get(f.name, f.name): getattr(self, f.name)
                  for f in fields(self)}
        return cls(**{name: v for name, v in values.items() if name in wanted})

    def validate(self) -> None:
        """The CLI's own rules, then the solver config's, under the key names."""
        if self.equation not in ("poisson", "parabolic"):
            raise ConfigError(f"unknown equation {self.equation!r}")
        wanted = tuple(p for p, (eq, _) in _PRESETS.items() if eq == self.equation)
        if self.preset not in wanted:
            raise ConfigError(
                f"preset {self.preset!r} not valid for {self.equation}; "
                f"choose one of {wanted}"
            )
        # a parabolic run never builds the config that checks m1
        if self.m1 < 1:
            raise ConfigError(f"m1 must be positive, got {self.m1}")
        if not self.out:
            raise ConfigError("out must name a report file")
        try:
            self.solver_config().validate()
        except ValueError as exc:
            msg = _FIELD_NAME.sub(lambda m: _KEY_OF_FIELD[m[0]], str(exc))
            raise ConfigError(msg) from exc


def _check_report_path(path: str) -> None:
    """Fail before a solve whose report could not be written to path."""
    if os.path.isdir(path):
        raise ConfigError(f"report path {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"report directory {parent!r} does not exist")


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse key=value lines into a validated ExperimentConfig."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            if kind == "int":
                values[key] = int(val)
            elif kind == "float":
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    try:
        cfg = ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def config_echo(cfg: ExperimentConfig) -> str:
    """Single-line comment that reparses to an equal config."""
    parts = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        parts.append(f"{f.name}={fmt(v) if isinstance(v, float) else v}")
    return "# " + " ".join(parts)


def fmt(x: float) -> str:
    """17-significant-digit decimal that round-trips any double."""
    return f"{x:.17g}"


def write_report(path: str, cfg: ExperimentConfig, history, timings: bool) -> None:
    lines = [
        config_echo(cfg),
        "k,max_update,se,e_inf,capped_path_rate,mean_steps,max_steps,elapsed_ms",
    ]
    for h in history:
        e_inf = "" if np.isnan(h.e_inf) else fmt(h.e_inf)
        ms = fmt(h.elapsed_ms) if timings else ""
        lines.append(
            f"{h.k},{fmt(h.max_update)},{fmt(h.se)},{e_inf},{fmt(h.capped_rate)},"
            f"{fmt(h.mean_steps)},{h.max_steps},{ms}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig, n_threads: int, timings: bool) -> int:
    """Solve one experiment and write its report; n_threads has no effect."""
    pre = _PRESETS[cfg.preset][1](cfg.alpha)
    scfg = cfg.solver_config()
    if cfg.equation == "poisson":
        sol = smc_solve(scfg, pre.source, reference=pre.solution)
    else:
        sol = stsmc_solve(scfg, pre.source, pre.initial, reference=pre.solution)
    if not np.all(np.isfinite(sol.node_values)):
        print("error: solver produced non-finite node values", file=sys.stderr)
        return 3
    try:
        write_report(cfg.out, cfg, sol.history, timings)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    last = sol.history[-1]
    sub = " or n_sub" if cfg.equation == "parabolic" else ""
    hint = f"; resolution-limited: raise n_x/n_t{sub}" if sol.stop_reason == "stalled" else ""
    print(
        f"{cfg.equation}/{cfg.preset}: {len(sol.history)} sweeps "
        f"(stopped by {sol.stop_reason}{hint}), "
        f"final max_update={last.max_update:.3e}, e_inf={last.e_inf:.3e} "
        f"-> {cfg.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# validation suites


def _check(name: str, ok: bool, detail: str, failures: list) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {name}: {detail}")
    if not ok:
        failures.append(name)


def _suite_specfun(failures: list, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for a, b in ((0.2, 0.2), (0.6, -0.2)):
        idx = specfun.JacobiIndex(a, b)
        rule = specfun.jacobi_gauss(12, idx)
        # Gauss rule must integrate x^(2N+1) against the weight exactly
        from scipy.integrate import quad

        exact, _ = quad(lambda x: x**25, -1, 1, weight="alg", wvar=(b, a))
        got = rule.integrate(rule.nodes**25)
        _check(
            f"gauss-exactness a={a} b={b}",
            abs(got - exact) < 1e-12,
            f"|err|={abs(got - exact):.2e}",
            failures,
        )
        xs = rng.uniform(-1, 1, 5)
        from scipy.special import eval_jacobi

        mine = specfun.jacobi_eval_all(8, idx, xs)[8]
        ref = eval_jacobi(8, a, b, xs)
        _check(
            f"jacobi-recurrence a={a} b={b}",
            np.max(np.abs(mine - ref)) < 1e-12,
            f"max|err|={np.max(np.abs(mine - ref)):.2e}",
            failures,
        )


def _suite_basis(failures: list, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for alpha in (0.4, 1.2, 2.0):
        grid = basis.make_grid(alpha, 2)
        smooth = lambda x: x * x + x + 1.0
        u = lambda x: basis.singular_weight(x, alpha) * smooth(x)
        interp = basis.interpolate(grid, u(grid.nodes))
        xs = rng.uniform(-1, 1, 40)
        err = np.max(np.abs(basis.eval_interpolant(interp, xs) - u(xs)))
        _check(
            f"interpolation-reproduction alpha={alpha}",
            err < 1e-12,
            f"max|err|={err:.2e}",
            failures,
        )


def _suite_walk(failures: list, seed: int) -> None:
    from scipy.special import betainc

    for alpha in (0.6, 1.4, 2.0):
        batch = walks.poisson_walks(
            [0.5], lambda x: np.ones_like(x), alpha, [RngStream(seed)], 20000
        )
        want = walks.zeta_closed(0.5, 1.0, alpha)
        m = batch.mean_score()
        se = batch.scores.std() / np.sqrt(len(batch.scores))
        z = (m - want) / se
        _check(
            f"feynman-kac-mean alpha={alpha}",
            abs(z) < 4,
            f"z={z:+.2f}",
            failures,
        )
    for alpha in (0.6, 1.4):
        geom = walks.BallGeometry(center=0.1, radius=0.7)
        quad = oracles.occupation_zeta(0.3, geom, alpha)
        closed = walks.zeta_closed(0.2, 0.7, alpha)
        rel = abs(quad / closed - 1)
        _check(
            f"occupation-zeta alpha={alpha}", rel < 1e-6, f"rel={rel:.2e}", failures
        )
    ks = oracles.jump_law_ks(1.0, seed=seed, n_jump=200_000, n_euler=20_000)
    _check(
        "jump-law-ks alpha=1.0",
        ks[walks.JUMP_LAW_EXIT] < 0.02,
        "reference inversion vs Euler exit: "
        f"KS(exit_law)={ks[walks.JUMP_LAW_EXIT]:.4f} "
        f"KS(verbatim)={ks[walks.JUMP_LAW_VERBATIM]:.4f}",
        failures,
    )
    # the kernel's Beta-draw sampler against the closed-form survival
    # P(J > z) = I_{1/z^2}(alpha/2, 1 - alpha/2)
    rng = np.random.default_rng(seed)
    n = 100_000
    z = np.array([1.001, 1.05, 1.5, 4.0, 100.0])
    for alpha in (0.6, 1.4):
        jumps = walks.sample_jump(rng, alpha, n)
        p = betainc(alpha / 2, 1 - alpha / 2, z**-2)
        score = ((jumps > z[:, None]).mean(axis=1) - p) / np.sqrt(p * (1 - p) / n)
        worst = np.max(np.abs(score))
        _check(
            f"jump-sampler-tail alpha={alpha}",
            worst < 4,
            f"max|z|={worst:.2f} over {len(z)} tail points",
            failures,
        )


def _suite_oracle(failures: list, seed: int) -> None:
    for n, alpha in ((0, 0.6), (2, 1.2)):
        u = lambda y: basis.gjf_eval(n, alpha, min(max(y, -1.0), 1.0)) * (abs(y) < 1)
        got = oracles.frac_laplacian_direct(u, 0.3, alpha)
        want = float(oracles.gjf_identity_rhs(n, alpha, np.array([0.3]))[0])
        rel = abs(got / want - 1)
        # round-off is printed as a bound, so a 1-ulp move on either side of
        # the identity leaves the output unchanged
        _check(
            f"derivative-identity n={n} alpha={alpha}",
            rel < 1e-4,
            "rel<1e-12" if rel < 1e-12 else f"rel={rel:.2e}",
            failures,
        )
    rng = np.random.default_rng(seed)
    xs = oracles.sample_symmetric_stable(1.4, rng, 200_000)
    ecf = np.mean(np.cos(1.0 * xs))
    want = np.exp(-1.0)
    se = np.std(np.cos(1.0 * xs)) / np.sqrt(len(xs))
    z = (ecf - want) / se
    _check("cms-characteristic-function alpha=1.4", abs(z) < 4, f"z={z:+.2f}", failures)


_SUITES = {
    "specfun": _suite_specfun,
    "basis": _suite_basis,
    "walk": _suite_walk,
    "oracle": _suite_oracle,
}


def run_validate(suite: str, seed: int) -> int:
    if suite != "all" and suite not in _SUITES:
        print(f"error: unknown suite {suite!r}", file=sys.stderr)
        return 2
    failures: list = []
    chosen = _SUITES.values() if suite == "all" else [_SUITES[suite]]
    for fn in chosen:
        fn(failures, seed)
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fracsmc")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to key=value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument(
        "--threads", type=int, default=1, help="no effect: solves run on one thread"
    )
    p_run.add_argument("--out", default=None, help="override report path")
    p_run.add_argument(
        "--timings", action="store_true", help="fill the elapsed_ms column"
    )

    p_val = sub.add_parser("validate", help="run a validation suite")
    p_val.add_argument("suite", help="specfun | basis | walk | oracle | all")
    p_val.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "validate":
        if args.seed < 0:
            print(f"error: seed must be non-negative, got {args.seed}", file=sys.stderr)
            return 2
        return run_validate(args.suite, args.seed)
    if args.threads < 1:
        print(f"error: --threads must be positive, got {args.threads}", file=sys.stderr)
        return 2

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        overrides = {"seed": args.seed, "out": args.out}
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        cfg.validate()
        _check_report_path(cfg.out)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_experiment(cfg, args.threads, args.timings)
    except (specfun.DomainError, basis.ContractError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory; lower n_x, n_t, m, m1 or n_sub", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
