"""Config parsing, report writing, and exit-code behavior of the CLI."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracsmc
from fracsmc import presets
from fracsmc.basis import interpolate, make_grid
from fracsmc.cli import (
    ConfigError,
    ExperimentConfig,
    config_echo,
    fmt,
    main,
    parse_config,
)
from fracsmc.walks import MAX_UNIT_JUMP, fixed_radius

GOOD = """
# steady test run
equation = poisson
preset = u1
alpha = 0.6
n_x = 2
m = 20
k_max = 4
seed = 3
"""

PARABOLIC = """
equation = parabolic
preset = u1_parabolic
alpha = 1.0
n_x = 2
n_t = 2
t_final = 0.5
m = 5
n_sub = 8
k_max = 2
"""


class TestParseConfig:
    def test_parses_and_validates(self):
        cfg = parse_config(GOOD)
        assert cfg.equation == "poisson"
        assert cfg.alpha == 0.6
        assert cfg.m == 20
        assert cfg.n_t == 0  # defaulted

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("equation=poisson # inline\n\npreset=u1\nalpha=1\nn_x=2\nm=5\n")
        assert cfg.alpha == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(GOOD + "walkers = 10\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(GOOD + "alpha = 0.7\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("equation=poisson\npreset=u1\nalpha=x\nn_x=2\nm=5\n")

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("equation=poisson\npreset=u1\nalpha=2.5\nn_x=2\nm=5\n")

    def test_parabolic_requires_time_fields(self):
        with pytest.raises(ConfigError, match="parabolic"):
            parse_config(
                "equation=parabolic\npreset=u1_parabolic\nalpha=1\nn_x=2\nm=5\n"
            )

    def test_preset_must_match_equation(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(
                "equation=poisson\npreset=u1_parabolic\nalpha=1\nn_x=2\nm=5\n"
            )

    def test_echo_reparses_to_equal_config(self):
        cfg = parse_config(GOOD)
        echoed = config_echo(cfg).lstrip("# ")
        again = parse_config("\n".join(echoed.split()))
        assert again == cfg


_ODD_FLOATS = st.one_of(
    st.floats(),
    st.floats(min_value=-0.5, max_value=2.5),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 2.0, 1e-300]),
)


class TestConfigProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        parabolic=st.booleans(),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        tol=_ODD_FLOATS,
        t_final=_ODD_FLOATS,
        alpha=_ODD_FLOATS,
    )
    def test_parse_config_rejects_or_returns_sane_values(
        self, parabolic, seed, tol, t_final, alpha
    ):
        head = (
            "equation=parabolic\npreset=u1_parabolic\nn_t=2\n"
            if parabolic
            else "equation=poisson\npreset=u1\n"
        )
        text = head + f"n_x=2\nm=5\nseed={seed}\ntol={tol!r}\n" + (
            f"t_final={t_final!r}\nalpha={alpha!r}\n"
        )
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert cfg.seed >= 0
        assert math.isfinite(cfg.tol) and cfg.tol > 0
        assert 0 < cfg.alpha <= 2
        assert parabolic or cfg.alpha / 2 - 1 > -1
        if parabolic:
            assert math.isfinite(cfg.t_final) and cfg.t_final > 0
            # a radius of 2 or more ends every path on its first jump, and
            # one below 2 / MAX_UNIT_JUMP lets no path leave
            r = fixed_radius(cfg.t_final / cfg.n_sub, cfg.alpha)
            assert 2 <= r * MAX_UNIT_JUMP and r < 2


@st.composite
def _small_runs(draw):
    """Config text of a tiny run over the whole accepted input range."""
    parabolic = draw(st.booleans())
    pool = ("u1_parabolic", "u2_parabolic") if parabolic else ("u1", "u2", "source_sin")
    n_x = draw(st.integers(1, 40))
    alpha = draw(st.one_of(st.floats(1e-15, 2.0), st.sampled_from([1.0, 2.0])))
    text = (
        f"equation = {'parabolic' if parabolic else 'poisson'}\n"
        f"preset = {draw(st.sampled_from(pool))}\n"
        f"alpha = {alpha!r}\nn_x = {n_x}\n"
        f"m1 = {draw(st.integers((n_x + 2) // 2, 48))}\n"
        f"m = {draw(st.integers(1, 3))}\nk_max = {draw(st.integers(1, 2))}\n"
        f"seed = {draw(st.integers(0, 2**64))}\n"
        f"tol = {draw(st.floats(1e-320, 1e300))!r}\n"
    )
    if parabolic:
        text += (
            f"n_t = {draw(st.integers(1, 6))}\n"
            f"t_final = {draw(st.floats(1e-12, 50.0))!r}\n"
            f"n_sub = {draw(st.integers(1, 500))}\n"
        )
    return text


class TestRunProperties:
    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(text=_small_runs())
    def test_run_writes_a_finite_report_or_exits_2_with_one_line(self, text):
        # in-process, so one example costs a solve and no interpreter start
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp, "exp.cfg"), Path(tmp, "r.csv")
            cfg.write_text(text + f"out = {out}\n")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["run", str(cfg)])
            rows = out.read_text().splitlines()[2:] if out.exists() else []
        if rc == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            return
        assert rc == 0 and rows, err.getvalue()
        for row in rows:
            *cells, ms = row.split(",")
            assert cells[3] != "" and ms == "", row  # e_inf is set, timings are not
            assert all(math.isfinite(float(c)) for c in cells), row


class TestFmt:
    def test_round_trips_doubles(self):
        for x in [1 / 3, 1e-300, 2**-52, np.pi, 6.02e23]:
            assert float(fmt(x)) == x


class TestMainExitCodes:
    def _write(self, tmp_path, text):
        p = tmp_path / "exp.cfg"
        p.write_text(text)
        return str(p)

    def test_run_success_writes_report(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = self._write(tmp_path, GOOD + f"out = {out}\n")
        assert main(["run", cfg, "--threads", "1"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# equation=poisson")
        assert lines[1] == (
            "k,max_update,se,e_inf,capped_path_rate,mean_steps,max_steps,elapsed_ms"
        )
        assert len(lines) >= 3

    def test_invalid_config_exits_2_without_output(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = self._write(tmp_path, GOOD.replace("0.6", "2.5") + f"out = {out}\n")
        assert main(["run", cfg]) == 2
        assert not out.exists()

    def test_zero_spatial_degree_exits_2_without_output(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = self._write(tmp_path, GOOD.replace("n_x = 2", "n_x = 0") + f"out = {out}\n")
        assert main(["run", cfg]) == 2
        assert not out.exists()

    def test_negative_seed_in_config_exits_2_without_output(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = self._write(tmp_path, GOOD.replace("seed = 3", "seed = -1") + f"out = {out}\n")
        assert main(["run", cfg]) == 2
        assert not out.exists()

    def test_negative_seed_override_exits_2_without_output(self, tmp_path):
        cfg = self._write(tmp_path, GOOD)
        out = tmp_path / "r.csv"
        assert main(["run", cfg, "--seed", "-3", "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_validate_seed_exits_2(self):
        assert main(["validate", "specfun", "--seed", "-3"]) == 2

    def test_nan_tol_exits_2_without_output(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = self._write(tmp_path, GOOD + f"tol = nan\nout = {out}\n")
        assert main(["run", cfg]) == 2
        assert not out.exists()

    def test_nan_final_time_exits_2_without_output(self, tmp_path):
        out = tmp_path / "r.csv"
        text = PARABOLIC.replace("t_final = 0.5", "t_final = nan") + f"out = {out}\n"
        assert main(["run", self._write(tmp_path, text)]) == 2
        assert not out.exists()

    @staticmethod
    def _forbid_solving(monkeypatch):
        import fracsmc.cli as cli

        def solve(*args, **kwargs):
            raise AssertionError("solved although the run cannot succeed")

        monkeypatch.setattr(cli, "smc_solve", solve)
        monkeypatch.setattr(cli, "stsmc_solve", solve)

    def test_missing_report_directory_exits_2_before_solving(self, tmp_path, monkeypatch):
        self._forbid_solving(monkeypatch)
        out = tmp_path / "nope" / "r.csv"
        assert main(["run", self._write(tmp_path, GOOD), "--out", str(out)]) == 2
        assert not out.parent.exists()

    def test_empty_out_exits_2_before_solving(self, tmp_path, monkeypatch):
        self._forbid_solving(monkeypatch)
        assert main(["run", self._write(tmp_path, GOOD + "out =\n")]) == 2

    def test_directory_as_out_exits_2_before_solving(self, tmp_path, monkeypatch):
        self._forbid_solving(monkeypatch)
        assert main(["run", self._write(tmp_path, GOOD + f"out = {tmp_path}\n")]) == 2

    def test_report_write_failure_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        # the report directory vanishes while the solve runs
        import shutil

        import fracsmc.cli as cli

        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        solve = cli.smc_solve

        def solve_then_remove(*args, **kwargs):
            sol = solve(*args, **kwargs)
            shutil.rmtree(out_dir)
            return sol

        monkeypatch.setattr(cli, "smc_solve", solve_then_remove)
        cfg = self._write(tmp_path, GOOD + f"out = {out_dir / 'r.csv'}\n")
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report") and err.count("\n") == 1

    def test_rule_too_small_for_degree_exits_2_before_solving(self, tmp_path, monkeypatch, capsys):
        # m1 counts the occupation rule's nodes; below ceil((n_x+1)/2) the
        # rule is not exact on the residual and the iteration diverges
        self._forbid_solving(monkeypatch)
        text = GOOD.replace("n_x = 2", "n_x = 8") + "m1 = 4\n"
        assert main(["run", self._write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: m1 = 4") and err.count("\n") == 1

    @pytest.mark.parametrize("t_final", ["1e200", "1000"])
    def test_walk_radius_past_the_domain_exits_2_before_solving(
        self, t_final, tmp_path, monkeypatch, capsys
    ):
        # at alpha = 0.4 and n_sub = 64, t_final = 1e200 overflowed the
        # radius (a traceback) and t_final = 1000 gives r = 716, where every
        # path left on its first jump and the run reported "stopped by tol"
        self._forbid_solving(monkeypatch)
        out = tmp_path / "r.csv"
        text = (
            PARABOLIC.replace("alpha = 1.0", "alpha = 0.4")
            .replace("n_sub = 8", "n_sub = 64")
            .replace("t_final = 0.5", f"t_final = {t_final}")
        )
        assert main(["run", self._write(tmp_path, text + f"out = {out}\n")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the walk radius") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1e-05", "0.001", "0.01"])
    def test_walk_radius_no_jump_leaves_with_exits_2_before_solving(
        self, alpha, tmp_path, monkeypatch, capsys
    ):
        # at t_final = 0.5 and n_sub = 64 the radius underflows (0.0 for
        # alpha <= 1e-3, 1e-211 at 0.01): no path ever left, and every row
        # reported mean_steps = 64
        self._forbid_solving(monkeypatch)
        out = tmp_path / "r.csv"
        text = PARABOLIC.replace("alpha = 1.0", f"alpha = {alpha}").replace(
            "n_sub = 8", "n_sub = 64"
        )
        assert main(["run", self._write(tmp_path, text + f"out = {out}\n")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the walk radius") and err.count("\n") == 1
        assert "no jump can leave" in err
        assert not out.exists()

    def test_final_time_step_that_underflows_exits_2_before_solving(
        self, tmp_path, monkeypatch, capsys
    ):
        # t_final/n_sub underflows to 0 here; the run exited 2 with
        # "dt must be positive", which names no config key
        self._forbid_solving(monkeypatch)
        out = tmp_path / "r.csv"
        text = PARABOLIC.replace("t_final = 0.5", "t_final = 1e-323")
        assert main(["run", self._write(tmp_path, text + f"out = {out}\n")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t_final/n_sub = ") and "underflows to 0" in err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("text", [GOOD + "m1 = 431\n", PARABOLIC], ids=["poisson", "parabolic"])
    def test_degree_past_the_barycentric_limit_exits_2_before_solving(
        self, text, tmp_path, monkeypatch, capsys
    ):
        # a u1 run at n_x = 1100 printed two RuntimeWarnings, wrote an empty
        # e_inf and exited 0: from n_x = 861 the barycentric weights underflow
        self._forbid_solving(monkeypatch)
        out = tmp_path / "r.csv"
        text = text.replace("n_x = 2", "n_x = 861") + f"out = {out}\n"
        assert main(["run", self._write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_x = 861 is above 860") and err.count("\n") == 1
        assert not out.exists()

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        # a config too large for memory (m1 = 100000000 made np.diag ask
        # for 71.1 PiB) ended in a traceback; the solve is stubbed here, as
        # a real such run allocates several 800 MB arrays before it fails
        import fracsmc.cli as cli

        def solve(*args, **kwargs):
            raise MemoryError("Unable to allocate 71.1 PiB")

        monkeypatch.setattr(cli, "smc_solve", solve)
        out = tmp_path / "r.csv"
        assert main(["run", self._write(tmp_path, GOOD + f"out = {out}\n")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key, field",
        [
            (GOOD.replace("m = 20", "m = 0"), "m = 0", "n_walks"),
            (PARABOLIC.replace("t_final = 0.5", "t_final = nan"), "t_final = nan",
             "final_time"),
            (GOOD.replace("n_x = 2", "n_x = 8") + "m1 = 4\n", "m1 = 4", "inner_samples"),
        ],
    )
    def test_solver_rule_errors_name_config_keys(
        self, text, key, field, tmp_path, monkeypatch, capsys
    ):
        # the solver configs own the numeric rules; the CLI reports their
        # messages under the config file's key names
        self._forbid_solving(monkeypatch)
        assert main(["run", self._write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert key in err and field not in err and err.count("\n") == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_exits_2_before_solving(
        self, threads, tmp_path, monkeypatch, capsys
    ):
        self._forbid_solving(monkeypatch)
        out = tmp_path / "r.csv"
        cfg = self._write(tmp_path, GOOD + f"out = {out}\n")
        assert main(["run", cfg, "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --threads must be positive, got {threads}")
        assert err.count("\n") == 1 and not out.exists()

    def test_non_utf8_config_exits_2_with_one_line(self, tmp_path, capsys):
        p = tmp_path / "exp.cfg"
        p.write_bytes(b"equation = poisson\npreset = \xff\xfe\n")
        assert main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config") and err.count("\n") == 1

    def test_vanishing_alpha_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # alpha = 1e-300 lies in (0, 2], but alpha/2 - 1 rounds to -1,
        # outside the Jacobi weights of the occupation rule; the config
        # check rejects it before the solve
        self._forbid_solving(monkeypatch)
        out = tmp_path / "r.csv"
        text = GOOD.replace("alpha = 0.6", "alpha = 1e-300") + f"out = {out}\n"
        assert main(["run", self._write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha = 1e-300") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_unknown_suite_exits_2(self):
        assert main(["validate", "nonsense"]) == 2

    def test_seed_and_out_overrides(self, tmp_path):
        cfg = self._write(tmp_path, GOOD)
        out = tmp_path / "override.csv"
        assert main(["run", cfg, "--seed", "9", "--out", str(out), "--threads", "1"]) == 0
        assert "seed=9" in out.read_text().splitlines()[0]


class TestValidateOutput:
    @pytest.mark.parametrize(
        "excess, shown", [(0.0, "rel<1e-12"), (4e-16, "rel<1e-12"), (3e-5, "rel=3.00e-05")]
    )
    def test_derivative_identity_prints_roundoff_as_a_bound(
        self, excess, shown, monkeypatch, capsys
    ):
        # a relative error at round-off printed with three digits changed the
        # output of `validate all` on a 1-ulp move of either side
        import fracsmc.cli as cli
        from fracsmc import oracles

        def direct(u, x, alpha):
            n = {0.6: 0, 1.2: 2}[alpha]
            want = float(oracles.gjf_identity_rhs(n, alpha, np.array([x]))[0])
            return want * (1 + excess)

        monkeypatch.setattr(oracles, "frac_laplacian_direct", direct)
        failures = []
        cli._suite_oracle(failures, 0)
        lines = [ln for ln in capsys.readouterr().out.splitlines() if "derivative" in ln]
        assert len(lines) == 2 and all(ln.endswith(f": {shown}") for ln in lines)
        assert failures == []


BUNDLED = Path(__file__).resolve().parents[1] / "scripts" / "configs"

# (k, max_update, e_inf, capped_path_rate) of every report row of the bundled
# poisson_u1_alpha04 config, as written before the stall rule existed; tol
# stops this config long before the updates are walk noise
U1_ROWS = {
    1: [
        "1,1.9033204815014073,0.060936505832214438,0",
        "2,0.05111831078004192,0.002368132541369139,0",
        "3,0.0019552219176268704,5.3984955689534431e-05,0",
        "4,5.0533890749493438e-05,1.4821924356756e-06,0",
        "5,1.2590660722899827e-06,5.1579141846502807e-08,0",
        "6,4.6525012065146143e-08,2.4667574649583912e-09,0",
        "7,2.1421941998056582e-09,6.0294880199762702e-11,0",
        "8,5.2342352674372705e-11,2.6512125828048738e-12,0",
        "9,2.283506717049022e-12,9.0483176506950258e-14,0",
        "10,8.7929663550312398e-14,1.6653345369377348e-15,0",
    ],
    7: [
        "1,1.9400262107234274,0.042723916111239824,0",
        "2,0.037429023897007641,0.0010348284829230225,0",
        "3,0.00096166399329189467,5.1509610636490955e-05,0",
        "4,4.110682012581357e-05,1.3827747659123091e-06,0",
        "5,1.1268893563842752e-06,5.411617820527681e-08,0",
        "6,4.719349855353272e-08,2.1939715599827991e-09,0",
        "7,1.817671457793324e-09,1.3193912629105853e-10,0",
        "8,1.0905942815497838e-10,4.595879232738298e-12,0",
        "9,3.737676834703052e-12,8.7929663550312398e-14,0",
        "10,8.2156503822261584e-14,4.5519144009631418e-15,0",
    ],
}


class TestStopReasons:
    @pytest.mark.parametrize("seed", sorted(U1_ROWS))
    def test_poisson_u1_rows_unchanged_and_stopped_by_tol(self, seed, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cfg = str(BUNDLED / "poisson_u1_alpha04.cfg")
        assert main(["run", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        assert "(stopped by tol)" in capsys.readouterr().out
        header, *rows = out.read_text().splitlines()[1:]
        cols = header.split(",")
        keep = [cols.index(c) for c in ("k", "max_update", "e_inf", "capped_path_rate")]
        got = [",".join(row.split(",")[i] for i in keep) for row in rows]
        assert got == U1_ROWS[seed]

    def test_stall_names_the_resolution_limit(self, tmp_path, capsys):
        # two modes cannot resolve the sin source: the error floor is
        # reached within a few sweeps, long before tol or k_max
        out = tmp_path / "r.csv"
        text = GOOD.replace("preset = u1", "preset = source_sin").replace(
            "k_max = 4", "k_max = 40"
        )
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(text + f"out = {out}\n")
        assert main(["run", str(cfgp)]) == 0
        line = capsys.readouterr().out
        assert "(stopped by stalled; resolution-limited: raise n_x/n_t)" in line
        rows = out.read_text().splitlines()[2:]
        assert len(rows) < 40
        for row in rows:
            k, max_update, se, e_inf, rate, mean_steps, max_steps, ms = row.split(",")
            assert float(se) > 0 and float(mean_steps) >= 1 and int(max_steps) >= 1
            assert ms == ""

    def test_parabolic_stall_also_names_the_time_subdivision(self, tmp_path, capsys):
        # a parabolic floor can be the path functional's time-step bias, so
        # the hint names n_sub as well
        out = tmp_path / "r.csv"
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(
            PARABOLIC.replace("k_max = 2", "k_max = 40") + f"out = {out}\n"
        )
        assert main(["run", str(cfgp)]) == 0
        line = capsys.readouterr().out
        assert "(stopped by stalled; resolution-limited: raise n_x/n_t or n_sub)" in line
        assert len(out.read_text().splitlines()[2:]) < 40

    @pytest.mark.parametrize("alpha, seed", [(0.6, 3), (1.2, 1)])
    def test_u2_preset_reaches_its_truncation_floor(self, alpha, seed, tmp_path, capsys):
        # the floor is the error of interpolating the exact solution at the
        # report's probe points; at m = 50 the walk noise adds at most 15 %
        # to it over seeds 1-3 at alpha 0.6 and 1.2
        pre = presets.sine_preset(alpha)
        grid = make_grid(alpha, 8)
        xs = np.linspace(-0.97, 0.97, 50)
        floor = np.max(np.abs(interpolate(grid, pre.solution(grid.nodes))(xs) - pre.solution(xs)))
        out = tmp_path / "r.csv"
        text = GOOD.replace("preset = u1", "preset = u2").replace("n_x = 2", "n_x = 8")
        text = text.replace("m = 20", "m = 50").replace("k_max = 4", "k_max = 40")
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(text.replace("alpha = 0.6", f"alpha = {alpha}"))
        assert main(["run", str(cfgp), "--seed", str(seed), "--out", str(out)]) == 0
        assert re.search(r"\(stopped by (tol|stalled)", capsys.readouterr().out)
        e_inf = float(out.read_text().splitlines()[-1].split(",")[3])
        assert math.isfinite(e_inf) and e_inf < 2 * floor


class TestDeterminism:
    def test_reports_byte_identical_across_thread_counts(self, tmp_path):
        cfgp = tmp_path / "exp.cfg"
        out = tmp_path / "r.csv"
        cfgp.write_text(GOOD + f"out = {out}\n")
        outs = []
        for nthreads in ("1", "4"):
            assert main(["run", str(cfgp), "--threads", nthreads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_timings_column_empty_by_default(self, tmp_path):
        cfgp = tmp_path / "exp.cfg"
        out = tmp_path / "r.csv"
        cfgp.write_text(GOOD + f"out = {out}\n")
        assert main(["run", str(cfgp), "--threads", "1"]) == 0
        for row in out.read_text().splitlines()[2:]:
            assert row.endswith(",")


def _fresh_interpreter(*args):
    """Run python with these arguments and this checkout's fracsmc on the path."""
    src = Path(fracsmc.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


class TestColdRun:
    # scipy submodules that only the referees and validate suites use; each
    # costs a tenth of a second or more to import, which a solve would pay
    # on every `fracsmc run`
    HEAVY = (
        "scipy.integrate",
        "scipy.optimize",
        "scipy.sparse",
        "scipy.linalg",
        "scipy.stats",
        "scipy.interpolate",
        "scipy.special",
    )

    def test_run_loads_no_referee_scipy_submodule(self, tmp_path):
        code = (
            "import sys\n"
            "from fracsmc.cli import main\n"
            "rc = main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
            f"print(rc, sorted(m for m in {self.HEAVY!r} if m in sys.modules))"
        )
        cfg = str(BUNDLED / "poisson_u1_alpha04.cfg")
        proc = _fresh_interpreter("-c", code, cfg, str(tmp_path / "r.csv"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_validate_walk_loads_no_scipy_stats(self):
        # the jump-law check takes its KS statistic itself
        code = (
            "import sys\n"
            "from fracsmc.cli import main\n"
            "rc = main(['validate', 'walk'])\n"
            "print(rc, 'scipy.stats' in sys.modules)"
        )
        proc = _fresh_interpreter("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_validate_oracle_passes_in_a_fresh_interpreter(self):
        # the referees import scipy.integrate themselves when they integrate
        proc = _fresh_interpreter("-m", "fracsmc.cli", "validate", "oracle")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "all checks passed"


class TestStudyScripts:
    # the study scripts call the solver and oracle entry points directly and
    # nothing else runs them; small arguments take a second or two each
    @pytest.mark.parametrize(
        "script, args, header",
        [
            ("convergence_study.py", ["--alphas", "1.2", "--n-x", "2", "--walks", "10"],
             "alpha  n_x  sweeps  stop     e_inf"),
            ("jump_law_study.py",
             ["--alphas", "1.0", "--steps-per-exit", "20", "--n-jump", "1000",
              "--n-euler", "200"],
             "alpha  steps/exit  KS(exit_law)  KS(verbatim)"),
        ],
        ids=["convergence_study", "jump_law_study"],
    )
    def test_runs_and_prints_one_row(self, script, args, header):
        proc = _fresh_interpreter(str(BUNDLED.parent / script), *args)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == header and len(lines) == 2  # one alpha, one row
