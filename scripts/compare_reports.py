"""Check that two checkouts write byte-identical reports and validate output.

    python3 scripts/compare_reports.py --parent ../parent --change .

In each checkout, every bundled config (scripts/configs/*.cfg) runs at each
seed in RUN_SEEDS, and `validate all` at each seed in VALIDATE_SEEDS.  Each
run is a fresh `python3 -m fracsmc.cli` with the checkout's src/ on the
path and BLAS pinned to one thread, in a fresh temporary directory, with
the same relative `--out`, so the report's config echo and the summary
line name the same path on both sides.  One line per run says whether
the report file and stdout are byte-identical (and the exit codes equal);
the script exits 1 on any difference.  For a report that differs, one
more line per numeric column gives the largest absolute and relative
difference over the rows both sides wrote, so a move at round-off reads
as one.  The last line gives the line count of each checkout's
src/fracsmc/*.py, as `wc -l` counts them.  The checkouts are only read.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_SEEDS = (1, 7)
VALIDATE_SEEDS = (0, 3)

REPORT = "report.csv"  # the --out of every run, relative to its fresh directory
BLAS_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def cli_args(checkout: Path, cfg: str | None, seed: int) -> list[str]:
    if cfg is None:
        return ["validate", "all", "--seed", str(seed)]
    path = checkout / "scripts" / "configs" / cfg
    return ["run", str(path), "--seed", str(seed), "--out", REPORT]


def outcome(checkout: Path, cfg: str | None, seed: int):
    """(exit code, stdout, report bytes or None) of one CLI run in a fresh directory."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(checkout / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "fracsmc.cli", *cli_args(checkout, cfg, seed)],
            cwd=tmp, env=env, capture_output=True, check=False,
        )
        report = Path(tmp, REPORT)
        written = report.read_bytes() if report.exists() else None
    return proc.returncode, proc.stdout, written


def first_difference(parent: bytes | None, change: bytes | None) -> str:
    """The first line in which two different outputs differ, as 'parent | change'."""
    a, b = (
        (x or b"").decode(errors="backslashreplace").split("\n") + ["<end>"]
        for x in (parent, change)
    )
    i = next(i for i, (p, c) in enumerate(zip(a, b)) if p != c)
    return f"line {i + 1}: {a[i]!r} | {b[i]!r}"


def column_differences(parent: bytes, change: bytes) -> list[str]:
    """Largest absolute and relative difference of each numeric report column.

    Rows are paired in order over the rows both reports have; a column
    counts as numeric where both cells parse as floats (empty cells are
    skipped).  The relative difference is |a - b| / max(|a|, |b|).
    """
    tables = []
    for text in (parent, change):
        lines = [ln for ln in text.decode(errors="replace").splitlines()
                 if ln and not ln.startswith("#")]
        tables.append((lines[0].split(","), [ln.split(",") for ln in lines[1:]]))
    (header, a_rows), (_, b_rows) = tables
    out = []
    if len(a_rows) != len(b_rows):
        out.append(f"rows: {len(a_rows)} | {len(b_rows)}")
    for col, name in enumerate(header):
        worst_abs = worst_rel = 0.0
        numeric = False
        for a_row, b_row in zip(a_rows, b_rows):
            try:
                a, b = float(a_row[col]), float(b_row[col])
            except (IndexError, ValueError):
                continue
            numeric = True
            diff = abs(a - b)
            worst_abs = max(worst_abs, diff)
            if diff:
                worst_rel = max(worst_rel, diff / max(abs(a), abs(b)))
        if numeric:
            out.append(f"{name}: max abs diff {worst_abs:.3g}, max rel diff {worst_rel:.3g}")
    return out


def source_lines(checkout: Path) -> int:
    """Newline count of the checkout's src/fracsmc/*.py files."""
    return sum(p.read_bytes().count(b"\n")
               for p in (checkout / "src" / "fracsmc").glob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    args = ap.parse_args(argv)
    parent_dir, change_dir = Path(args.parent).resolve(), Path(args.change).resolve()

    configs = sorted(p.name for p in (change_dir / "scripts" / "configs").glob("*.cfg"))
    jobs = [(cfg, seed) for cfg in configs for seed in RUN_SEEDS]
    jobs += [(None, seed) for seed in VALIDATE_SEEDS]
    differences = 0
    for cfg, seed in jobs:
        parent = outcome(parent_dir, cfg, seed)
        change = outcome(change_dir, cfg, seed)
        diffs = [
            what
            for i, what in enumerate(("exit code", "stdout", "report"))
            if parent[i] != change[i]
        ]
        if cfg is not None and parent[2] is None:
            diffs.append("no report written")
        differences += bool(diffs)
        name = f"{cfg or 'validate all'} seed={seed}"
        status = f"DIFFERENT: {', '.join(diffs)}" if diffs else "identical"
        print(f"{name}: {status} (exit {parent[0]} / {change[0]})", flush=True)
        for i, what in ((1, "stdout"), (2, "report")):
            if parent[i] != change[i]:
                print(f"  {what} {first_difference(parent[i], change[i])}")
        if parent[2] and change[2] and parent[2] != change[2]:
            for line in column_differences(parent[2], change[2]):
                print(f"    {line}")
    print(f"{differences} of {len(jobs)} runs differ")
    print(f"src/fracsmc/*.py lines: {source_lines(parent_dir)} | "
          f"{source_lines(change_dir)} (parent | change)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
