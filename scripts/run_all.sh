#!/bin/sh
# Run every bundled experiment config and the full validation suite from a
# checkout; the package is imported from src/, so no install is needed.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python3 -m fracsmc.cli validate all
for cfg in scripts/configs/*.cfg; do
    python3 -m fracsmc.cli run "$cfg"
done
