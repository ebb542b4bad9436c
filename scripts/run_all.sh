#!/bin/sh
# Run every bundled experiment config and the full validation suite.
set -e
cd "$(dirname "$0")/.."
fracsmc validate all
for cfg in scripts/configs/*.cfg; do
    fracsmc run "$cfg"
done
