#!/usr/bin/env bash
# Runs every workload once, untraced, and prints each one's metrics by name
# with unit and sample count. Run it from the repository root:
#
#   bash perfbench/run-all.sh [seed] [seconds]
set -euo pipefail

seed=${1:-1}
seconds=${2:-25}
for w in repro serve-dp serve-milp fleet; do
	echo "== $w (seed $seed)"
	bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | grep -v '^stamp '
done
