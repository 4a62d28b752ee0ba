#!/usr/bin/env bash
# Prints the repro and fleet output digests for the given seeds as Go map
# entries for digests.go. Run it from the repository root after a change
# that is meant to alter those outputs, and review the differences:
#
#   bash perfbench/record-digests.sh 1 2 3
set -euo pipefail

for seed in "$@"; do
	r=$(bash perfbench/run.sh --workload repro --seed "$seed" --seconds 1 --trace 0 | awk '$1 == "metric" && $2 == "digest" { print $3 }')
	f=$(bash perfbench/run.sh --workload fleet --seed "$seed" --seconds 1 --trace 0 | awk '$1 == "metric" && $2 == "digest" { print $3, $4 }')
	echo "repro	$seed: \"$r\","
	echo "fleet	$seed: {\"${f% *}\", \"${f#* }\"},"
done
