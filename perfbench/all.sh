#!/bin/sh
# Runs every workload once untraced (end-to-end metrics) and once traced
# (per-layer metrics) from the root of a checkout.
# Usage: sh perfbench/all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-50}
for workload in regimes wide; do
    for trace in 0 1; do
        echo "== workload=$workload trace=$trace seed=$seed seconds=$seconds"
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
