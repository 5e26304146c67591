#!/usr/bin/env bash
# Runs the suite twice with the same seed (end-to-end metrics only), prints
# each metric's two values and relative spread per workload, and exits non-zero
# if a spread exceeds the metric's own bound. Extra flags pass through, e.g.
#   bench/agree.sh -history bench/history.jsonl -commit "$(git rev-parse --short HEAD)"
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -workload all -trace 0 -repeat 2 "$@"
