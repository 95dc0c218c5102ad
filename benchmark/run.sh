#!/usr/bin/env bash
# The whole benchmark in one command: build, run every workload in a process
# of its own (untraced, then traced), print every metric, check the results,
# and write benchmark/out/results.json. Options are suite.py's:
#   benchmark/run.sh [--seed N] [--seconds S] [--workloads a,b] [--check-repeat]
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec python3 benchmark/suite.py "$@"
