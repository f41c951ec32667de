#!/usr/bin/env bash
# Opt-in slow verification tier: the minutes-long sweeps tier-1
# deselects (-m "not slow" in setup.cfg).  Covers the randomized
# spec-sampled kernel-equivalence seeds, the faulty-net equivalence
# matrix, the sampled paper-invariant sweep, the chaos stage (the
# 18-seed consistency-audit sweep on the merged serving overlay plus the
# lost-write bound check at faults-churn seeds 0 and 7), the gossip
# round kernel's differential harness against the per-message oracle at
# its large hypothesis budget (tests/net/test_fabric_differential.py, 4 000
# freshly drawn scripts; tier-1 runs 150 derandomized ones), the
# ceiling-certified eq. 3 argmax against the full scan at the same
# large budget (tests/core/test_ceiling_argmax.py), the slot-column
# transfer batch against the frozen object walk at 3 000 freshly drawn
# scripts (tests/store/test_transfer_batch_differential.py; tier-1 runs
# 150 derandomized ones), the fig4 perf harness with both kernels'
# digests over every window (benchmarks/perf/test_epoch_throughput.py::
# test_epoch_throughput_fig4; tier-1 keeps a 40-epoch fig4 digest pin),
# and the compile-once front door against the frozen per-request path
# (tests/serve/test_request_plan_differential.py: 2 500 freshly drawn
# scripts, tier-1 runs 60 derandomized ones), the 20 000-server
# fig4 bootstrap's memory fence (tests/cluster/test_topology.py: peak
# RSS under 400 MiB with the frame digest unchanged), all seven examples
# (tier-1 runs the four fast ones), the reach census of src/
# functions only the tests reach (scripts/reach_census.py, about two
# minutes with its line collector and its second registry pass under
# the scalar kernel: fails the script when a function is neither
# reached nor explained by a KEPT row; its [unreached statements]
# section, the statements no run executes, only reports) and
# the cache census of every surviving memo's asks, builds and ms per
# build (scripts/cache_census.py: reports, never fails).
#
# Usage:  scripts/verify_slow.sh [extra pytest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== stage: scenarios (spec schema + full named-scenario pins) =="
PYTHONPATH=src python -m pytest -q \
    tests/sim/test_scenario_spec.py \
    tests/integration/test_named_scenarios.py

echo "== stage: slow sweeps =="
PYTHONPATH=src python -m pytest -m slow -q \
    --ignore=tests/integration/test_chaos_audit.py "$@"

echo "== stage: chaos (18-seed audit sweep + faults-churn lost-write bound) =="
PYTHONPATH=src python -m pytest -q -m "slow or not slow" \
    tests/integration/test_chaos_audit.py

echo "== stage: serving (front-door suite + live CLI run + held-out bench seeds) =="
PYTHONPATH=src python -m pytest -q tests/serve
# The benchmark's serving workloads through the whole engine, shipped
# front door against the frozen parent path (same frame streams, store
# counters, lost-write audit): serve-read at its own 95 % reads and at
# the write-heavy 20 % benchmarks/e2e/README.md says to show by hand,
# and faults-churn (ISSUE 24).
PYTHONPATH=src python -m pytest -q -m "slow or not slow" \
    tests/serve/test_request_plan_differential.py -k bench_workload
PYTHONPATH=src python -m repro.cli run --scenario paper --epochs 10 \
    --partitions 60 --serve --serve-rate 128 --serve-workers 32 \
    > /dev/null
# Seed 7 is the benchmark's held-out seed: the run exits non-zero on any
# output-check failure (replays disagreeing on digests, summaries or
# span call counts) or workload-shape guard failure.
python3 benchmarks/e2e/run.py --workload serve-read --seed 7 --trace 1 \
    > /dev/null
# Same held-out seed on the economy's hot workload: the §II-C pass with
# its rent-floor proofs must replay to one digest and one set of span
# counts (ISSUE 16).
python3 benchmarks/e2e/run.py --workload econ-spike --seed 7 --trace 1 \
    > /dev/null
# And at scale 10, where the ceiling-certified argmax and the
# source-first refusals answer most of the pass's questions (ISSUE 22).
python3 benchmarks/e2e/run.py --workload econ-scale10 --seed 7 --trace 1 \
    > /dev/null
# And on the only workload whose replays compare `robustness_summary`
# and whose `telemetry_bytes` carries the benchmark's own per-number
# count of the control- and data-plane frame streams (ISSUE 18).
python3 benchmarks/e2e/run.py --workload faults-churn --seed 7 --trace 1 \
    > /dev/null

echo "== stage: examples (all seven) =="
for example in examples/*.py; do
    PYTHONPATH=src python "$example" > /dev/null
done

echo "== stage: reach census (fails on a src/ function only tests reach that no KEPT row explains) =="
python scripts/reach_census.py 2> /dev/null

echo "== stage: cache census (asks / builds / ms per build of every memo; reports, never fails) =="
python scripts/cache_census.py || true

echo "== stage: perf smoke (100x ramp + serving vs checked-in bench JSON, vectorized/scalar floor) =="
PYTHONPATH=src python benchmarks/perf/perf_smoke.py
