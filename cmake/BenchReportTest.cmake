# Regression-gate integration test, run via
#   cmake -DBENCH_BIN=... -DREPORT_BIN=... -DWORK_DIR=... -P BenchReportTest.cmake
# Optional: -DBENCH_NAME=<name> (artifact is BENCH_<name>.json, default
# table2_chr), -DTHRESHOLD=<pct> (self-compare threshold, default 60%) and
# -DSERIAL_BASELINE=ON (run1 uses TAAMR_THREADS=1 and its metrics must match
# run2's exactly; only for benches whose metrics are deterministic).
#
# Drives the real bench twice at a small scale (separate cache AND bench
# dirs, so the second run re-does the work instead of loading the first
# run's cache), then
#   1. asserts both runs produced a schema-valid artifact,
#   2. asserts the artifact carries a positive flops_total (kernel cost
#      accounting actually fired),
#   3. with SERIAL_BASELINE, asserts the 1-thread and the N-thread run wrote
#      byte-equal metrics arrays (a fixed seed gives the same paper numbers
#      at any thread count),
#   4. self-compares the runs with taamr_report --baseline — identical code
#      on identical inputs must pass the gate (the threshold is generous:
#      the runs' only difference is timing noise),
#   5. inflates the baseline's recorded flops_total at least tenfold and
#      re-compares — taamr_report must now report a regression (exit 1).
include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)
gate_require(BENCH_BIN REPORT_BIN WORK_DIR)
if(NOT DEFINED BENCH_NAME)
  set(BENCH_NAME table2_chr)
endif()
if(NOT DEFINED THRESHOLD)
  set(THRESHOLD 60%)
endif()
# run1 is the baseline; with SERIAL_BASELINE it runs on one thread and run2
# on the default (hardware concurrency).
set(run1_env)
if(SERIAL_BASELINE)
  set(run1_env TAAMR_THREADS=1)
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/run1" "${WORK_DIR}/run2")
foreach(run run1 run2)
  gate_run(${run} COMMAND ${BENCH_BIN}
    ENV TAAMR_SCALE=0.004 TAAMR_SEED=42 ${${run}_env}
        "TAAMR_CACHE_DIR=${WORK_DIR}/${run}/cache" "TAAMR_BENCH_DIR=${WORK_DIR}/${run}")
endforeach()
set(run1_json "${WORK_DIR}/run1/BENCH_${BENCH_NAME}.json")
set(run2_json "${WORK_DIR}/run2/BENCH_${BENCH_NAME}.json")

# 1. Schema validation of both artifacts.
gate_run(check COMMAND ${REPORT_BIN} ${run1_json} ${run2_json} --check)

# 2. Positive flops_total: with a positive wall_seconds, gflops > 0.
file(READ ${run1_json} run1_text)
string(JSON flops GET "${run1_text}" throughput flops_total)
if(NOT flops GREATER 0)
  gate_fail("flops_total is ${flops} — cost accounting did not fire")
endif()

# 3. Thread-count independence: same seed, same metrics, byte for byte.
if(SERIAL_BASELINE)
  file(READ ${run2_json} run2_text)
  string(JSON run1_metrics GET "${run1_text}" metrics)
  string(JSON run2_metrics GET "${run2_text}" metrics)
  if(NOT run1_metrics STREQUAL run2_metrics)
    gate_fail("TAAMR_THREADS=1 and default-thread runs wrote different metrics "
              "(${run1_json} vs ${run2_json})")
  endif()
endif()

# 4. Self-compare must pass.
gate_run(self_compare COMMAND ${REPORT_BIN} ${run2_json} --baseline ${run1_json}
  --threshold ${THRESHOLD} --out "${WORK_DIR}/report_self.md")

# 5. Prepending a 9 to the recorded flops_total makes the baseline's GFLOP/s
# at least 10x the truth, a >=90% throughput regression for the current run.
string(JSON inflated_text SET "${run1_text}" throughput flops_total "9${flops}")
file(WRITE "${WORK_DIR}/inflated_baseline.json" "${inflated_text}")
gate_run(inflated_compare RC 1 COMMAND ${REPORT_BIN} ${run2_json}
  --baseline "${WORK_DIR}/inflated_baseline.json" --threshold ${THRESHOLD}
  --out "${WORK_DIR}/report_inflated.md")

message(STATUS "${GATE_NAME}: PASS (gate accepts honest runs, rejects inflated baseline)")
