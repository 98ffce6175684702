# Regression-gate integration test, run via
#   cmake -DBENCH_BIN=... -DREPORT_BIN=... -DWORK_DIR=... -P BenchReportTest.cmake
# Optional: -DBENCH_NAME=<name> (artifact is BENCH_<name>.json, default
# table2_chr), -DTHRESHOLD=<pct> (self-compare threshold, default 60%) and
# -DSERIAL_BASELINE=ON (run1 uses TAAMR_THREADS=1 and its metrics must match
# run2's exactly; only for benches whose metrics are deterministic).
#
# Drives the real pipeline twice: two runs of table2_chr at a small scale
# (separate cache AND bench dirs, so the second run re-does the work instead
# of loading the first run's cache), then
#   1. asserts both runs produced a schema-valid BENCH_table2_chr.json,
#   2. asserts the artifact carries nonzero GFLOP/s (kernel cost accounting
#      actually fired),
#   3. with SERIAL_BASELINE, asserts the 1-thread and the N-thread run wrote
#      byte-equal metrics arrays (a fixed seed gives the same paper numbers
#      at any thread count),
#   4. self-compares the runs with taamr_report --baseline — identical code
#      on identical inputs must pass the gate (generous 60% threshold, the
#      runs' only difference is timing noise),
#   5. inflates the baseline's recorded gflops and wall and re-compares —
#      the gate must now fail with a nonzero exit.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var BENCH_BIN REPORT_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "BenchReportTest: ${var} not set")
  endif()
endforeach()
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
  message(STATUS "BenchReportTest: ${run} of ${BENCH_BIN}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            TAAMR_SCALE=0.004
            TAAMR_SEED=42
            ${${run}_env}
            "TAAMR_CACHE_DIR=${WORK_DIR}/${run}/cache"
            "TAAMR_BENCH_DIR=${WORK_DIR}/${run}"
            ${BENCH_BIN}
    RESULT_VARIABLE rc
    OUTPUT_FILE "${WORK_DIR}/${run}/stdout.log"
    ERROR_FILE "${WORK_DIR}/${run}/stderr.log"
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BenchReportTest: bench run ${run} failed (rc=${rc})")
  endif()
  if(NOT EXISTS "${WORK_DIR}/${run}/BENCH_${BENCH_NAME}.json")
    message(FATAL_ERROR "BenchReportTest: ${run} produced no BENCH_${BENCH_NAME}.json")
  endif()
endforeach()

set(run1_json "${WORK_DIR}/run1/BENCH_${BENCH_NAME}.json")
set(run2_json "${WORK_DIR}/run2/BENCH_${BENCH_NAME}.json")

# 1. Schema validation of both artifacts.
execute_process(
  COMMAND ${REPORT_BIN} ${run1_json} ${run2_json} --check
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "BenchReportTest: --check rejected the artifacts (rc=${rc})")
endif()

# 2. Nonzero FLOP throughput: the artifact stores raw totals; a positive
# flops_total together with a positive wall_seconds means gflops > 0.
file(READ ${run1_json} run1_text)
if(NOT run1_text MATCHES "\"flops_total\":[0-9]*\\.?[0-9]+e?[+0-9]*")
  message(FATAL_ERROR "BenchReportTest: no flops_total in artifact")
endif()
if(run1_text MATCHES "\"flops_total\":0[,}]")
  message(FATAL_ERROR "BenchReportTest: flops_total is zero — cost accounting did not fire")
endif()

# 3. Thread-count independence: same seed, same metrics, byte for byte.
if(SERIAL_BASELINE)
  file(READ ${run2_json} run2_text)
  string(JSON run1_metrics GET "${run1_text}" metrics)
  string(JSON run2_metrics GET "${run2_text}" metrics)
  if(NOT run1_metrics STREQUAL run2_metrics)
    message(FATAL_ERROR "BenchReportTest: TAAMR_THREADS=1 and default-thread runs wrote "
                        "different metrics (${run1_json} vs ${run2_json})")
  endif()
endif()

# 4. Self-compare must pass: identical code, identical config, deterministic
# tables; only wall time wiggles, hence the fat threshold.
execute_process(
  COMMAND ${REPORT_BIN} ${run2_json} --baseline ${run1_json} --threshold ${THRESHOLD}
          --out "${WORK_DIR}/report_self.md"
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "BenchReportTest: self-compare flagged a regression (rc=${rc})")
endif()

# 5. Inflate the baseline: prepending a digit makes the recorded flops_total
# (hence GFLOP/s) at least 10x the truth, far past any threshold, so the
# current run must now look like a >=90% throughput regression.
string(REPLACE "\"flops_total\":" "\"flops_total\":9" inflated_text "${run1_text}")
file(WRITE "${WORK_DIR}/inflated_baseline.json" "${inflated_text}")
execute_process(
  COMMAND ${REPORT_BIN} ${run2_json}
          --baseline "${WORK_DIR}/inflated_baseline.json" --threshold ${THRESHOLD}
          --out "${WORK_DIR}/report_inflated.md"
  RESULT_VARIABLE rc
)
if(rc EQUAL 0)
  message(FATAL_ERROR "BenchReportTest: inflated baseline was NOT flagged as a regression")
endif()

message(STATUS "BenchReportTest: PASS (gate accepts honest runs, rejects inflated baseline)")
