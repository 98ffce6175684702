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
#   5. inflates the baseline's recorded flops_total more than tenfold and
#      compares the baseline run against that copy — taamr_report must now
#      report a regression (exit 1).
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

# "name{k=v,...} = value" for one entry of an artifact's metrics array.
function(describe_metric out metric)
  string(JSON name GET "${metric}" name)
  string(JSON value GET "${metric}" value)
  string(JSON count LENGTH "${metric}" labels)
  set(labels)
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON key MEMBER "${metric}" labels ${i})
      string(JSON label GET "${metric}" labels "${key}")
      list(APPEND labels "${key}=${label}")
    endforeach()
  endif()
  string(JOIN "," labels ${labels})
  set(${out} "${name}{${labels}} = ${value}" PARENT_SCOPE)
endfunction()

# 3. Thread-count independence: same seed, same metrics, byte for byte. The
# failure names the first entry that differs, so it reads without the runs'
# artifacts (the next run of the gate deletes them).
if(SERIAL_BASELINE)
  file(READ ${run2_json} run2_text)
  string(JSON run1_metrics GET "${run1_text}" metrics)
  string(JSON run2_metrics GET "${run2_text}" metrics)
  if(NOT run1_metrics STREQUAL run2_metrics)
    string(JSON run1_count LENGTH "${run1_metrics}")
    string(JSON run2_count LENGTH "${run2_metrics}")
    set(first "${run1_count} vs ${run2_count} entries")
    if(run1_count EQUAL run2_count)
      math(EXPR last "${run1_count} - 1")
      foreach(i RANGE ${last})
        string(JSON run1_metric GET "${run1_metrics}" ${i})
        string(JSON run2_metric GET "${run2_metrics}" ${i})
        if(NOT run1_metric STREQUAL run2_metric)
          describe_metric(run1_desc "${run1_metric}")
          describe_metric(run2_desc "${run2_metric}")
          set(first "metrics[${i}] is ${run1_desc} on 1 thread, ${run2_desc} on the default")
          break()
        endif()
      endforeach()
    endif()
    gate_fail("TAAMR_THREADS=1 and default-thread runs wrote different metrics: ${first}")
  endif()
endif()

# 4. Self-compare must pass. taamr_report prints each regression on stderr,
# which gate_run puts in the failure message.
gate_run(self_compare COMMAND ${REPORT_BIN} ${run2_json} --baseline ${run1_json}
  --threshold ${THRESHOLD} --out "${WORK_DIR}/report_self.md")

# 5. Prepending a 9 to the recorded flops_total makes the baseline's GFLOP/s
# more than 10x the truth, a >90% throughput regression for run1 itself
# (run1, not run2: a faster run2 could pull a barely-10x inflation under 90%).
string(JSON inflated_text SET "${run1_text}" throughput flops_total "9${flops}")
file(WRITE "${WORK_DIR}/inflated_baseline.json" "${inflated_text}")
gate_run(inflated_compare RC 1 COMMAND ${REPORT_BIN} ${run1_json}
  --baseline "${WORK_DIR}/inflated_baseline.json" --threshold ${THRESHOLD}
  --out "${WORK_DIR}/report_inflated.md")

message(STATUS "${GATE_NAME}: PASS (gate accepts honest runs, rejects inflated baseline)")
