# Shard-scaling gate, run via
#   cmake -DBENCH_BIN=<serve_load> -DWORK_DIR=<dir> -P ServeShardGate.cmake
# Optional: -DMIN_SPEEDUP_X10=<n> (default 18, i.e. 1.8x).
#
# Runs serve_load with a 1-vs-4 shard sweep in a deliberately miss-heavy
# configuration (tiny cache, one worker per shard) so each leg's throughput
# tracks how many cores the shard layout can actually use. Asserts
#   serve_qps{shards=4} >= (MIN_SPEEDUP_X10 / 10) * serve_qps{shards=1}
# with one retry (single-run bench noise must not fail CI). Hosts with
# fewer than 4 hardware threads pass trivially — the artifact's
# serve_hw_concurrency metric records what the run had, and pinning a
# parallelism speedup on a 1- or 2-core box would only measure the
# scheduler.
cmake_minimum_required(VERSION 3.16)

foreach(var BENCH_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ServeShardGate: -D${var}=... is required")
  endif()
endforeach()
if(NOT DEFINED MIN_SPEEDUP_X10)
  set(MIN_SPEEDUP_X10 18)
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Decimal string -> integer thousandths, for 64-bit integer ratio compares.
function(to_milli value out)
  if(NOT value MATCHES "^([0-9]+)(\\.([0-9]*))?$")
    message(FATAL_ERROR "ServeShardGate: cannot parse '${value}' as a decimal")
  endif()
  set(whole ${CMAKE_MATCH_1})
  set(frac "${CMAKE_MATCH_3}000")
  string(SUBSTRING "${frac}" 0 3 frac)
  math(EXPR milli "${whole} * 1000 + 1${frac} - 1000")
  set(${out} ${milli} PARENT_SCOPE)
endfunction()

# One serve_load run with the 1,4 sweep; extracts hw concurrency and the
# per-shard-count qps values into <prefix>_hw / <prefix>_q1 / <prefix>_q4.
function(run_sweep tag prefix)
  set(dir "${WORK_DIR}/run_${tag}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            "TAAMR_BENCH_DIR=${dir}"
            "TAAMR_SERVE_USERS=4000"
            "TAAMR_SERVE_ITEMS=2048"
            "TAAMR_SERVE_CLIENTS=8"
            "TAAMR_SERVE_REQUESTS=150"
            "TAAMR_SERVE_SHARD_SWEEP=1,4"
            "TAAMR_SERVE_WORKERS=1"
            "TAAMR_SERVE_CACHE_CAP=64"
            ${BENCH_BIN}
    WORKING_DIRECTORY "${dir}"
    RESULT_VARIABLE rc
    OUTPUT_FILE "${dir}/stdout.log"
    ERROR_FILE "${dir}/stderr.log"
    TIMEOUT 600
  )
  if(NOT rc EQUAL 0)
    file(READ "${dir}/stderr.log" err)
    message(FATAL_ERROR "ServeShardGate: serve_load (${tag}) failed, rc=${rc}:\n${err}")
  endif()
  file(READ "${dir}/BENCH_serve_load.json" text)
  if(NOT text MATCHES "\"name\":\"serve_hw_concurrency\",\"labels\":{},\"value\":([0-9.]+)")
    message(FATAL_ERROR "ServeShardGate: no serve_hw_concurrency in run_${tag} artifact")
  endif()
  set(${prefix}_hw ${CMAKE_MATCH_1} PARENT_SCOPE)
  if(NOT text MATCHES "\"name\":\"serve_qps\",\"labels\":{\"shards\":\"1\"},\"value\":([0-9.]+)")
    message(FATAL_ERROR "ServeShardGate: no serve_qps{shards=1} in run_${tag} artifact")
  endif()
  set(${prefix}_q1 ${CMAKE_MATCH_1} PARENT_SCOPE)
  if(NOT text MATCHES "\"name\":\"serve_qps\",\"labels\":{\"shards\":\"4\"},\"value\":([0-9.]+)")
    message(FATAL_ERROR "ServeShardGate: no serve_qps{shards=4} in run_${tag} artifact")
  endif()
  set(${prefix}_q4 ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

# TRUE in ${out} when q4 >= q1 * MIN_SPEEDUP_X10 / 10.
function(scales_enough q1 q4 out)
  to_milli(${q1} q1_m)
  to_milli(${q4} q4_m)
  math(EXPR lhs "${q4_m} * 10")
  math(EXPR rhs "${q1_m} * ${MIN_SPEEDUP_X10}")
  if(lhs LESS rhs)
    set(${out} FALSE PARENT_SCOPE)
  else()
    set(${out} TRUE PARENT_SCOPE)
  endif()
endfunction()

run_sweep(1 first)
message(STATUS "serve_load sweep: hw=${first_hw} qps shards=1: ${first_q1}, shards=4: ${first_q4}")

# The sweep itself (routing invariants, golden-verified mid-load swaps,
# clean drains) already ran and passed above; the scaling assertion needs
# at least 4 hardware threads to mean anything.
to_milli(${first_hw} hw_m)
if(hw_m LESS 4000)
  message(STATUS "ServeShardGate: PASS (host has ${first_hw} hardware threads; 4-shard speedup not pinned)")
  return()
endif()

scales_enough(${first_q1} ${first_q4} ok)
if(NOT ok)
  message(STATUS "shard scaling below floor on first run; retrying once")
  run_sweep(2 second)
  message(STATUS "serve_load sweep (retry): qps shards=1: ${second_q1}, shards=4: ${second_q4}")
  scales_enough(${second_q1} ${second_q4} ok)
endif()
if(NOT ok)
  message(FATAL_ERROR "ServeShardGate: 4-shard qps did not reach ${MIN_SPEEDUP_X10}/10 of 1-shard qps")
endif()
message(STATUS "ServeShardGate: PASS (4-shard speedup floor ${MIN_SPEEDUP_X10}/10 met)")
