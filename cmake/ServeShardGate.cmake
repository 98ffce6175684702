# Shard-scaling gate, run via
#   cmake -DBENCH_BIN=<serve_load> -DWORK_DIR=<dir> -P ServeShardGate.cmake
#
# Runs serve_load, whose Part 1 is a 1-vs-4 shard sweep in a deliberately
# miss-heavy configuration (tiny cache, one worker per shard), and asserts
#   serve_shard_speedup{shards=4} >= 1.8.
# The speedup is capacity over capacity: requests divided by the busiest
# shard's handler time, measured in thread-CPU time (CLOCK_THREAD_CPUTIME_ID)
# inside serve_load. TCP qps cannot carry this floor on a 4-core host: the
# load-generator clients and the epoll thread share the cores with the four
# shard workers. Thread-CPU time does not advance while a worker is blocked,
# so a shard that waits on a lock would look idle here; the sweep's
# correctness checks, not this gate, guard against that.
#
# Hosts with fewer than 4 hardware threads pass trivially (the artifact's
# serve_hw_concurrency records what the run had).
include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)
gate_require(BENCH_BIN WORK_DIR)
set(min_speedup 1.8)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
gate_run(serve_load COMMAND ${BENCH_BIN} ENV "TAAMR_BENCH_DIR=${WORK_DIR}")

set(artifact "${WORK_DIR}/BENCH_serve_load.json")
gate_metric(hw "${artifact}" serve_hw_concurrency)
gate_metric(speedup "${artifact}" serve_shard_speedup shards=4)
message(STATUS "hw=${hw}, 4-shard capacity speedup ${speedup}x (floor ${min_speedup}x)")
if(hw LESS 4)
  message(STATUS "${GATE_NAME}: PASS (host has ${hw} hardware threads; speedup not pinned)")
  return()
endif()
if(speedup LESS min_speedup)
  gate_fail("4-shard capacity speedup ${speedup}x is below ${min_speedup}x")
endif()
message(STATUS "${GATE_NAME}: PASS")
