# Sampling-profiler overhead gate, run via
#   cmake -DMICRO_BIN=<micro_substrate> -DSERVE_BIN=<serve_load>
#         -DPROF_BIN=<taamr_prof> -DWORK_DIR=<dir> -P ProfOverheadGate.cmake
#
# Asserts that TAAMR_PROFILE=cpu at 997 Hz (ten times the default rate)
# costs at most 5%. Each bench measures its own cost in one process, as the
# median of alternating off/on pairs (Profiler::stop_cpu/start_cpu between
# the halves): back-to-back processes on a shared host differ by more than
# the budget, so comparing two runs would judge the host, not the profiler.
#   * micro_substrate books gemm_profiler_overhead_pct from 20 pairs of its
#     threads=1 GEMM timing;
#   * serve_load's telemetry pairs sample in their on phases, so its
#     serve_telemetry_overhead_pct covers request contexts plus profiler.
# The micro run's .cpu.folded artifact must then be accepted by taamr_prof,
# self-diff clean, and diff RED (exit 1) against an inflated baseline.
include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)
gate_require(MICRO_BIN SERVE_BIN PROF_BIN WORK_DIR)
set(budget_pct 5)
set(profile_env TAAMR_PROFILE=cpu TAAMR_PROFILE_HZ=997)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

gate_run(micro COMMAND ${MICRO_BIN} --benchmark_filter=^$
  ENV ${profile_env} "TAAMR_PROFILE_OUT=${WORK_DIR}/micro" "TAAMR_BENCH_DIR=${WORK_DIR}")
gate_metric(micro_pct "${WORK_DIR}/BENCH_micro_substrate.json" gemm_profiler_overhead_pct)
message(STATUS "micro_substrate: profiler costs ${micro_pct}% of GEMM GFLOP/s (budget ${budget_pct}%)")
if(micro_pct GREATER budget_pct)
  gate_fail("profiling costs ${micro_pct}% of GEMM throughput, budget ${budget_pct}%")
endif()

# The serve_obs_gate sizing.
gate_run(serve COMMAND ${SERVE_BIN}
  ENV ${profile_env} "TAAMR_PROFILE_OUT=${WORK_DIR}/serve" "TAAMR_BENCH_DIR=${WORK_DIR}"
      TAAMR_SCALE=0.002 TAAMR_SERVE_CLIENTS=2 TAAMR_SERVE_REQUESTS=150)
gate_metric(serve_pct "${WORK_DIR}/BENCH_serve_load.json" serve_telemetry_overhead_pct)
message(STATUS "serve_load: telemetry + profiler cost ${serve_pct}% of qps (budget ${budget_pct}%)")
if(serve_pct GREATER budget_pct)
  gate_fail("profiling costs ${serve_pct}% of serve qps, budget ${budget_pct}%")
endif()

set(folded "${WORK_DIR}/micro.cpu.folded")
if(NOT EXISTS "${folded}")
  gate_fail("${folded} was not written — profiler captured no samples at 997 Hz")
endif()
gate_run(prof_top COMMAND ${PROF_BIN} "${folded}" --top 5)
message(STATUS "profile top frames:\n${prof_top_out}")
gate_run(self_diff COMMAND ${PROF_BIN} "${folded}" --diff "${folded}")

# A synthetic hog frame in the baseline deflates every real frame's
# baseline share, so the current profile shows >threshold growth and
# taamr_prof must exit 1 (not 0, and not 2 = usage/parse error).
file(READ "${folded}" folded_text)
file(WRITE "${WORK_DIR}/inflated_baseline.folded"
     "${folded_text}synthetic_hog_frame 100000000\n")
gate_run(inflated_diff RC 1
  COMMAND ${PROF_BIN} "${folded}" --diff "${WORK_DIR}/inflated_baseline.folded")

message(STATUS "${GATE_NAME}: PASS (overhead within ${budget_pct}%, folded artifact valid, diff gate trips red)")
