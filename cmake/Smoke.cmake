# ctest script: one smoke run of a built binary. Runs BIN with ARGS in a
# fresh WORK_DIR under the extra environment ENV, requires exit code RC
# (default 0) and every EXPECT needle in its output (stdout, then stderr).
# With TRACE needles the run also writes WORK_DIR/trace.json (TAAMR_TRACE):
# trace_summary must accept it (it exits nonzero on malformed trace JSON)
# and it must hold every TRACE needle.
#
# Invoked as (taamr_smoke in the root CMakeLists.txt writes this):
#   cmake -DBIN=<path> -DWORK_DIR=<dir> [-DARGS=<a;b>] [-DENV=<K=V;...>]
#         [-DRC=<code>] [-DEXPECT=<needle;...>]
#         [-DTRACE=<needle;...> -DTRACE_SUMMARY=<path>] -P Smoke.cmake
include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)
gate_require(BIN WORK_DIR)
if(NOT RC)
  set(RC 0)
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace_file "${WORK_DIR}/trace.json")
if(TRACE)
  gate_require(TRACE_SUMMARY)
  list(APPEND ENV "TAAMR_TRACE=${trace_file}")
endif()
gate_run(run COMMAND "${BIN}" ${ARGS} ENV ${ENV} RC ${RC})
file(READ "${WORK_DIR}/run.err" run_err)
if(EXPECT)
  get_filename_component(bin_name "${BIN}" NAME)
  gate_expect_text("${bin_name} output" "${run_out}${run_err}" ${EXPECT})
endif()
if(TRACE)
  if(NOT EXISTS "${trace_file}")
    gate_fail("${BIN} did not write ${trace_file}")
  endif()
  gate_run(trace_summary COMMAND ${TRACE_SUMMARY} "${trace_file}" 15)
  message(STATUS "trace_summary output:\n${trace_summary_out}")
  file(READ "${trace_file}" trace_text)
  gate_expect_text("trace" "${trace_text}" ${TRACE})
endif()
