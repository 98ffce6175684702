# ctest script: one smoke run of a built binary. Runs BIN with ARGS in a
# fresh WORK_DIR under the extra environment ENV, requires exit code RC
# (default 0) and every EXPECT needle in its output (stdout, then stderr).
#
# Invoked as (taamr_smoke in the root CMakeLists.txt writes this):
#   cmake -DBIN=<path> -DWORK_DIR=<dir> [-DARGS=<a;b>] [-DENV=<K=V;...>]
#         [-DRC=<code>] [-DEXPECT=<needle;...>] -P Smoke.cmake
include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)
gate_require(BIN WORK_DIR)
if(NOT RC)
  set(RC 0)
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
gate_run(run COMMAND "${BIN}" ${ARGS} ENV ${ENV} RC ${RC})
file(READ "${WORK_DIR}/run.err" run_err)
if(EXPECT)
  get_filename_component(bin_name "${BIN}" NAME)
  gate_expect_text("${bin_name} output" "${run_out}${run_err}" ${EXPECT})
endif()
