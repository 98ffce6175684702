# ctest script: run the quickstart example with tracing enabled and assert
# that the trace is produced, valid and covers the pipeline.
#
# Invoked as:
#   cmake -DQUICKSTART=<path> -DTRACE_SUMMARY=<path> -DWORK_DIR=<dir>
#         -P QuickstartTraceTest.cmake
#
# trace_summary exits nonzero on malformed trace JSON, so it serves as the
# validator.
include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)
gate_require(QUICKSTART TRACE_SUMMARY WORK_DIR)

file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace_file "${WORK_DIR}/quickstart_trace.json")
file(REMOVE "${trace_file}")

gate_run(quickstart COMMAND ${QUICKSTART} ENV "TAAMR_TRACE=${trace_file}")
if(NOT EXISTS "${trace_file}")
  gate_fail("quickstart did not write ${trace_file}")
endif()

gate_run(trace_summary COMMAND ${TRACE_SUMMARY} "${trace_file}" 15)
message(STATUS "trace_summary output:\n${trace_summary_out}")

# The trace must cover the pipeline stages, CNN epochs and attack steps.
file(READ "${trace_file}" trace_text)
gate_expect_text("trace" "${trace_text}" "pipeline/prepare" "pipeline/train_cnn"
  "cnn/epoch" "pipeline/train_vbpr" "recsys/vbpr/epoch" "pipeline/attack_category"
  "attack/fgsm")

message(STATUS "${GATE_NAME}: PASS (trace validated)")
