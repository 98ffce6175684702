# ctest script: run the quickstart example with tracing + metrics enabled
# and assert that both outputs are produced and valid.
#
# Invoked as:
#   cmake -DQUICKSTART=<path> -DTRACE_SUMMARY=<path> -DWORK_DIR=<dir>
#         -P QuickstartTraceTest.cmake
#
# trace_summary exits nonzero on malformed trace JSON, so it serves as the
# validator; the metrics snapshot is checked for the expected top-level keys.
include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)
gate_require(QUICKSTART TRACE_SUMMARY WORK_DIR)

file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace_file "${WORK_DIR}/quickstart_trace.json")
set(metrics_file "${WORK_DIR}/quickstart_metrics.json")
file(REMOVE "${trace_file}" "${metrics_file}")

gate_run(quickstart COMMAND ${QUICKSTART}
  ENV "TAAMR_TRACE=${trace_file}" "TAAMR_METRICS_OUT=${metrics_file}")
foreach(file "${trace_file}" "${metrics_file}")
  if(NOT EXISTS "${file}")
    gate_fail("quickstart did not write ${file}")
  endif()
endforeach()

gate_run(trace_summary COMMAND ${TRACE_SUMMARY} "${trace_file}" 15)
message(STATUS "trace_summary output:\n${trace_summary_out}")

# The trace must cover the pipeline stages, CNN epochs and attack steps.
file(READ "${trace_file}" trace_text)
gate_expect_text("trace" "${trace_text}" "pipeline/prepare" "pipeline/train_cnn"
  "cnn/epoch" "pipeline/train_vbpr" "recsys/vbpr/epoch" "pipeline/attack_category"
  "attack/fgsm")

# The metrics snapshot must carry the documented instrument families.
file(READ "${metrics_file}" metrics_text)
gate_expect_text("metrics snapshot" "${metrics_text}" "counters" "gauges" "histograms"
  "pipeline_stage_seconds_total" "cnn_epoch_loss" "attack_step_loss")

message(STATUS "${GATE_NAME}: PASS (trace + metrics validated)")
