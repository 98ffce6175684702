# ctest script: full-telemetry serve_load gate. Runs the serving load
# bench with tracing + audit trail enabled and asserts that
#   * the BENCH JSON carries the rolling-window quantile, the audit count
#     and the in-process off/on overhead measurement, with overhead <= 10%;
#   * the trace validates through trace_summary and its summary lists the
#     serve/request span;
#   * the audit JSONL validates through taamr_report --audit.
#
# Invoked as:
#   cmake -DBENCH_BIN=<serve_load> -DREPORT_BIN=<taamr_report>
#         -DTRACE_SUMMARY=<trace_summary> -DWORK_DIR=<dir>
#         -P ServeObsGate.cmake
include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)
gate_require(BENCH_BIN REPORT_BIN TRACE_SUMMARY WORK_DIR)
set(budget_pct 10)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace_file "${WORK_DIR}/serve_load_trace.json")
set(audit_file "${WORK_DIR}/serve_load_audit.jsonl")
set(artifact "${WORK_DIR}/BENCH_serve_load.json")

gate_run(serve_load COMMAND ${BENCH_BIN}
  ENV TAAMR_SCALE=0.002 TAAMR_SERVE_CLIENTS=2 TAAMR_SERVE_REQUESTS=150
      "TAAMR_BENCH_DIR=${WORK_DIR}" "TAAMR_TRACE=${trace_file}"
      "TAAMR_AUDIT_LOG=${audit_file}")

gate_metric(rolling_p99 "${artifact}" serve_rolling_p99_ms)
gate_metric(qps_off "${artifact}" service_qps_telemetry_off)
gate_metric(audit_records "${artifact}" serve_audit_records)
gate_metric(overhead "${artifact}" serve_telemetry_overhead_pct)
if(overhead GREATER budget_pct)
  gate_fail("telemetry overhead ${overhead}% exceeds the ${budget_pct}% budget:\n${serve_load_out}")
endif()
message(STATUS "telemetry overhead: ${overhead}% (budget ${budget_pct}%); qps off "
               "${qps_off}, rolling p99 ${rolling_p99} ms, ${audit_records} audit records")

# The trace is valid Chrome trace JSON, and the bench's telemetry-on
# traffic must have produced serving spans.
gate_run(trace_summary COMMAND ${TRACE_SUMMARY} "${trace_file}" 15)
gate_expect_text("trace summary" "${trace_summary_out}" "serve/request")
message(STATUS "trace summary:\n${trace_summary_out}")

# Every audit record parses and carries the forensic schema.
if(NOT EXISTS "${audit_file}")
  gate_fail("audit log ${audit_file} was not written")
endif()
gate_run(audit_report COMMAND ${REPORT_BIN} --audit "${audit_file}")
gate_expect_text("audit summary" "${audit_report_out}" "update_features")
message(STATUS "audit summary:\n${audit_report_out}")

message(STATUS "${GATE_NAME}: PASS (overhead, trace, and audit validated)")
