# ctest script: full-telemetry serve_load gate. Runs the serving load
# bench with tracing + audit trail enabled and asserts that
#   * the BENCH JSON carries the rolling-window quantile and the
#     two-phase overhead measurement, with overhead <= 10%;
#   * the trace validates through trace_summary and its summary lists the
#     serve/request span;
#   * the audit JSONL validates through taamr_report --audit.
#
# Invoked as:
#   cmake -DBENCH_BIN=<serve_load> -DREPORT_BIN=<taamr_report>
#         -DTRACE_SUMMARY=<trace_summary> -DWORK_DIR=<dir>
#         -P ServeObsGate.cmake

foreach(var BENCH_BIN REPORT_BIN TRACE_SUMMARY WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ServeObsGate: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace_file "${WORK_DIR}/serve_load_trace.json")
set(audit_file "${WORK_DIR}/serve_load_audit.jsonl")
set(bench_json "${WORK_DIR}/BENCH_serve_load.json")
file(REMOVE "${trace_file}" "${audit_file}" "${bench_json}")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          "TAAMR_SCALE=0.002"
          "TAAMR_SERVE_CLIENTS=2"
          "TAAMR_SERVE_REQUESTS=150"
          "TAAMR_BENCH_DIR=${WORK_DIR}"
          "TAAMR_TRACE=${trace_file}"
          "TAAMR_AUDIT_LOG=${audit_file}"
          "${BENCH_BIN}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err
  TIMEOUT 800
)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "serve_load failed (rc=${bench_rc}):\n${bench_out}\n${bench_err}")
endif()

# BENCH JSON: rolling quantile + bounded telemetry overhead.
if(NOT EXISTS "${bench_json}")
  message(FATAL_ERROR "serve_load did not write ${bench_json}")
endif()
file(READ "${bench_json}" bench_text)
foreach(needle "serve_rolling_p99_ms" "serve_telemetry_overhead_pct"
        "serve_qps_telemetry_off" "serve_audit_records")
  string(FIND "${bench_text}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "BENCH JSON is missing '${needle}':\n${bench_text}")
  endif()
endforeach()
string(REGEX MATCH "\"serve_telemetry_overhead_pct\"[^0-9-]*\"value\":([0-9.eE+-]+)"
       overhead_match "${bench_text}")
if(NOT overhead_match)
  message(FATAL_ERROR "cannot extract serve_telemetry_overhead_pct:\n${bench_text}")
endif()
if(CMAKE_MATCH_1 GREATER 10)
  message(FATAL_ERROR
      "telemetry overhead ${CMAKE_MATCH_1}% exceeds the 10% budget:\n${bench_out}")
endif()
message(STATUS "telemetry overhead: ${CMAKE_MATCH_1}% (budget 10%)")

# The trace is valid Chrome trace JSON, and the bench's telemetry-on
# traffic must have produced serving spans.
execute_process(
  COMMAND "${TRACE_SUMMARY}" "${trace_file}" 15
  RESULT_VARIABLE summary_rc
  OUTPUT_VARIABLE summary_out
  ERROR_VARIABLE summary_err
)
if(NOT summary_rc EQUAL 0)
  message(FATAL_ERROR "trace_summary rejected ${trace_file} (rc=${summary_rc}):\n${summary_err}")
endif()
string(FIND "${summary_out}" "serve/request" found)
if(found EQUAL -1)
  message(FATAL_ERROR "trace_summary did not list the serve/request span:\n${summary_out}")
endif()
message(STATUS "trace summary:\n${summary_out}")

# Every audit record parses and carries the forensic schema.
if(NOT EXISTS "${audit_file}")
  message(FATAL_ERROR "audit log ${audit_file} was not written")
endif()
execute_process(
  COMMAND "${REPORT_BIN}" --audit "${audit_file}"
  RESULT_VARIABLE report_rc
  OUTPUT_VARIABLE report_out
  ERROR_VARIABLE report_err
)
if(NOT report_rc EQUAL 0)
  message(FATAL_ERROR "taamr_report rejected the audit log (rc=${report_rc}):\n${report_err}")
endif()
string(FIND "${report_out}" "update_features" found)
if(found EQUAL -1)
  message(FATAL_ERROR "audit summary is missing the update_features source:\n${report_out}")
endif()
message(STATUS "audit summary:\n${report_out}")

message(STATUS "serve observability gate: overhead, trace, and audit validated")
