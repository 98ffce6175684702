# ctest script: serving-observability acceptance demo. Boots taamr_serve
# with the audit trail enabled, drives an iterative update_image storm
# against one item (the wire signature of a TAaMR-style adversarial loop),
# and asserts that
#   * the server keeps answering recommend before, during, and after;
#   * {"op":"metrics"} exposes the rolling-window quantile gauges and a
#     nonzero serve_suspect_update_total;
#   * the audit JSONL has matching records (item, source, suspect flag)
#     and validates through taamr_report --audit.
#
# Invoked as:
#   cmake -DSERVE_BIN=<path> -DREPORT_BIN=<path> -DWORK_DIR=<dir>
#         -P ServeObsSmokeTest.cmake
include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)
gate_require(SERVE_BIN REPORT_BIN WORK_DIR)

file(MAKE_DIRECTORY "${WORK_DIR}")
set(audit_file "${WORK_DIR}/audit.jsonl")
file(REMOVE "${audit_file}")

# 16 rapid pushes on item 1: the per-item rate EWMA gains ~0.07/s per
# back-to-back update, so the 0.5/s threshold trips around the 9th push
# regardless of how fast this host processes them.
set(requests "{\"op\":\"recommend\",\"model\":\"vbpr\",\"user\":0,\"n\":5}\n")
foreach(seed RANGE 101 116)
  string(APPEND requests "{\"op\":\"update_image\",\"item\":1,\"seed\":${seed}}\n")
endforeach()
string(APPEND requests "\
{\"op\":\"recommend\",\"model\":\"vbpr\",\"user\":0,\"n\":5,\"debug\":true}
{\"op\":\"metrics\"}
{\"op\":\"stats\"}
{\"op\":\"shutdown\"}
")
set(requests_file "${WORK_DIR}/requests.jsonl")
file(WRITE "${requests_file}" "${requests}")

gate_run(serve COMMAND ${SERVE_BIN} --seed 42 INPUT "${requests_file}"
  ENV "TAAMR_AUDIT_LOG=${audit_file}")

# The server answered everything: 2 recommends + 16 updates + stats +
# shutdown = 20 "ok"-tagged lines (the metrics exposition is not JSON).
string(REGEX MATCHALL "\"ok\":(true|false)" response_lines "${serve_out}")
list(LENGTH response_lines response_count)
if(NOT response_count EQUAL 20)
  gate_fail("expected 20 JSONL responses, saw ${response_count}:\n${serve_out}")
endif()
string(FIND "${serve_out}" "\"ok\":false" any_error)
if(NOT any_error EQUAL -1)
  gate_fail("a request errored during the update storm:\n${serve_out}")
endif()

# The post-storm recommend carries the debug stage attribution; the metrics
# exposition carries the rolling quantile gauges and its terminator.
gate_expect_text("serve output" "${serve_out}" "\"debug\":{\"request_id\""
  "serve_rolling_p50_seconds" "serve_rolling_p99_seconds"
  "serve_stage_seconds_bucket" "# EOF")

# The anomaly scorer must have flagged the storm, and stats must agree with
# the exposition.
string(REGEX MATCH "serve_suspect_update_total{reason=\"rate\"} ([0-9.]+)"
       suspect_match "${serve_out}")
if(NOT suspect_match OR NOT CMAKE_MATCH_1 GREATER 0)
  gate_fail("serve_suspect_update_total{reason=\"rate\"} is missing or zero:\n${serve_out}")
endif()
string(REGEX MATCH "\"suspect_updates\":([0-9]+)" stats_match "${serve_out}")
if(NOT stats_match OR NOT CMAKE_MATCH_1 GREATER 0)
  gate_fail("stats report no suspect updates:\n${serve_out}")
endif()
string(REGEX MATCH "\"audit_records\":([0-9]+)" audit_match "${serve_out}")
if(NOT audit_match OR NOT CMAKE_MATCH_1 EQUAL 16)
  gate_fail("stats should report 16 audit records:\n${serve_out}")
endif()

# Audit trail on disk: one record per push, with the forensic fields.
if(NOT EXISTS "${audit_file}")
  gate_fail("audit log ${audit_file} was not written")
endif()
file(STRINGS "${audit_file}" audit_lines)
list(LENGTH audit_lines audit_count)
if(NOT audit_count EQUAL 16)
  gate_fail("expected 16 audit records, found ${audit_count}")
endif()
file(READ "${audit_file}" audit_text)
gate_expect_text("audit log" "${audit_text}" "\"item\":1" "\"source\":\"update_image\""
  "\"suspect\":true" "\"reason\":\"rate\"" "\"rank_shifts\":[" "\"ssim\":")

# taamr_report validates every record's schema and summarizes the trail.
gate_run(audit_report COMMAND ${REPORT_BIN} --audit "${audit_file}")
message(STATUS "audit summary:\n${audit_report_out}")

message(STATUS "${GATE_NAME}: PASS (storm flagged, metrics + audit validated)")
