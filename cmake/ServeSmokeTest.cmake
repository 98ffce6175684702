# ctest script: drive taamr_serve end-to-end over its stdin JSONL protocol
# and assert on the responses — model listing, cold/warm cache behaviour, a
# live image swap advancing the feature epoch, error reporting, stats, and a
# live CPU profile window.
#
# Invoked as:
#   cmake -DSERVE_BIN=<path> -DWORK_DIR=<dir> -P ServeSmokeTest.cmake
include(${CMAKE_CURRENT_LIST_DIR}/Gate.cmake)
gate_require(SERVE_BIN WORK_DIR)

file(MAKE_DIRECTORY "${WORK_DIR}")
set(requests_file "${WORK_DIR}/requests.jsonl")
file(WRITE "${requests_file}" "\
{\"op\":\"models\"}
{\"op\":\"recommend\",\"model\":\"vbpr\",\"user\":0,\"n\":5}
{\"op\":\"recommend\",\"model\":\"vbpr\",\"user\":0,\"n\":5}
{\"op\":\"recommend\",\"model\":\"bpr_mf\",\"user\":1,\"n\":5}
{\"op\":\"update_image\",\"item\":0,\"seed\":123}
{\"op\":\"recommend\",\"model\":\"vbpr\",\"user\":0,\"n\":5}
{\"op\":\"recommend\",\"model\":\"nope\",\"user\":0}
{\"op\":\"not_an_op\"}
{\"op\":\"stats\"}
{\"op\":\"profile\",\"seconds\":0.05}
{\"op\":\"shutdown\"}
")

gate_run(serve COMMAND ${SERVE_BIN} --seed 42 INPUT "${requests_file}")

# Every exchange the driver must have answered correctly.
gate_expect_text("serve output" "${serve_out}"
  "taamr_serve: ready"          # pipeline prepared, models registered
  "\"vbpr\""                    # models response lists both entries
  "\"bpr_mf\""
  "\"cached\":false"            # first recommend is a cold miss
  "\"cached\":true"             # identical repeat is served from cache
  "\"feature_epoch\":1"         # update_image advanced the epoch and the
                                # next recommend reflects it
  "unknown model"               # descriptive error, not a crash
  "\"ok\":false"
  "\"requests\":"               # stats carry the counters
  "# EOF")                      # the profile window's collapsed stacks end

# One response per request: 11 requests in, 10 "ok"-tagged JSON lines out
# (every formatter leads with the ok field; shutdown acks before exiting)
# plus the profile window, which is not JSON.
string(REGEX MATCHALL "\"ok\":(true|false)" response_lines "${serve_out}")
list(LENGTH response_lines response_count)
if(NOT response_count EQUAL 10)
  gate_fail("expected 10 JSONL responses, saw ${response_count}:\n${serve_out}")
endif()

message(STATUS "${GATE_NAME}: PASS (${response_count} responses validated)")
