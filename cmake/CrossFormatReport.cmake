# Exports one `zamc profile PROGRAM` trace in each format (JSONL, Chrome,
# ZTB, chosen by the --trace-out extension), reads each back with
# `zamtrace report --json`, and requires the three reports to be
# byte-identical: every format must carry the same records, so a writer
# that breaks one format fails here. With -DADVERSARY=<level> the traces
# are the `--adversary` projection, whose events the exporter filters
# inside its runs of events. Files go to OUT.<ext> and
# OUT.<ext>.report.json.
set(PROFILE_FLAGS "")
if(ADVERSARY)
  set(PROFILE_FLAGS --adversary ${ADVERSARY})
endif()
foreach(EXT jsonl json ztb)
  execute_process(
    COMMAND ${ZAMC} profile ${PROGRAM} --no-color ${PROFILE_FLAGS}
            --trace-out ${OUT}.${EXT}
    OUTPUT_QUIET
    ERROR_VARIABLE PROFILE_STDERR
    RESULT_VARIABLE PROFILE_RC)
  if(NOT PROFILE_RC EQUAL 0)
    message(FATAL_ERROR
            "zamc profile --trace-out ${OUT}.${EXT} failed (rc=${PROFILE_RC}): "
            "${PROFILE_STDERR}")
  endif()
  execute_process(
    COMMAND ${ZAMTRACE} report ${OUT}.${EXT} --json ${OUT}.${EXT}.report.json
    OUTPUT_QUIET
    ERROR_VARIABLE REPORT_STDERR
    RESULT_VARIABLE REPORT_RC)
  if(NOT REPORT_RC EQUAL 0)
    message(FATAL_ERROR
            "zamtrace report ${OUT}.${EXT} failed (rc=${REPORT_RC}): "
            "${REPORT_STDERR}")
  endif()
endforeach()
foreach(EXT json ztb)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}.jsonl.report.json
            ${OUT}.${EXT}.report.json
    RESULT_VARIABLE SAME_RC)
  if(NOT SAME_RC EQUAL 0)
    message(FATAL_ERROR "zamtrace report of the ${EXT} trace differs from "
                        "the JSONL one: compare ${OUT}.jsonl.report.json "
                        "and ${OUT}.${EXT}.report.json")
  endif()
endforeach()
