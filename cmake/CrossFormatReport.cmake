# Exports one trace in each format (JSONL, Chrome, ZTB, chosen by the
# --trace-out extension), reads each back with `zamtrace report --json`,
# and requires the three reports — the JSON document and the printed
# report — to be byte-identical: every format must carry the same records,
# so a writer or a reader that breaks one format fails here. The trace is
# a `zamc profile PROGRAM` run; with -DADVERSARY=<level> it is the
# `--adversary` projection, whose events the exporter filters inside its
# runs of events. With -DMODE=by_line the profile runs with h=700 and the
# report adds `--by-line`; with -DMODE=attack the trace is the attack
# fixture's observation stream (`zamc attack`, two classes, 24 samples,
# seed 42) with a snapshot row every 5 samples. Files go to OUT.<ext>,
# OUT.<ext>.report.json and OUT.<ext>.report.txt.
set(PRODUCE profile ${PROGRAM} --no-color)
set(REPORT_FLAGS "")
if(ADVERSARY)
  list(APPEND PRODUCE --adversary ${ADVERSARY})
endif()
if(MODE STREQUAL "by_line")
  list(APPEND PRODUCE --set h=700)
  set(REPORT_FLAGS --by-line)
elseif(MODE STREQUAL "attack")
  set(PRODUCE attack ${PROGRAM} --class low:h=1..60 --class high:h=600..700
              --samples 24 --seed 42 --snapshot-every 5)
endif()
foreach(EXT jsonl json ztb)
  execute_process(
    COMMAND ${ZAMC} ${PRODUCE} --trace-out ${OUT}.${EXT}
    OUTPUT_QUIET
    ERROR_VARIABLE PRODUCE_STDERR
    RESULT_VARIABLE PRODUCE_RC)
  if(NOT PRODUCE_RC EQUAL 0)
    message(FATAL_ERROR
            "zamc ${PRODUCE} --trace-out ${OUT}.${EXT} failed "
            "(rc=${PRODUCE_RC}): ${PRODUCE_STDERR}")
  endif()
  execute_process(
    COMMAND ${ZAMTRACE} report ${OUT}.${EXT} ${REPORT_FLAGS}
            --json ${OUT}.${EXT}.report.json
    OUTPUT_FILE ${OUT}.${EXT}.report.txt
    ERROR_VARIABLE REPORT_STDERR
    RESULT_VARIABLE REPORT_RC)
  if(NOT REPORT_RC EQUAL 0)
    message(FATAL_ERROR
            "zamtrace report ${OUT}.${EXT} failed (rc=${REPORT_RC}): "
            "${REPORT_STDERR}")
  endif()
endforeach()
foreach(EXT json ztb)
  foreach(PART report.json report.txt)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}.jsonl.${PART}
              ${OUT}.${EXT}.${PART}
      RESULT_VARIABLE SAME_RC)
    if(NOT SAME_RC EQUAL 0)
      message(FATAL_ERROR "zamtrace report of the ${EXT} trace differs from "
                          "the JSONL one: compare ${OUT}.jsonl.${PART} "
                          "and ${OUT}.${EXT}.${PART}")
    endif()
  endforeach()
endforeach()
