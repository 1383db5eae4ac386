# Trace I/O that fails must end in a diagnostic and a nonzero exit.
#
# `zamtrace report` on a trace whose numbers are not what a producer
# writes names the record and the arg (exit 2), never a crash, an
# allocation failure or a silent wrap:
#
#   MODE=class_index_wrap   class_index 4294967295 (its + 1 wrapped to 0
#                           and the class table was written out of bounds)
#   MODE=class_index_huge   class_index 400000000 (sized the class table
#                           to it and failed the allocation)
#   MODE=negative_time      end_to_end -7 (wrapped to 2^64 - 7)
#   MODE=windows_list       windows "1,,2" (read as the list "1")
#   MODE=name_index         a span named "mitigate#x" (read as site 0)
#   MODE=negative_site      meta mitigation_sites "-1=linear" (read as
#                           site 2^32 - 1); this one exits 1, like every
#                           malformed policy record
#   MODE=negative_dur       a span's dur -5 (wrapped to 2^64 - 5)
#   MODE=huge_ts            a span's ts 1e300 (an out-of-range cast)
#   MODE=ledger_field       a --check-ledger row's cycles -5 (the same cast)
#   MODE=long_text_line     a 17 MiB JSONL line: past the 16 MiB record
#                           limit, read under a 48 MiB address-space cap
#                           (it was read whole, however long)
#
# `zamtrace diff` on a stats document nested 200,000 arrays deep refuses it
# as having no metrics object (exit 2); the parser recursed until the
# stack ran out:
#
#   MODE=deep_stats
#
# A well-formed trace with extreme numbers reports them whole (exit 0):
#
#   MODE=long_line          `report --by-line` on ledger rows whose loc is
#                           2^64 - 1 prints all 20 digits in the per-line
#                           table (its 16-byte buffer cut them to 15)
#
# Every artifact written to a full device ends in the one short-write
# diagnostic: the writes are buffered, so the one that fails may be the
# last flush, at close(), or fclose's. `zamc` exits 1:
#
#   MODE=short_write_<jsonl|chrome|ztb>  `zamc profile scan.zam --trace-out`
#   MODE=short_write_attack              `zamc attack sweep.zam --trace-out`
#   MODE=short_write_json                `zamc run sweep.zam --json`
#   MODE=short_write_stats               `zamc run sweep.zam --stats=FILE`
#   MODE=short_write_folded              `zamc hot sweep.zam --folded`
#
# and `zamtrace report` and a harness bench exit 2:
#
#   MODE=short_write_report_<json|csv>   `zamtrace report --json|--csv`
#   MODE=short_write_bench_<json|trace>  `fig7_login_timing --json|--trace-out`
#
# `zamtrace diff BASE CAND` takes only a finite, non-negative budget (a
# NaN one passed every comparison and turned the gate off; text read as 0,
# 1e999 as infinity) and names the flag (exit 2):
#
#   MODE=budget_<bits|pct>_<nan|inf|huge|word|negative|empty>
#                           --budget-bits/--budget-pct nan, inf, 1e999,
#                           foo, -5 or the empty string
#
# Usage: cmake -DZAMTRACE=<zamtrace> -DZAMC=<zamc> -DMODE=<mode>
#              -DOUT=<scratch prefix> [-DPROGRAMS=<examples/programs>]
#              [-DBASE=<trace> -DCAND=<trace>] [-DBENCH=<fig7_login_timing>]
#              -P trace_io_check.cmake
set(EXIT 2)
set(ADV "{\"kind\":\"instant\",\"name\":\"sample#0\",\"cat\":\"adv\",\"ts\":0,")
if(MODE STREQUAL "class_index_wrap")
  set(TRACE "${ADV}\"args\":{\"class\":\"x\",\"class_index\":4294967295,\"end_to_end\":5}}\n")
  set(EXPECT "record 'sample#0' \\(cat 'adv'\\): arg 'class_index' is 4294967295, above the limit of 65535")
elseif(MODE STREQUAL "class_index_huge")
  set(TRACE "${ADV}\"args\":{\"class\":\"x\",\"class_index\":400000000,\"end_to_end\":5}}\n")
  set(EXPECT "arg 'class_index' is 400000000, above the limit of 65535")
elseif(MODE STREQUAL "negative_time")
  set(TRACE "${ADV}\"args\":{\"class\":\"x\",\"class_index\":0,\"end_to_end\":-7}}\n")
  set(EXPECT "arg 'end_to_end' is '-7', not an integer in range")
elseif(MODE STREQUAL "windows_list")
  set(TRACE "${ADV}\"args\":{\"class_index\":0,\"end_to_end\":5,\"windows\":\"1,,2\"}}\n")
  set(EXPECT "arg 'windows' is '1,,2', not a list of integers")
elseif(MODE STREQUAL "name_index")
  set(TRACE "{\"kind\":\"span\",\"name\":\"mitigate#x\",\"cat\":\"mit\",\"ts\":0,\"dur\":5,\"args\":{\"consumed\":3}}\n")
  set(EXPECT "record 'mitigate#x' \\(cat 'mit'\\): the index after '#' is not an integer in range")
elseif(MODE STREQUAL "negative_site")
  set(TRACE "{\"kind\":\"meta\",\"args\":{\"mitigation_sites\":\"-1=linear\"}}\n{\"kind\":\"span\",\"name\":\"mitigate#0\",\"cat\":\"mit\",\"ts\":0,\"dur\":5}\n")
  set(EXPECT "trace meta 'mitigation_sites' entry '-1=linear' is not ETA=SPEC")
  set(EXIT 1)
elseif(MODE STREQUAL "negative_dur")
  set(TRACE "{\"kind\":\"span\",\"name\":\"mitigate#0\",\"cat\":\"mit\",\"ts\":0,\"dur\":-5,\"args\":{\"consumed\":3,\"padded\":2}}\n")
  set(EXPECT "record 'mitigate#0' \\(cat 'mit'\\): field 'dur' is '-5', not an integer in range")
elseif(MODE STREQUAL "huge_ts")
  set(TRACE "{\"kind\":\"span\",\"name\":\"mitigate#0\",\"cat\":\"mit\",\"ts\":1e300,\"dur\":5,\"args\":{\"consumed\":3,\"padded\":2}}\n")
  set(EXPECT "record 'mitigate#0' \\(cat 'mit'\\): field 'ts' is '1e300', not an integer in range")
elseif(MODE STREQUAL "ledger_field")
  set(TRACE "{\"kind\":\"instant\",\"name\":\"prof_line#3\",\"cat\":\"prof\",\"ts\":0,\"args\":{\"cycles\":5}}\n")
  file(WRITE ${OUT}.ledger.json
       "{\"ledger\": {\"lines\": [{\"line\": 3, \"cycles\": -5}], \"sites\": []}}\n")
  set(REPORT_FLAGS --check-ledger ${OUT}.ledger.json)
  set(EXPECT "ledger lines\\[0\\]: field 'cycles' is -5, not an integer in range")
elseif(MODE STREQUAL "long_text_line")
  string(REPEAT "x" 17825792 NAME)
  file(WRITE ${OUT}.jsonl "{\"kind\":\"instant\",\"name\":\"${NAME}\"}\n")
  set(COMMAND sh -c "ulimit -v 49152 && exec \"$0\" report \"$1\""
              ${ZAMTRACE} ${OUT}.jsonl)
  set(EXPECT "a line of more than 16777216 bytes: no record is that long")
elseif(MODE STREQUAL "deep_stats")
  string(REPEAT "[" 200000 OPEN)
  string(REPEAT "]" 200000 CLOSE)
  file(WRITE ${OUT}.json "{\n\"metrics\": ${OPEN}${CLOSE}}\n")
  set(COMMAND ${ZAMTRACE} diff ${OUT}.json ${OUT}.json)
  set(EXPECT "error: '${OUT}.json' has no metrics object")
elseif(MODE MATCHES "^budget_(bits|pct)_(nan|inf|huge|word|negative|empty)$")
  set(FLAG --budget-${CMAKE_MATCH_1})
  set(VALUE ${CMAKE_MATCH_2})
  if(VALUE STREQUAL "huge")
    set(VALUE 1e999)
  elseif(VALUE STREQUAL "word")
    set(VALUE foo)
  elseif(VALUE STREQUAL "negative")
    set(VALUE -5)
  elseif(VALUE STREQUAL "empty")
    set(VALUE "")
  endif()
  # Through sh, so that the empty value stays an argument.
  set(COMMAND sh -c "exec \"$0\" diff \"$1\" \"$2\" ${FLAG} '${VALUE}'"
              ${ZAMTRACE} ${BASE} ${CAND})
  set(EXPECT "error: ${FLAG} wants a finite, non-negative number, got '${VALUE}'")
elseif(MODE MATCHES "^short_write_(jsonl|chrome|ztb)$")
  set(COMMAND ${ZAMC} profile ${PROGRAMS}/scan.zam --no-color
              --trace-out /dev/full --trace-format ${CMAKE_MATCH_1})
  set(EXPECT "error: short write to '/dev/full'")
  set(EXIT 1)
elseif(MODE STREQUAL "short_write_attack")
  set(COMMAND ${ZAMC} attack ${PROGRAMS}/sweep.zam
              --class low:h=1..60 --class high:h=600..700
              --samples 24 --seed 42 --trace-out /dev/full
              --trace-format jsonl)
  set(EXPECT "error: short write to '/dev/full'")
  set(EXIT 1)
elseif(MODE MATCHES "^short_write_(json|stats|folded)$")
  set(FLAGS_json run --json /dev/full)
  set(FLAGS_stats run --stats=/dev/full)
  set(FLAGS_folded hot --folded /dev/full)
  list(GET FLAGS_${CMAKE_MATCH_1} 0 CMD)
  list(SUBLIST FLAGS_${CMAKE_MATCH_1} 1 -1 FLAGS)
  set(COMMAND ${ZAMC} ${CMD} ${PROGRAMS}/sweep.zam ${FLAGS})
  set(EXPECT "error: short write to '/dev/full'")
  set(EXIT 1)
elseif(MODE MATCHES "^short_write_report_(json|csv)$")
  set(TRACE "{\"kind\":\"span\",\"name\":\"mitigate#0\",\"cat\":\"mit\",\"ts\":0,\"dur\":5,\"args\":{\"consumed\":3}}\n")
  set(REPORT_FLAGS --${CMAKE_MATCH_1} /dev/full)
  set(EXPECT "error: short write to '/dev/full'")
elseif(MODE STREQUAL "short_write_bench_json")
  set(COMMAND ${BENCH} --json /dev/full)
  set(EXPECT "error: short write to '/dev/full'")
elseif(MODE STREQUAL "short_write_bench_trace")
  set(COMMAND ${BENCH} --trace-out /dev/full --trace-format jsonl)
  set(EXPECT "error: short write to '/dev/full'")
elseif(MODE STREQUAL "long_line")
  # One mitigate window at line 2^64 - 1 and the ledger rows that account
  # for it. A JSON number that large reads as a double, so the loc args
  # are strings, which the reader hands on as they are.
  set(LOC 18446744073709551615)
  set(TRACE "{\"kind\":\"span\",\"name\":\"mitigate#0\",\"cat\":\"mit\",\"ts\":10,\"dur\":64,\"args\":{\"consumed\":40,\"padded\":24,\"mispredicted\":\"false\",\"loc\":\"${LOC}\"}}
{\"kind\":\"instant\",\"name\":\"prof_line#${LOC}\",\"cat\":\"prof\",\"ts\":74,\"args\":{\"cycles\":74,\"step_cycles\":50,\"sleep_cycles\":0,\"pad_cycles\":24,\"accesses\":1,\"misses\":0,\"windows\":1,\"leak_bits\":0}}
{\"kind\":\"instant\",\"name\":\"prof_site#0\",\"cat\":\"prof\",\"ts\":74,\"args\":{\"loc\":\"${LOC}\",\"windows\":1,\"pad_cycles\":24,\"leak_bits\":0}}
")
  set(REPORT_FLAGS --by-line)
  set(EXPECT "\n  ${LOC} +74 +0 +24 +1 +0\n")
  set(EXPECT_STDOUT ON)
  set(EXIT 0)
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

if(DEFINED TRACE)
  file(WRITE ${OUT}.jsonl "${TRACE}")
  set(COMMAND ${ZAMTRACE} report ${OUT}.jsonl ${REPORT_FLAGS})
endif()
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE STDOUT
                ERROR_VARIABLE STDERR)
if(NOT RC EQUAL EXIT)
  message(FATAL_ERROR "expected exit ${EXIT}, got '${RC}'\n${STDOUT}${STDERR}")
endif()
if(EXPECT_STDOUT)
  if(NOT STDOUT MATCHES "${EXPECT}")
    message(FATAL_ERROR "expected output matching '${EXPECT}', got:\n"
                        "${STDOUT}")
  endif()
  message(STATUS "${MODE}: ${STDOUT}")
  return()
endif()
if(NOT STDERR MATCHES "${EXPECT}")
  message(FATAL_ERROR "expected a diagnostic matching '${EXPECT}', got:\n"
                      "${STDERR}")
endif()
message(STATUS "${MODE}: ${STDERR}")
