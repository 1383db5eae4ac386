# A harness bench refuses a shared flag it does not honour: it exits 2,
# names the flag on stderr, and writes no file, where it used to run and
# ignore the flag (exit 0, no file).
#
# Usage: cmake -DBENCH=<bench> -DFLAG=<flag> -DVALUE=<path>
#              -P BenchFlagCheck.cmake
#
# VALUE is the flag's file argument; a regular file at that path must not
# exist after the run (a device such as /dev/full is left alone).
if(NOT VALUE MATCHES "^/dev/")
  file(REMOVE ${VALUE})
endif()
execute_process(COMMAND ${BENCH} ${FLAG} ${VALUE}
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE STDOUT
                ERROR_VARIABLE STDERR)
if(NOT RC EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${RC}'\n${STDOUT}${STDERR}")
endif()
if(NOT STDERR MATCHES "error: this bench does not take '${FLAG}'")
  message(FATAL_ERROR "expected a diagnostic naming ${FLAG}, got:\n${STDERR}")
endif()
if(NOT VALUE MATCHES "^/dev/" AND EXISTS ${VALUE})
  message(FATAL_ERROR "${BENCH} wrote ${VALUE}")
endif()
message(STATUS "${STDERR}")
