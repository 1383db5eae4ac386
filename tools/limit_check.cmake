# Resource limits of zamc must end in a diagnostic, never a crash:
#
#   MODE=nesting  `zamc check` on an assignment nested 200000 parentheses
#                 deep exits 1 naming the parser's nesting limit.
#   MODE=memory   `zamc run` on a loop that never terminates, under a
#                 256 MiB address-space cap, exits 1 naming the retained
#                 run trace as what ran out.
#
# Usage: cmake -DZAMC=<zamc> -DMODE=nesting|memory -DOUT=<scratch prefix>
#              -P limit_check.cmake
if(MODE STREQUAL "nesting")
  string(REPEAT "(" 200000 OPEN)
  string(REPEAT ")" 200000 CLOSE)
  file(WRITE ${OUT}.zam "var l : L;\nl := ${OPEN}1${CLOSE}\n")
  set(COMMAND ${ZAMC} check ${OUT}.zam)
  set(EXPECT "nesting exceeds the limit of [0-9]+ levels")
elseif(MODE STREQUAL "memory")
  file(WRITE ${OUT}.zam "var l : L;\nwhile 1 do { l := l + 1 }\n")
  set(COMMAND sh -c "ulimit -v 262144 && exec \"$0\" run \"$1\""
              ${ZAMC} ${OUT}.zam)
  set(EXPECT "out of memory: the retained run trace")
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE STDOUT
                ERROR_VARIABLE STDERR)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "expected exit 1, got '${RC}'\n${STDERR}")
endif()
if(NOT STDERR MATCHES "${EXPECT}")
  message(FATAL_ERROR "expected a diagnostic matching '${EXPECT}', got:\n"
                      "${STDERR}")
endif()
message(STATUS "${MODE}: ${STDERR}")
