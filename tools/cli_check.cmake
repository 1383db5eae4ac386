# zamc must end in a diagnostic and exit 1, never a crash, on inputs that
# hit a limit or that the checker rejects:
#
#   MODE=nesting      `zamc check` on an assignment nested 200000
#                     parentheses deep names the parser's nesting limit.
#   MODE=events       `zamc trace` on a loop that never terminates, under a
#                     256 MiB address-space cap, names the event limit
#                     (kMaxRetainedEvents) of the retained run trace.
#   MODE=steps        `zamc run` on the same loop retains no events and
#                     names the step limit instead of printing "terminated".
#   MODE=guard_while  `zamc check` on a `while` guard that reads an
#   MODE=guard_if     undeclared variable (or an `if` guard) reports the
#                     checker's located "use of undeclared variable".
#
# Usage: cmake -DZAMC=<zamc> -DMODE=<mode> -DOUT=<scratch prefix>
#              -P cli_check.cmake
set(ENDLESS "var l : L;\nwhile 1 do { l := l + 1 }\n")
if(MODE STREQUAL "nesting")
  string(REPEAT "(" 200000 OPEN)
  string(REPEAT ")" 200000 CLOSE)
  file(WRITE ${OUT}.zam "var l : L;\nl := ${OPEN}1${CLOSE}\n")
  set(COMMAND ${ZAMC} check ${OUT}.zam)
  set(EXPECT "nesting exceeds the limit of [0-9]+ levels")
elseif(MODE STREQUAL "events")
  file(WRITE ${OUT}.zam "${ENDLESS}")
  set(COMMAND sh -c "ulimit -v 262144 && exec \"$0\" trace \"$1\""
              ${ZAMC} ${OUT}.zam)
  set(EXPECT "event limit reached: the run retained 4194304 assignment")
elseif(MODE STREQUAL "steps")
  file(WRITE ${OUT}.zam "${ENDLESS}")
  set(COMMAND ${ZAMC} run ${OUT}.zam)
  set(EXPECT "step limit reached: the run took 500000000 steps")
elseif(MODE STREQUAL "guard_while")
  file(WRITE ${OUT}.zam "var l : L;\nwhile (k == 1) do { skip }\n")
  set(COMMAND ${ZAMC} check ${OUT}.zam)
  set(EXPECT "2:8: use of undeclared variable 'k'")
elseif(MODE STREQUAL "guard_if")
  file(WRITE ${OUT}.zam
       "var l : L;\nif (k == 1) then { skip } else { skip }\n")
  set(COMMAND ${ZAMC} check ${OUT}.zam)
  set(EXPECT "2:5: use of undeclared variable 'k'")
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
if(STDOUT MATCHES "terminated")
  message(FATAL_ERROR "a stopped run reported termination:\n${STDOUT}")
endif()
message(STATUS "${MODE}: ${STDERR}")
