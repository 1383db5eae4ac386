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
# and in a usage diagnostic and exit 2 on a malformed command line:
#
#   MODE=vary_observable  `zamc leakage pin.zam --vary guess0=1,2` varies a
#                         variable the adversary observes.
#   MODE=negative_seed    `zamc run pin.zam --seed -1` names a seed that is
#                         not an unsigned integer.
#   MODE=levels           `zamc run` with a 65-level `--levels` names the
#                         machine environment's lattice-size limit.
#   MODE=levels_empty     `zamc run` on a label-free program with
#                         `--levels ''` names the empty level list.
#   MODE=levels_empty_name  `--levels L,,H` names the empty level name.
#   MODE=levels_duplicate   `--levels H,L,H` names the repeated level.
#
# An array named where a command-line value writes a scalar (it used to
# write element 0 silently) is rejected like an undeclared variable, with
# its exit code: 1 for `run` (MODE=array_set, `--set secret=7`), 2 for
# `leakage` (MODE=array_vary, `--vary secret=1,2`) and `attack`
# (MODE=array_class, `--class a:secret=1`), all on pin.zam's secret[4].
#
# Usage: cmake -DZAMC=<zamc> -DMODE=<mode> -DOUT=<scratch prefix>
#              [-DPROGRAMS=<examples/programs>] -P cli_check.cmake
set(EXIT 1)
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
elseif(MODE STREQUAL "vary_observable")
  set(COMMAND ${ZAMC} leakage ${PROGRAMS}/pin.zam --vary guess0=1,2)
  set(EXPECT "pin.zam: error: --vary guess0: 'guess0' is at level L")
  set(EXIT 2)
elseif(MODE STREQUAL "negative_seed")
  set(COMMAND ${ZAMC} run ${PROGRAMS}/pin.zam --seed -1)
  set(EXPECT "unknown or malformed argument '--seed'")
  set(EXIT 2)
elseif(MODE STREQUAL "levels")
  set(LEVELS L)
  foreach(I RANGE 1 63)
    string(APPEND LEVELS ",M${I}")
  endforeach()
  file(WRITE ${OUT}.zam "var h : H;\nh := h + 1 @[H, M10]\n")
  set(COMMAND ${ZAMC} run ${OUT}.zam --hw partitioned --no-equal-labels
              --levels ${LEVELS},H)
  set(EXPECT "--levels names 65 levels; a machine environment holds at most 64")
  set(EXIT 2)
elseif(MODE STREQUAL "levels_empty")
  file(WRITE ${OUT}.zam "skip\n")
  set(COMMAND sh -c "exec \"$0\" run \"$1\" --levels ''" ${ZAMC} ${OUT}.zam)
  set(EXPECT "error: --levels names no level")
  set(EXIT 2)
elseif(MODE STREQUAL "levels_empty_name")
  file(WRITE ${OUT}.zam "var h : H;\nvar l : L;\nl := 1\n")
  set(COMMAND ${ZAMC} run ${OUT}.zam --levels L,,H)
  set(EXPECT "error: --levels has an empty level name")
  set(EXIT 2)
elseif(MODE STREQUAL "levels_duplicate")
  file(WRITE ${OUT}.zam "var h : H;\nvar l : L;\nl := h\n")
  set(COMMAND ${ZAMC} run ${OUT}.zam --levels H,L,H)
  set(EXPECT "error: --levels names 'H' twice")
  set(EXIT 2)
elseif(MODE STREQUAL "array_set")
  set(COMMAND ${ZAMC} run ${PROGRAMS}/pin.zam --set secret=7)
  set(EXPECT "error: 'secret' is an array, not a scalar to set")
elseif(MODE STREQUAL "array_vary")
  set(COMMAND ${ZAMC} leakage ${PROGRAMS}/pin.zam --vary secret=1,2)
  set(EXPECT "error: 'secret' is an array, not a scalar to vary")
  set(EXIT 2)
elseif(MODE STREQUAL "array_class")
  set(COMMAND ${ZAMC} attack ${PROGRAMS}/pin.zam --class a:secret=1
              --class b:secret=2 --samples 4)
  set(EXPECT "error: --class a: 'secret' is an array, not a scalar")
  set(EXIT 2)
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE STDOUT
                ERROR_VARIABLE STDERR)
if(NOT RC EQUAL EXIT)
  message(FATAL_ERROR "expected exit ${EXIT}, got '${RC}'\n${STDERR}")
endif()
if(NOT STDERR MATCHES "${EXPECT}")
  message(FATAL_ERROR "expected a diagnostic matching '${EXPECT}', got:\n"
                      "${STDERR}")
endif()
if(STDOUT MATCHES "terminated")
  message(FATAL_ERROR "a stopped run reported termination:\n${STDOUT}")
endif()
message(STATUS "${MODE}: ${STDERR}")
