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
#   MODE=misses       `zamc run --trace-out` on a loop whose every array
#                     read misses the L1D, eight per assignment, under a
#                     384 MiB address-space cap, names the event limit of
#                     the sampled misses (kMaxRetainedEvents), which it
#                     reaches long before the events'.
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
#   MODE=vary_empty         `zamc leakage --vary e=` names the empty value
#                           list (it used to report Q = 0 over no runs).
#   MODE=vary_empty_value   `--vary e=1,` names the empty value.
#   MODE=vary_duplicate     `--vary e=3,5 --vary e=7` names the variable
#                           varied twice.
#   MODE=vary_range_empty       `--vary e=..` names the empty range,
#   MODE=vary_range_reversed    `e=9..3` the reversed one,
#   MODE=vary_range_malformed   `e=0..x` the malformed one,
#   MODE=vary_range_overflow    `e=0..9223372036854775808` the bound that
#                               overflows int64,
#   MODE=vary_range_too_large   `e=0..65536` the range one value over
#                               kMaxSecretVariations, and
#   MODE=vary_range_full_width  `e=INT64_MIN..INT64_MAX` the range whose
#                               2^64 values no count holds.
#
# and, exiting 0, MODE=vary_range: `zamc leakage modexp.zam --vary
# d=0..15` prints exactly what `--vary d=0,1,...,15` does.
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
if(MODE STREQUAL "vary_range")
  set(LIST 0)
  foreach(I RANGE 1 15)
    string(APPEND LIST ",${I}")
  endforeach()
  foreach(FORM IN ITEMS SPAN ENUM)
    if(FORM STREQUAL "SPAN")
      set(VALUES 0..15)
    else()
      set(VALUES ${LIST})
    endif()
    execute_process(COMMAND ${ZAMC} leakage ${PROGRAMS}/modexp.zam
                            --threads 1 --vary d=${VALUES}
                    RESULT_VARIABLE RC
                    OUTPUT_VARIABLE OUT_${FORM}
                    ERROR_VARIABLE STDERR)
    if(NOT RC EQUAL 0)
      message(FATAL_ERROR "--vary d=${VALUES} exited '${RC}'\n${STDERR}")
    endif()
  endforeach()
  if(NOT OUT_SPAN STREQUAL OUT_ENUM)
    message(FATAL_ERROR "d=0..15 printed\n${OUT_SPAN}\n"
                        "but d=${LIST} printed\n${OUT_ENUM}")
  endif()
  message(STATUS "vary_range:\n${OUT_SPAN}")
  return()
endif()
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
elseif(MODE STREQUAL "misses")
  # Eight reads 64 KiB apart in a 512 KiB array, stepping one 64-byte line
  # per iteration: no read finds its line in the 16 KiB L1D.
  set(READS "")
  foreach(K RANGE 0 7)
    math(EXPR OFF "${K} * 8192")
    string(APPEND READS " + a[i + ${OFF}]")
  endforeach()
  file(WRITE ${OUT}.zam "var a : L[65536];\nvar i : L;\n"
       "while 1 do { i := (i + 8${READS}) % 8192 }\n")
  set(COMMAND sh -c
      "ulimit -v 393216 && exec \"$0\" run \"$1\" --trace-out \"$2\""
      ${ZAMC} ${OUT}.zam ${OUT}.jsonl)
  set(EXPECT "event limit reached: the run retained 4194304 sampled cache misses")
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
elseif(MODE MATCHES "^vary_(empty|empty_value|duplicate|range_[a-z_]+)$")
  file(WRITE ${OUT}.zam "var e : H;\nvar l : L;\nl := e\n")
  if(MODE STREQUAL "vary_range_empty")
    set(COMMAND ${ZAMC} leakage ${OUT}.zam --vary e=..)
    set(EXPECT "error: --vary e '\\.\\.': empty range")
  elseif(MODE STREQUAL "vary_range_reversed")
    set(COMMAND ${ZAMC} leakage ${OUT}.zam --vary e=9..3)
    set(EXPECT "error: --vary e '9\\.\\.3': range is reversed")
  elseif(MODE STREQUAL "vary_range_malformed")
    set(COMMAND ${ZAMC} leakage ${OUT}.zam --vary e=0..x)
    set(EXPECT "error: --vary e '0\\.\\.x': range is not lo\\.\\.hi")
  elseif(MODE STREQUAL "vary_range_overflow")
    set(COMMAND ${ZAMC} leakage ${OUT}.zam --vary e=0..9223372036854775808)
    set(EXPECT "a bound overflows a 64-bit integer")
  elseif(MODE STREQUAL "vary_range_too_large")
    set(COMMAND ${ZAMC} leakage ${OUT}.zam --vary e=0..65536)
    set(EXPECT "error: --vary e names more than 65536 values \\(kMaxSecretVariations\\)")
  elseif(MODE STREQUAL "vary_range_full_width")
    set(COMMAND ${ZAMC} leakage ${OUT}.zam
                --vary e=-9223372036854775808..9223372036854775807)
    set(EXPECT "error: --vary e names more than 65536 values")
  elseif(MODE STREQUAL "vary_empty")
    set(COMMAND ${ZAMC} leakage ${OUT}.zam --vary e=)
    set(EXPECT "error: --vary e names no value")
  elseif(MODE STREQUAL "vary_empty_value")
    set(COMMAND ${ZAMC} leakage ${OUT}.zam --vary e=1,)
    set(EXPECT "error: --vary e has an empty value")
  else()
    set(COMMAND ${ZAMC} leakage ${OUT}.zam --vary e=3,5 --vary e=7)
    set(EXPECT "error: --vary names 'e' twice")
  endif()
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
