# Runs `zamc run PROGRAM --hw HW --stats=OUT` and compares the stats
# document's deterministic part (the document without its `meta`, `wall`
# and `phases` members) with the committed GOLDEN as JSON values, so every
# simulated counter of the run — interpreter, mitigation, every hw.*
# hit/miss/event count, leak.* and exec.* — is pinned. That part is always
# written to OUT.actual first: a golden is made or refreshed by copying it.
execute_process(
  COMMAND ${ZAMC} run ${PROGRAM} --hw ${HW} --stats=${OUT}
  OUTPUT_QUIET
  ERROR_VARIABLE RUN_STDERR
  RESULT_VARIABLE RUN_RC)
if(NOT RUN_RC EQUAL 0)
  message(FATAL_ERROR "zamc run failed (rc=${RUN_RC}): ${RUN_STDERR}")
endif()
file(READ ${OUT} DOC)
foreach(KEY meta wall phases)
  string(JSON KIND ERROR_VARIABLE MISSING TYPE "${DOC}" ${KEY})
  if(NOT MISSING)
    string(JSON DOC REMOVE "${DOC}" ${KEY})
  endif()
endforeach()
file(WRITE ${OUT}.actual "${DOC}\n")
if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "no golden ${GOLDEN}; inspect ${OUT}.actual and "
                      "copy it there")
endif()
file(READ ${GOLDEN} EXPECTED)
string(JSON SAME EQUAL "${EXPECTED}" "${DOC}")
if(NOT SAME)
  message(FATAL_ERROR
          "zamc run --stats counters drifted from ${GOLDEN}; inspect "
          "${OUT}.actual and regenerate the golden if the change is "
          "intended")
endif()
