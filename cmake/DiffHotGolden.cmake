# Runs `zamc ${CMD}` (default: hot) on PROGRAM with ARGS (a ;-list),
# captures stdout (the deterministic projection; wall-clock rides stderr)
# into OUT, and diffs it against the committed GOLDEN byte for byte.
if(NOT DEFINED CMD)
  set(CMD hot)
endif()
execute_process(
  COMMAND ${ZAMC} ${CMD} ${PROGRAM} ${ARGS}
  OUTPUT_FILE ${OUT}
  ERROR_VARIABLE HOT_STDERR
  RESULT_VARIABLE HOT_RC)
if(NOT HOT_RC EQUAL 0)
  message(FATAL_ERROR "zamc ${CMD} failed (rc=${HOT_RC}): ${HOT_STDERR}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE DIFF_RC)
if(NOT DIFF_RC EQUAL 0)
  message(FATAL_ERROR
          "zamc ${CMD} output drifted from ${GOLDEN}; inspect ${OUT} and "
          "regenerate the golden if the change is intended")
endif()
