# The engine loop keeps the slow path's shape (DESIGN.md, repeat tickets):
#
#   - The one transition loop, ExecCore::advance, is instantiated exactly
#     twice: advance<false> for unobserved runs and advance<true> for
#     observed ones. Both must be defined in the library.
#   - ExecCore::step() and ExecCore::run() stay thin calls into those two
#     instantiations. Each is under 64 bytes; one over 64 bytes holds an
#     inlined copy of the transition code.
#   - MachineEnv::repeatStale keeps GCC's IPA-SRA clone ("[clone
#     .isra.N]"), which passes the ticket's fields in registers. A slow
#     path that writes the ticket or makes a virtual call loses the clone,
#     and with it the registers ExecCore::advance keeps across the call.
#
# The sizes of the two advance instantiations are printed for information
# only.
#
# Usage: cmake -DNM=<nm> -DLIB=<libzam_sem.a> -P EngineLoopShape.cmake
execute_process(COMMAND ${NM} -C -S ${LIB}
                OUTPUT_VARIABLE SYMS
                ERROR_VARIABLE NM_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "nm failed (rc=${RC}): ${NM_ERR}")
endif()

# The size column of a defined text symbol (strong or, for a template
# instantiation, weak) whose demangled name is zam::ExecCore::SIGNATURE
# after an optional return type, in bytes.
function(symbol_size SIGNATURE OUT)
  string(REGEX MATCH "[0-9a-f]+ ([0-9a-f]+) [TW] (void )?zam::ExecCore::${SIGNATURE}\n"
         LINE "${SYMS}")
  if(NOT LINE)
    message(FATAL_ERROR "no definition of ExecCore::${SIGNATURE} in ${LIB}")
  endif()
  math(EXPR SIZE "0x${CMAKE_MATCH_1}")
  set(${OUT} ${SIZE} PARENT_SCOPE)
endfunction()

set(FAILURES "")
foreach(FN step run)
  symbol_size("${FN}\\(\\)" SIZE)
  message(STATUS "ExecCore::${FN}(): ${SIZE} bytes")
  if(SIZE GREATER 64)
    string(APPEND FAILURES "ExecCore::${FN}() is ${SIZE} bytes, over 64: "
                           "it holds a copy of the transition code\n")
  endif()
endforeach()
foreach(OBS false true)
  symbol_size("advance<${OBS}>\\(unsigned long\\)" SIZE)
  message(STATUS "ExecCore::advance<${OBS}>(unsigned long): ${SIZE} bytes")
endforeach()
string(REGEX MATCHALL "[TWtw] [^\n]*zam::ExecCore::advance[^\n]*" DEFS
       "${SYMS}")
list(FILTER DEFS EXCLUDE REGEX "\\[clone ") # Split-off parts, not copies.
list(LENGTH DEFS NUM_DEFS)
if(NOT NUM_DEFS EQUAL 2)
  string(REPLACE ";" "\n  " DEF_LINES "${DEFS}")
  string(APPEND FAILURES "${NUM_DEFS} definitions of ExecCore::advance, "
                         "expected the two instantiations:\n  ${DEF_LINES}\n")
endif()

if(NOT SYMS MATCHES "zam::MachineEnv::repeatStale\\([^\n]*\\) \\[clone \\.isra\\.[0-9]+\\]")
  string(APPEND FAILURES "MachineEnv::repeatStale has no [clone .isra.N]: "
                         "the slow path writes the ticket or calls out\n")
endif()
if(FAILURES)
  message(FATAL_ERROR "${FAILURES}")
endif()
