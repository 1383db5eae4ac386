# The engine loop keeps the slow path's shape (DESIGN.md, repeat tickets):
#
#   - ExecCore::step() and ExecCore::run() stay thin calls into the one
#     transition loop, ExecCore::advance. Each is about 30 bytes; one over
#     64 bytes holds a second inlined copy of the transition code.
#   - MachineEnv::repeatStale keeps GCC's IPA-SRA clone ("[clone
#     .isra.N]"), which passes the ticket's fields in registers. A slow
#     path that writes the ticket or makes a virtual call loses the clone,
#     and with it the registers ExecCore::advance keeps across the call.
#
# advance's own size is printed for information only.
#
# Usage: cmake -DNM=<nm> -DLIB=<libzam_sem.a> -P EngineLoopShape.cmake
execute_process(COMMAND ${NM} -C -S ${LIB}
                OUTPUT_VARIABLE SYMS
                ERROR_VARIABLE NM_ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "nm failed (rc=${RC}): ${NM_ERR}")
endif()

# The size column of a defined text symbol SIGNATURE, in bytes.
function(symbol_size SIGNATURE OUT)
  string(REGEX MATCH "[0-9a-f]+ ([0-9a-f]+) T zam::ExecCore::${SIGNATURE}\n"
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
symbol_size("advance\\(unsigned long\\)" SIZE)
message(STATUS "ExecCore::advance(unsigned long): ${SIZE} bytes")

if(NOT SYMS MATCHES "zam::MachineEnv::repeatStale\\([^\n]*\\) \\[clone \\.isra\\.[0-9]+\\]")
  string(APPEND FAILURES "MachineEnv::repeatStale has no [clone .isra.N]: "
                         "the slow path writes the ticket or calls out\n")
endif()
if(FAILURES)
  message(FATAL_ERROR "${FAILURES}")
endif()
