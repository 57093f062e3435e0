# Runs one program with one argument and compares its stdout with the
# checked-in copy, byte for byte: tppscenario on a shipped .scn file, or
# tpppaper on one paper case. A model change that moves a digest, an FCT
# percentile, the event count or a reproduced figure shows up here as a
# diff. With -DREGEN=ON the script rewrites the checked-in copy instead (the
# regen-golden target does that for every pinned output). Every error
# message starts with "check_scenario_output:", so a ctest that also sets
# PASS_REGULAR_EXPRESSION can fail on that prefix despite the echo below.
#
#   cmake -DPROGRAM=<binary> -DARG=<argument> -DEXPECTED=<file.out>
#         [-DREGEN=ON] -P check_scenario_output.cmake
cmake_minimum_required(VERSION 3.16)
foreach(var PROGRAM ARG EXPECTED)
  if(NOT ${var})
    message(FATAL_ERROR "check_scenario_output: -D${var}=... is required")
  endif()
endforeach()
execute_process(COMMAND "${PROGRAM}" "${ARG}"
                OUTPUT_VARIABLE produced RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_scenario_output: ${PROGRAM} ${ARG} "
                      "exited with ${rc}:\n${produced}")
endif()
if(REGEN)
  file(WRITE "${EXPECTED}" "${produced}")
  message(STATUS "wrote ${EXPECTED}")
  return()
endif()
if(NOT EXISTS "${EXPECTED}")
  message(FATAL_ERROR "check_scenario_output: missing ${EXPECTED}; run: "
                      "cmake --build <build> -t regen-golden")
endif()
file(READ "${EXPECTED}" expected)
if(NOT produced STREQUAL expected)
  message(FATAL_ERROR "check_scenario_output: pinned output differs from "
                      "${EXPECTED}\n"
                      "--- expected\n${expected}--- produced\n${produced}"
                      "If the change is intentional, run: cmake --build "
                      "<build> -t regen-golden, then review the diff.")
endif()
# Echoed so ctest's pass/fail expressions can read the summary lines.
message("${produced}")
