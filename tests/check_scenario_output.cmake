# Runs tppscenario on one .scn file and compares its stdout with the
# checked-in copy, byte for byte. A model change that moves a digest, an
# FCT percentile or the event count shows up here as a diff. With
# -DREGEN=ON the script rewrites the checked-in copy instead (the
# regen-golden target does that for every shipped scenario). Every error
# message starts with "check_scenario_output:", so a ctest that also sets
# PASS_REGULAR_EXPRESSION can fail on that prefix despite the echo below.
#
#   cmake -DTPPSCENARIO=<binary> -DSCENARIO=<file.scn> -DEXPECTED=<file.out>
#         [-DREGEN=ON] -P check_scenario_output.cmake
cmake_minimum_required(VERSION 3.16)
foreach(var TPPSCENARIO SCENARIO EXPECTED)
  if(NOT ${var})
    message(FATAL_ERROR "check_scenario_output: -D${var}=... is required")
  endif()
endforeach()
execute_process(COMMAND "${TPPSCENARIO}" "${SCENARIO}"
                OUTPUT_VARIABLE produced RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_scenario_output: ${TPPSCENARIO} ${SCENARIO} "
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
