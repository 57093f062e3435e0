# Fails if a gtest binary's test list is not the same from one run to the
# next, or if any listed name embeds a pointer or raw object bytes (gtest's
# fallback printer for parameters without a PrintTo). gtest_discover_tests
# copies that text into the ctest names, so either would make the names of
# one build differ from another's.
#
# Raw bytes are stable when the object is a plain enum (no pointer, no
# padding). Tests matching RAW_BYTES_OK (a gtest filter, passed with -D)
# print such enums and keep those names, so the ctest names of earlier
# builds still match; they are still listed twice and compared.
#
#   cmake [-DRAW_BYTES_OK=<pattern:...>] -P check_test_names.cmake <binary>...
cmake_minimum_required(VERSION 3.16)
set(first_binary 1)
while(CMAKE_ARGV${first_binary} MATCHES "^-D")
  math(EXPR first_binary "${first_binary} + 1")
endwhile()
math(EXPR first_binary "${first_binary} + 2")  # skip "-P <script>"
math(EXPR last "${CMAKE_ARGC} - 1")
set(exclude "")
if(RAW_BYTES_OK)
  set(exclude "--gtest_filter=-${RAW_BYTES_OK}")
endif()
foreach(i RANGE ${first_binary} ${last})
  set(binary "${CMAKE_ARGV${i}}")
  foreach(run first second checked)
    set(filter "")
    if(run STREQUAL "checked")
      set(filter "${exclude}")
    endif()
    execute_process(COMMAND "${binary}" --gtest_list_tests ${filter}
                    OUTPUT_VARIABLE ${run} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${binary} --gtest_list_tests exited with ${rc}")
    endif()
  endforeach()
  if(NOT first STREQUAL second)
    message(FATAL_ERROR "${binary}: two test listings differ")
  endif()
  string(REGEX MATCHALL "[^\n]*(pointing to|-byte object)[^\n]*" unstable
         "${checked}")
  if(unstable)
    list(JOIN unstable "\n" lines)
    message(FATAL_ERROR "${binary}: names print raw parameter bytes:\n${lines}")
  endif()
endforeach()
