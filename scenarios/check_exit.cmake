# Exit-code gate: runs one command and fails unless it both exits with
# the expected code and prints (on stdout or stderr) a match of the
# expected regular expression. ctest's PASS_REGULAR_EXPRESSION alone
# ignores the exit status, so a gate built on it would still pass if the
# binary printed its message and exited 0.
#
#   cmake -DEXPECT_EXIT=<code> -DEXPECT_REGEX=<regex> \
#         -P check_exit.cmake -- <command> [<arg>...]
set(cmd)
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "check_exit.cmake: no command after --")
endif()
if(NOT DEFINED EXPECT_EXIT OR NOT DEFINED EXPECT_REGEX)
  message(FATAL_ERROR "check_exit.cmake needs -DEXPECT_EXIT and "
                      "-DEXPECT_REGEX")
endif()
list(JOIN cmd " " shown)
execute_process(
  COMMAND ${cmd}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
string(REGEX MATCH "${EXPECT_REGEX}" hit "${out}${err}")
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${shown} exited ${rc}, expected ${EXPECT_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(hit STREQUAL "")
  message(FATAL_ERROR "${shown} printed no match of '${EXPECT_REGEX}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
