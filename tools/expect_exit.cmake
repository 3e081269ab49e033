# Run a command and require its exit status (and, optionally, text in
# its combined stdout + stderr):
#
#   cmake -DEXPECT_EXIT=2 [-DEXPECT_OUTPUT=<regex>] [-DSTDOUT_FILE=<file>]
#         -P expect_exit.cmake -- <command> [args...]
#
# With STDOUT_FILE the command's stdout goes to that file (/dev/full
# makes every write to it fail) and EXPECT_OUTPUT matches its stderr.
#
# Unlike WILL_FAIL, this tells a diagnosed rejection (exit 1 or 2)
# apart from a crash or an abort.
set(command "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_separator)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(seen_separator TRUE)
    endif()
endforeach()
if(NOT command)
    message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

if(DEFINED STDOUT_FILE)
    execute_process(COMMAND ${command}
                    RESULT_VARIABLE status
                    OUTPUT_FILE "${STDOUT_FILE}"
                    ERROR_VARIABLE out)
else()
    execute_process(COMMAND ${command}
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE out)
endif()
message("${out}")
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
    message(FATAL_ERROR "exit status ${status}, expected ${EXPECT_EXIT}")
endif()
if(NOT "${EXPECT_OUTPUT}" STREQUAL "" AND NOT out MATCHES "${EXPECT_OUTPUT}")
    message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()
