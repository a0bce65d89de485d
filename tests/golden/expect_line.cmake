# Runs one command and passes only if it exits 0 and prints LINE as a whole
# line of its stdout. Used by the golden result pins in tests/CMakeLists.txt:
#   cmake -DCOMMAND=<exe;args...> -DLINE=<text> -P expect_line.cmake
execute_process(COMMAND ${COMMAND}
                OUTPUT_VARIABLE output
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${status}\n${errors}")
endif()
string(REPLACE "\n" ";" lines "${output}")
list(FIND lines "${LINE}" found)
if(found EQUAL -1)
  message(FATAL_ERROR "expected the line '${LINE}'; got:\n${output}")
endif()
