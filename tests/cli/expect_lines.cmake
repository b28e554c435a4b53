# Run CLI with ARGS, require exit 0 and stdout to hold exactly the entries
# of the ;-list LINES, one per line and in order. Invoked by ctest as:
#   cmake -DCLI=<binary> -DARGS=<;-list> -DLINES=<;-list> -P expect_lines.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CLI} ${ARGS}: exit ${rc}\n${err}")
endif()
string(REPLACE ";" "\n" want "${LINES}")
if(NOT out STREQUAL "${want}\n")
  message(FATAL_ERROR "${CLI} ${ARGS}: stdout differs\n--- stdout\n${out}--- expected\n${want}\n")
endif()
