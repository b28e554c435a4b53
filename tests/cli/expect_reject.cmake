# Run CLI with ARGS and require a non-zero exit plus "bad value for FLAG" on
# stderr. Invoked by ctest as:
#   cmake -DCLI=<mstream_cli> -DARGS=<;-list> -DFLAG=--name -P expect_reject.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "mstream_cli ${ARGS}: exited 0, expected a rejection\n${out}")
endif()
if(NOT err MATCHES "bad value for ${FLAG}")
  message(FATAL_ERROR "mstream_cli ${ARGS}: exit ${rc} without 'bad value for ${FLAG}'\n${err}")
endif()
