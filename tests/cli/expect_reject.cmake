# Run CLI (mstream_cli or a bench binary) with ARGS and require a non-zero
# exit plus a stderr line matching the regex EXPECT. Invoked by ctest as:
#   cmake -DCLI=<binary> -DARGS=<;-list> -DEXPECT=<regex> -P expect_reject.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "${CLI} ${ARGS}: exited 0, expected a rejection\n${out}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${CLI} ${ARGS}: exit ${rc} without '${EXPECT}' on stderr\n${err}")
endif()
