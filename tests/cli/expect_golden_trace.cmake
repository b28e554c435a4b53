# Run CLI with ARGS (a run that writes its document to stdout), require exit
# 0, and require stdout, less any wall-clock host events of a trace (the
# `"pid":1000` lines, which differ run to run), to equal GOLDEN line for line.
# Invoked by ctest as:
#   cmake -DCLI=<binary> -DARGS=<;-list> -DGOLDEN=<file> -P expect_golden_trace.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CLI} ${ARGS}: exit ${rc}\n${err}")
endif()
string(REGEX REPLACE "[^\n]*\"pid\":1000[^\n]*\n" "" got "${out}")
file(READ "${GOLDEN}" want)
if(got STREQUAL want)
  return()
endif()
# Name the first line that differs. Walk both texts by newline: a CMake list
# would split inside the JSON's brackets.
set(line 1)
set(g 0)
set(w 0)
while(g GREATER -1 AND w GREATER -1)
  string(FIND "${got}" "\n" g)
  string(FIND "${want}" "\n" w)
  if(g EQUAL -1 OR w EQUAL -1)
    break()
  endif()
  string(SUBSTRING "${got}" 0 ${g} got_line)
  string(SUBSTRING "${want}" 0 ${w} want_line)
  if(NOT got_line STREQUAL want_line)
    break()
  endif()
  math(EXPR g "${g} + 1")
  math(EXPR w "${w} + 1")
  string(SUBSTRING "${got}" ${g} -1 got)
  string(SUBSTRING "${want}" ${w} -1 want)
  math(EXPR line "${line} + 1")
endwhile()
if(g EQUAL -1)
  set(got_line "${got}")
else()
  string(SUBSTRING "${got}" 0 ${g} got_line)
endif()
if(w EQUAL -1)
  set(want_line "${want}")
else()
  string(SUBSTRING "${want}" 0 ${w} want_line)
endif()
message(FATAL_ERROR "${CLI} ${ARGS}: stdout differs from ${GOLDEN} at line ${line}\n"
                    "--- got\n${got_line}\n--- golden\n${want_line}\n")
