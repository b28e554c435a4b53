# Run CLI (mstream_cli) with ARGS, require exit code EXPECT_RC (default 0),
# and require stdout to hold one document of FORMAT and nothing else; the
# human-readable lines belong on stderr.
#   json        one JSON object
#   prometheus  Prometheus text: every line is a '#' comment or a sample
#   dot         one Graphviz digraph
# Invoked by ctest as:
#   cmake -DCLI=<binary> -DARGS=<;-list> -DFORMAT=<format> [-DEXPECT_RC=<n>]
#         -P expect_stdout_document.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "${CLI} ${ARGS}: exit ${rc}, expected ${EXPECT_RC}\n${err}")
endif()

if(FORMAT STREQUAL "json")
  # string(JSON) ignores what follows the document, so the closing brace
  # must also be the last thing on stdout.
  string(JSON type ERROR_VARIABLE why TYPE "${out}")
  if(why OR NOT type STREQUAL "OBJECT" OR NOT out MATCHES "}[ \t\n]*$")
    message(FATAL_ERROR "${CLI} ${ARGS}: stdout is not one JSON object (${why})\n${out}")
  endif()
elseif(FORMAT STREQUAL "prometheus")
  # Drop every comment line and every `name{labels} value` sample; only the
  # newlines may be left.
  set(rest "\n${out}")
  string(REGEX REPLACE "\n#[^\n]*" "" rest "${rest}")
  string(REGEX REPLACE
         "\n[a-zA-Z_:][a-zA-Z0-9_:]*({[^}\n]*})? ([-+]?[0-9.]+([eE][-+]?[0-9]+)?|[-+]?Inf|NaN)"
         "" rest "${rest}")
  if(NOT "\n${out}" MATCHES "\n[a-zA-Z_:]" OR NOT rest MATCHES "^\n*$")
    message(FATAL_ERROR "${CLI} ${ARGS}: stdout is not Prometheus text alone\n${out}")
  endif()
elseif(FORMAT STREQUAL "dot")
  if(NOT out MATCHES "^digraph [^\n]*{\n.*}\n$")
    message(FATAL_ERROR "${CLI} ${ARGS}: stdout is not one Graphviz digraph\n${out}")
  endif()
else()
  message(FATAL_ERROR "unknown FORMAT '${FORMAT}'")
endif()
