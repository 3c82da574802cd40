# Report-sink failure check, invoked by ctest as
#   cmake -DBIN=<bench binary> -DSINK=<unwritable path> \
#         -P report_sink_fails.cmake
#
# Runs the driver with RAPID_REPORT_JSON pointing at a file it cannot
# create. It must exit nonzero and name the path on stderr: a record
# the sink cannot append is never dropped silently.

foreach(var BIN SINK)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "report_sink_fails.cmake: missing -D${var}=...")
    endif()
endforeach()

set(ENV{RAPID_REPORT_JSON} ${SINK})
execute_process(
    COMMAND ${BIN} --threads 1
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE run_rc)
if(run_rc EQUAL 0)
    message(FATAL_ERROR
        "${BIN} exited 0 although RAPID_REPORT_JSON=${SINK} is unwritable")
endif()
string(FIND "${err}" "${SINK}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${BIN} failed without naming ${SINK}:\n${err}")
endif()
