# Bench-report assembly check, invoked by ctest as
#   cmake -DPYTHON=<python3> -DASSEMBLE=<scripts/assemble.py> \
#         -DBENCH_DIR=<dir of the bench drivers> -DOUT=<output dir> \
#         -P assemble_bench_reports.cmake
#
# Runs every driver that feeds a bench report into one fresh
# RAPID_REPORT_JSON log under OUT, then assembles the log into
# OUT/BENCH_<report>.json. The assembler hard-fails on a missing
# report or section, an open ledger or a headline that does not hold,
# so a drift between an emitter and its schema fails here on real
# records, not only on the assembler's fixtures.

foreach(var PYTHON ASSEMBLE BENCH_DIR OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR
            "assemble_bench_reports.cmake: missing -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
set(log ${OUT}/report_raw.jsonl)
set(ENV{RAPID_REPORT_JSON} ${log})

foreach(bench serve_sweep resilience_sweep cluster_sweep llm_sweep
        overload_sweep)
    execute_process(
        COMMAND ${BENCH_DIR}/${bench} --threads 4
        OUTPUT_QUIET
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${bench} failed (${rc})")
    endif()
endforeach()

execute_process(
    COMMAND ${PYTHON} ${ASSEMBLE} ${log} ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "assemble.py rejected ${log} (${rc})")
endif()
