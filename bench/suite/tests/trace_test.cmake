# Runs a short traced queue_1k and checks that the trace file parses as
# Chrome trace-event JSON. Invoked by ctest with -DBENCH, -DPYTHON,
# -DCHECKER and -DDIR.
file(MAKE_DIRECTORY ${DIR})
execute_process(
  COMMAND ${BENCH} --workload=queue_1k --seed=3 --seconds=0.2
          --trace=${DIR}/trace.json --out=${DIR}/result.json
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "montage_bench --trace exited ${bench_rc}")
endif()
execute_process(COMMAND ${PYTHON} ${CHECKER} ${DIR}/trace.json ${DIR}/result.json
                RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "trace check failed")
endif()
