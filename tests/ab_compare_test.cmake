# Runs `bench/ab.py compare FILE` and checks its exit code, and that its
# report matches MATCH when one is given:
#   cmake -DPYTHON=python3 -DAB=bench/ab.py -DFILE=runs.jsonl -DRC=1
#         [-DMATCH=regex] -P tests/ab_compare_test.cmake
execute_process(COMMAND ${PYTHON} ${AB} compare ${FILE}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL RC)
  message(FATAL_ERROR "ab.py compare exited ${rc}, expected ${RC}")
endif()
if(MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "the report does not match '${MATCH}'")
endif()
