# Runs joinpath with corrupted server results and asserts that the result
# check fails the run: non-zero exit and "correct": false on the last line.
execute_process(
  COMMAND ${BIN} --workload uniform_rent --seed 7 --seconds 1 --trace 0
          --inject-wrong-result 3
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "joinpath exited 0 despite wrong results:\n${out}")
endif()
if(NOT out MATCHES "\"correct\": false, \"attempted\": [0-9]+, \"failed\": [1-9]")
  message(FATAL_ERROR "joinpath did not report the mismatch:\n${out}")
endif()
message(STATUS "wrong results caught (exit ${rc})")
