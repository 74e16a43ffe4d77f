# Runs one deterministic paper bench and compares its standard output with a
# checked-in golden file. Usage (ctest passes these; the bench reads its
# scale from the MWEAVER_BENCH_* environment):
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DOUT=<file> -P check_golden.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}"
                        "${GOLDEN}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${OUT}")
  endif()
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
