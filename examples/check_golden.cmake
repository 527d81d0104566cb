# Run one command with `--json <fresh report>` appended and require the report
# to match a committed report byte for byte. Invoked by ctest (see
# CMakeLists.txt here):
#
#   cmake -DCOMMAND=<binary> [-DARGS=<arg;arg...>] -DOUT=<fresh.json>
#         -DCOMMITTED=<BENCH_*.json> -P check_golden.cmake
execute_process(COMMAND ${COMMAND} ${ARGS} --json ${OUT} RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} ${ARGS} failed (${rc})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${COMMITTED}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${COMMITTED}")
endif()
