# Run one command with `--json <fresh report>` appended and require the report
# to match a committed report byte for byte. Invoked by ctest (see
# CMakeLists.txt here):
#
#   cmake -DCOMMAND=<binary> [-DARGS=<arg;arg...>] -DOUT=<fresh.json>
#         -DCOMMITTED=<BENCH_*.json> -P check_golden.cmake
#
# On a mismatch it names the first line that differs, with that line of each
# file and the row it belongs to (the reports put one field per line).
execute_process(COMMAND ${COMMAND} ${ARGS} --json ${OUT} RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} ${ARGS} failed (${rc})")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${COMMITTED}
                RESULT_VARIABLE differs)
if(differs EQUAL 0)
  return()
endif()

# The line of `text` that starts at offset `start`, without its indent.
function(line_at text start out)
  string(SUBSTRING "${text}" ${start} -1 rest)
  string(FIND "${rest}" "\n" end)
  string(SUBSTRING "${rest}" 0 ${end} line)
  string(REGEX REPLACE "^[ ]+" "" line "${line}")
  set(${out} "${line}" PARENT_SCOPE)
endfunction()

# Row names hold ';' and JSON lines hold unbalanced '[' and ']', all of which
# CMake's list splitting would mangle, so the reports are compared as whole
# strings: a binary search finds the length of their common prefix (the
# first `lo` characters match, and no prefix longer than `hi` does).
file(READ ${OUT} fresh)
file(READ ${COMMITTED} committed)
string(LENGTH "${fresh}" fresh_len)
string(LENGTH "${committed}" committed_len)
set(lo 0)
if(fresh_len LESS committed_len)
  set(hi ${fresh_len})
else()
  set(hi ${committed_len})
endif()
while(lo LESS hi)
  math(EXPR mid "(${lo} + ${hi} + 1) / 2")
  string(SUBSTRING "${fresh}" 0 ${mid} a)
  string(SUBSTRING "${committed}" 0 ${mid} b)
  if(a STREQUAL b)
    set(lo ${mid})
  else()
    math(EXPR hi "${mid} - 1")
  endif()
endwhile()

string(SUBSTRING "${fresh}" 0 ${lo} prefix)
string(REGEX MATCHALL "\n" newlines "${prefix}")
list(LENGTH newlines line_no)
math(EXPR line_no "${line_no} + 1")
string(FIND "${prefix}" "\n" start REVERSE)
math(EXPR start "${start} + 1")
line_at("${fresh}" ${start} fresh_line)
line_at("${committed}" ${start} committed_line)
# The row: the last "name" field the files share before the difference.
set(row "")
string(FIND "${prefix}" "\"name\": \"" name_at REVERSE)
if(name_at GREATER -1)
  line_at("${committed}" ${name_at} name_line)
  string(REGEX MATCH "\"name\": \"([^\"]*)\"" name_field "${name_line}")
  set(row " (row ${CMAKE_MATCH_1})")
endif()
message(FATAL_ERROR "${OUT} differs from ${COMMITTED} at line ${line_no}${row}:\n"
                    "  fresh:     ${fresh_line}\n"
                    "  committed: ${committed_line}")
