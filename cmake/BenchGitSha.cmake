# Script mode (cmake -P): stamps the source tree's commit into a generated
# header for the bench drivers' BENCH_*.json provenance (bench_common.hpp).
# Runs on every build, so a build directory configured at an older commit
# still reports the commit it builds; the header is rewritten only when its
# content changes, so an unchanged commit recompiles nothing.
#
# Inputs: SOURCE_DIR (the checkout), OUTPUT (the header path), and
# GIT_EXECUTABLE (may be empty). The SHA is "unavailable" outside a git
# checkout and carries a "-dirty" suffix when tracked files differ from HEAD.

set(sha "unavailable")
if(GIT_EXECUTABLE)
  execute_process(COMMAND ${GIT_EXECUTABLE} rev-parse HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE head RESULT_VARIABLE head_rc
    OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
  if(head_rc EQUAL 0)
    set(sha ${head})
    execute_process(COMMAND ${GIT_EXECUTABLE} diff --quiet HEAD --
      WORKING_DIRECTORY ${SOURCE_DIR}
      RESULT_VARIABLE dirty ERROR_QUIET)
    if(NOT dirty EQUAL 0)
      string(APPEND sha "-dirty")
    endif()
  endif()
endif()

set(content "// Generated by cmake/BenchGitSha.cmake; do not edit.\n")
string(APPEND content "#define NFACOUNT_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUTPUT} "${content}")
endif()
