# Injected into the repository's own CMake configure by perfbench/run.py
# (-DCMAKE_PROJECT_bsmp_INCLUDE=<this file>), so the perfbench binary is
# built against the program exactly as the root CMakeLists.txt defines
# it: the same options, compile definitions and library targets. The
# root file is only read, never edited. The deferred include defines
# the perfbench target once the root directory has defined every library.
set(PERFBENCH_CMAKE "${CMAKE_CURRENT_LIST_DIR}/../cpp/perfbench.cmake")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL include "${PERFBENCH_CMAKE}")
