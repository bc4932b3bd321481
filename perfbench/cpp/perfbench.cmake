# The perfbench binary: one program running every benchmark workload.
# Included (deferred) into the root directory by ../cmake/hook.cmake,
# after the root CMakeLists.txt has defined the program's libraries.
# bsmp_tables carries the rest of the program (engine, sim, sep, geom,
# workload, core) as transitive dependencies.
add_executable(perfbench
  "${CMAKE_CURRENT_LIST_DIR}/main.cpp"
  "${CMAKE_CURRENT_LIST_DIR}/repro.cpp"
  "${CMAKE_CURRENT_LIST_DIR}/report.cpp"
  "${CMAKE_CURRENT_LIST_DIR}/sims.cpp"
  "${CMAKE_CURRENT_LIST_DIR}/spans.cpp")
target_link_libraries(perfbench PRIVATE bsmp_tables perfbench_ref)
target_compile_options(perfbench PRIVATE -Wall -Wextra -Wshadow)

# The reference kernel (ref.hpp) is the yardstick of the host's speed, so
# it takes none of the program's usage requirements and pins its own
# optimization level (the last -O on the command line wins).
add_library(perfbench_ref STATIC "${CMAKE_CURRENT_LIST_DIR}/ref.cpp")
target_compile_options(perfbench_ref PRIVATE -O2 -Wall -Wextra)
