# Included by the root project() call (CMAKE_PROJECT_INCLUDE).
add_subdirectory("${CMAKE_CURRENT_LIST_DIR}" "${CMAKE_BINARY_DIR}/perfbench")
