# Checks the build identity script (src/sim/build_id.cmake) on a scratch
# copy of a small source tree: the same tree and toolchain give the same
# identity, and editing, adding or renaming a file, or changing the
# toolchain, each give a new one.
#
#   cmake -DSCRIPT=<build_id.cmake> -DFIXTURE=<dir> -DWORK=<scratch dir>
#         -P build_id_test.cmake
set(tree "${WORK}/tree")
set(toolchain "GNU 12 -O2 RelWithDebInfo")

function(identity out_var)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" "-DSRC_DIR=${tree}" "-DTOOLCHAIN=${toolchain}"
            "-DOUT=${WORK}/build_id.cpp" -P "${SCRIPT}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "build_id.cmake failed (${rc})")
  endif()
  file(READ "${WORK}/build_id.cpp" text)
  if(NOT text MATCHES "kBuildId\\[\\] = \"([0-9a-f]+)\"")
    message(FATAL_ERROR "no identity in the generated file:\n${text}")
  endif()
  string(LENGTH "${CMAKE_MATCH_1}" len)
  if(NOT len EQUAL 64)
    message(FATAL_ERROR "identity is not a SHA-256: ${CMAKE_MATCH_1}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

function(expect_new what id)
  if(id STREQUAL base)
    message(FATAL_ERROR "${what} kept the identity ${base}")
  endif()
endfunction()

function(expect_base what id)
  if(NOT id STREQUAL base)
    message(FATAL_ERROR "${what}: ${id}, expected ${base}")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK}")
file(COPY "${FIXTURE}/" DESTINATION "${tree}")
file(GLOB_RECURSE files "${tree}/*")
list(SORT files)
list(GET files 0 victim)

identity(base)
identity(id)
expect_base("a rerun on the same tree" "${id}")

file(READ "${victim}" original)
file(APPEND "${victim}" "// edit\n")
identity(id)
expect_new("editing a file" "${id}")
file(WRITE "${victim}" "${original}")
identity(id)
expect_base("reverting the edit" "${id}")

file(WRITE "${tree}/added.hpp" "#pragma once\n")
identity(id)
expect_new("adding a file" "${id}")
file(REMOVE "${tree}/added.hpp")
identity(id)
expect_base("removing the added file" "${id}")

file(RENAME "${victim}" "${victim}.renamed")
identity(id)
expect_new("renaming a file" "${id}")
file(RENAME "${victim}.renamed" "${victim}")

set(toolchain "GNU 12 -O3 Release")
identity(id)
expect_new("changing the toolchain" "${id}")

file(REMOVE_RECURSE "${WORK}")
