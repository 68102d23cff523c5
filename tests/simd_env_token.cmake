# Runs one manifest-writing binary under LVF2_SIMD=<TOKEN> and checks
# the tier it recorded. "scalar" must pin the scalar tier; every other
# token (auto, avx2, sse2, an unknown word, the empty string) must
# resolve to the best tier the binary and this CPU can run, and no
# token may make the run fail.
#
#   cmake -DBINARY=<exe> -DTOKEN=<token> -DMANIFEST=<file>
#         -DAVX2_BUILT=<bool> -P simd_env_token.cmake

# The expected best tier, from the build's compiler check and the CPU
# flags rather than from the dispatcher under test. Without
# /proc/cpuinfo, an LVF2_SIMD-free run of the binary stands in.
function(run_tier out)
  file(REMOVE "${MANIFEST}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${ARGN} LVF2_MANIFEST=${MANIFEST}
            ${BINARY}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} exited ${rc} (${ARGN}): ${err}")
  endif()
  file(READ "${MANIFEST}" doc)
  string(JSON tier GET "${doc}" config simd.tier)
  set(${out} "${tier}" PARENT_SCOPE)
endfunction()

if(NOT AVX2_BUILT)
  set(best scalar)
elseif(EXISTS /proc/cpuinfo)
  file(READ /proc/cpuinfo cpuinfo)
  set(best scalar)
  if(cpuinfo MATCHES "flags[^\n]* avx2[ \n]"
     AND cpuinfo MATCHES "flags[^\n]* fma[ \n]")
    set(best avx2)
  endif()
else()
  run_tier(best --unset=LVF2_SIMD)
endif()

if(TOKEN STREQUAL "scalar")
  set(expected scalar)
else()
  set(expected ${best})
endif()

run_tier(tier "LVF2_SIMD=${TOKEN}")
if(NOT tier STREQUAL expected)
  message(FATAL_ERROR
    "LVF2_SIMD='${TOKEN}' ran on simd.tier '${tier}', expected "
    "'${expected}'")
endif()
message(STATUS "LVF2_SIMD='${TOKEN}' -> ${tier}")
