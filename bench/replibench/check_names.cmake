# Fails when `replibench --list` and BENCHMARK.json disagree: every
# workload and every metric (with its unit) the binary prints must be in
# the manifest, and every manifest entry must be printed. Invoked by the
# replibench_names ctest:
#   cmake -DBIN=<replibench> -DMANIFEST=<BENCHMARK.json> -P check_names.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
execute_process(COMMAND ${BIN} --list
                OUTPUT_VARIABLE listing
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --list failed (rc=${rc})")
endif()
string(REPLACE "\n" ";" printed "${listing}")
list(REMOVE_ITEM printed "")

file(READ ${MANIFEST} manifest)
set(declared "")
foreach(section workloads end_to_end per_layer)
  string(JSON count LENGTH "${manifest}" ${section})
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON name GET "${manifest}" ${section} ${i} name)
    if(section STREQUAL "workloads")
      list(APPEND declared "workload ${name}")
    else()
      string(JSON unit GET "${manifest}" ${section} ${i} unit)
      list(APPEND declared "${section} ${name} ${unit}")
    endif()
  endforeach()
endforeach()

set(only_printed ${printed})
list(REMOVE_ITEM only_printed ${declared})
set(only_declared ${declared})
list(REMOVE_ITEM only_declared ${printed})
if(only_printed OR only_declared)
  list(JOIN only_printed "\n  " a)
  list(JOIN only_declared "\n  " b)
  message(FATAL_ERROR "replibench and ${MANIFEST} drifted apart.\n"
          "Printed by the binary, missing from the manifest:\n  ${a}\n"
          "In the manifest, not printed by the binary:\n  ${b}")
endif()
