# ctest script: end-to-end check of sg_chaos's documented contract.
#
#  - `--smoke` with the wire protocol on matches the fault-free oracle
#    in every scenario (exit 0).
#  - `--smoke --inject-defect` (wire protocol off) fails, shrinks the
#    failing plan to a reproducer of at most 3 fault events, and writes
#    it as JSON (exit 1).
#  - `--replay <reproducer>` reproduces the recorded failure (exit 1).
#  - The --sdc, --gray and --serve-overload self-tests fail (exit 1)
#    and their reproducers replay to exit 1.
#  - Every mode's `--smoke` soak passes (exit 0) with byte-identical
#    stdout under SG_THREADS=1 and SG_THREADS=4.
#  - Usage errors, flags the mode does not take, numbers that do not
#    parse and malformed reproducers exit 2.
#
# Invoked as:
#   cmake -DTOOL=<sg_chaos binary> -DWORK=<scratch dir> -P this_file

if(NOT DEFINED TOOL OR NOT DEFINED WORK)
  message(FATAL_ERROR "TOOL and WORK must be defined")
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# 2: usage errors (unknown flag, flag missing its value, bogus replay).
foreach(args "--bogus" "--chaos-seed" "--replay;${WORK}/missing.json")
  execute_process(COMMAND "${TOOL}" ${args} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "sg_chaos ${args}: expected exit 2, got ${rc}\n${out}${err}")
  endif()
endforeach()

# 0: the protected smoke soak matches its oracle everywhere.
execute_process(COMMAND "${TOOL}" --smoke --out-dir "${WORK}/clean"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "sg_chaos --smoke: expected exit 0, got ${rc}\n${out}${err}")
endif()
file(GLOB stray "${WORK}/clean/chaos_repro_*.json")
if(stray)
  message(FATAL_ERROR "clean smoke soak wrote reproducers: ${stray}")
endif()

# 1: with the wire protocol disabled the same soak must catch the
# unprotected reducers and write a shrunk reproducer.
execute_process(COMMAND "${TOOL}" --smoke --inject-defect
                        --out-dir "${WORK}/defect"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "sg_chaos --smoke --inject-defect: expected exit 1, got ${rc}\n"
    "${out}${err}")
endif()
file(GLOB repros "${WORK}/defect/chaos_repro_*.json")
list(LENGTH repros n_repros)
if(n_repros EQUAL 0)
  message(FATAL_ERROR "defect soak failed but wrote no reproducer\n${out}")
endif()
list(GET repros 0 repro)

# The reproducer replays to the same failure, and the shrunk plan has at
# most 3 events (the replay banner prints the count).
execute_process(COMMAND "${TOOL}" --replay "${repro}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "sg_chaos --replay ${repro}: expected exit 1 (reproduced), got ${rc}\n"
    "${out}${err}")
endif()
if(NOT out MATCHES "reproduced:")
  message(FATAL_ERROR "replay did not report the failure:\n${out}")
endif()
if(NOT out MATCHES "plan events: [123]\n")
  message(FATAL_ERROR
    "shrunk reproducer should have <= 3 events:\n${out}")
endif()

# Replay twice: byte-determinism of the replay verdict.
execute_process(COMMAND "${TOOL}" --replay "${repro}"
                RESULT_VARIABLE rc2 OUTPUT_VARIABLE out2)
if(NOT out STREQUAL out2)
  message(FATAL_ERROR "replay output is not deterministic")
endif()

# The reproducer's recorded failure is the one its (shrunk) plan
# produces: the replay prints exactly `reproduced: <failure> (<detail>)`.
file(READ "${repro}" repro_json)
string(JSON repro_kind GET "${repro_json}" failure)
string(JSON repro_detail GET "${repro_json}" detail)
string(FIND "${out}" "reproduced: ${repro_kind} (${repro_detail})" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "replay detail differs from the reproducer's recorded "
    "'${repro_kind} (${repro_detail})':\n${out}")
endif()

# 0: the SDC soak (oracle / unaudited twin / audited kRepair triple)
# passes everywhere — no undetected wrong answers, bit-exact repairs,
# bounded detection lag.
execute_process(COMMAND "${TOOL}" --sdc --smoke --out-dir "${WORK}/sdc"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "sg_chaos --sdc --smoke: expected exit 0, got ${rc}\n${out}${err}")
endif()
file(GLOB stray "${WORK}/sdc/chaos_repro_*.json")
if(stray)
  message(FATAL_ERROR "clean sdc soak wrote reproducers: ${stray}")
endif()

# 1: with the auditor disabled (AuditMode::kOff) the same bit flips
# must ship a wrong answer the harness catches, and the shrunk
# sdc-tagged reproducer must replay to the same failure.
execute_process(COMMAND "${TOOL}" --sdc --smoke --inject-defect
                        --out-dir "${WORK}/sdc_defect"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "sg_chaos --sdc --smoke --inject-defect: expected exit 1, got ${rc}\n"
    "${out}${err}")
endif()
file(GLOB sdc_repros "${WORK}/sdc_defect/chaos_repro_sdc_*.json")
list(LENGTH sdc_repros n_sdc)
if(n_sdc EQUAL 0)
  message(FATAL_ERROR "sdc defect soak failed but wrote no reproducer\n${out}")
endif()
list(GET sdc_repros 0 sdc_repro)
execute_process(COMMAND "${TOOL}" --replay "${sdc_repro}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "sg_chaos --replay ${sdc_repro}: expected exit 1 (reproduced), got "
    "${rc}\n${out}${err}")
endif()
if(NOT out MATCHES "sdc triple")
  message(FATAL_ERROR "sdc replay did not run the audited triple:\n${out}")
endif()

# Runs sg_chaos with ARGN and fails unless it exits `expect`; the
# stdout lands in `outvar`.
function(chaos_expect expect outvar)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expect)
    string(JOIN " " cmd ${ARGN})
    message(FATAL_ERROR
      "${cmd}: expected exit ${expect}, got ${rc}\n${out}${err}")
  endif()
  set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

# The reproducers (not their _flight.json black boxes) in `dir`.
function(reproducers dir pattern outvar)
  file(GLOB found "${dir}/${pattern}")
  list(FILTER found EXCLUDE REGEX "_flight\\.json$")
  list(LENGTH found n)
  if(n EQUAL 0)
    message(FATAL_ERROR "no ${pattern} reproducer in ${dir}")
  endif()
  set(${outvar} "${found}" PARENT_SCOPE)
endfunction()

# 0, thread-count invariant: each mode's smoke soak passes and prints
# the same bytes whether the pool has 1 or 4 threads.
foreach(mode "" "--gray" "--sdc" "--serve" "--serve-overload")
  foreach(threads 1 4)
    chaos_expect(0 out${threads}
      ${CMAKE_COMMAND} -E env SG_THREADS=${threads}
      "${TOOL}" ${mode} --smoke --out-dir "${WORK}/threads${threads}")
  endforeach()
  if(NOT out1 STREQUAL out4)
    message(FATAL_ERROR "sg_chaos ${mode} --smoke stdout differs between "
      "SG_THREADS=1 and 4:\n${out1}\n---\n${out4}")
  endif()
endforeach()
file(GLOB stray "${WORK}/threads*/chaos_repro_*.json")
if(stray)
  message(FATAL_ERROR "clean smoke soaks wrote reproducers: ${stray}")
endif()

# 1: the gray self-test — an unattainable 99% recovery margin fails,
# and the gray reproducer (which carries its margin) replays to exit 1.
chaos_expect(1 out "${TOOL}" --gray --smoke --recovery-margin 0.99
  --out-dir "${WORK}/gray_margin")
reproducers("${WORK}/gray_margin" "chaos_repro_gray_*.json" gray_repros)
list(GET gray_repros 0 gray_repro)
chaos_expect(1 out "${TOOL}" --replay "${gray_repro}")
if(NOT out MATCHES "gray triple" OR NOT out MATCHES "reproduced: slo-recovery")
  message(FATAL_ERROR "gray replay did not reproduce slo-recovery:\n${out}")
endif()

# 1: the serve-overload self-test — the lifecycle defect trips the
# serve floor; the reproducer has a flight black box and replays to 1.
chaos_expect(1 out "${TOOL}" --serve-overload --smoke --inject-defect
  --out-dir "${WORK}/overload_defect")
reproducers("${WORK}/overload_defect" "chaos_repro_overload_*.json"
  ovl_repros)
list(GET ovl_repros 0 ovl_repro)
string(REGEX REPLACE "\\.json$" "_flight.json" ovl_flight "${ovl_repro}")
if(NOT EXISTS "${ovl_flight}")
  message(FATAL_ERROR "overload reproducer has no flight dump ${ovl_flight}")
endif()
chaos_expect(1 out "${TOOL}" --replay "${ovl_repro}")
if(NOT out MATCHES "serve-overload" OR
   NOT out MATCHES "reproduced: overload-serve-floor")
  message(FATAL_ERROR "overload replay did not reproduce:\n${out}")
endif()

# 2: flags the selected mode does not take, numbers that do not parse,
# and the removed --chaos-shrink.
foreach(args
    "--gray;--smoke;--inject-defect"
    "--serve;--smoke;--inject-defect"
    "--smoke;--recovery-margin;0.5"
    "--sdc;--smoke;--recovery-margin;0.5"
    "--smoke;--chaos-seed;abc"
    "--smoke;--seeds;2x"
    "--gray;--smoke;--recovery-margin;zz"
    "--smoke;--chaos-shrink")
  chaos_expect(2 out "${TOOL}" ${args} --out-dir "${WORK}/usage")
endforeach()

# 2: malformed reproducers are rejected with an error that names the
# offending key, instead of crashing or running a guessed scenario.
set(head "{\"sg_chaos_schema\":1,\"scenario\":{")
set(tail "\"plan\":{\"seed\":1,\"events\":[]}}")
set(b "\"benchmark\":\"bfs\"")
set(p "\"policy\":\"OEC\"")
set(m "\"exec_model\":\"Sync\"")
set(d "\"devices\":4")
set(json_nobench "${head}${p},${m},${d}},${tail}")
set(key_nobench "scenario.benchmark")
set(json_policy_type "${head}${b},\"policy\":7,${m},${d}},${tail}")
set(key_policy_type "scenario.policy")
set(json_nomodel "${head}${b},${p},${d}},${tail}")
set(key_nomodel "scenario.exec_model")
set(json_nodevices "${head}${b},${p},${m}},${tail}")
set(key_nodevices "scenario.devices")
set(json_fraction "${head}${b},${p},${m},\"devices\":4.7},${tail}")
set(key_fraction "scenario.devices")
set(json_two_tags "${head}${b},${p},${m},${d}},\"gray\":true,\"sdc\":true,${tail}")
set(key_two_tags "two mode tags")
foreach(bad nobench policy_type nomodel nodevices fraction two_tags)
  file(WRITE "${WORK}/bad_${bad}.json" "${json_${bad}}\n")
  execute_process(COMMAND "${TOOL}" --replay "${WORK}/bad_${bad}.json"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "${key_${bad}}" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR
      "sg_chaos --replay bad_${bad}.json: expected exit 2 naming "
      "${key_${bad}}, got ${rc}\n${out}${err}")
  endif()
endforeach()

message(STATUS "sg_chaos contract: all checks passed")
