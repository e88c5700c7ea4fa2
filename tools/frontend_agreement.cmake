# Front-end agreement: drn_sim given a drn_sweep trial's seed must reproduce
# that trial's outcome exactly, since both are front ends over runner::Trial.
# Runs a one-trial sweep, reads trials[0].seed, reruns it through drn_sim and
# compares the headline counters.
#
#   cmake -DSWEEP=<drn_sweep> -DSIM=<drn_sim> -DMAC=scheme|aloha|...
#         [-DSTATIONS=20 -DREGION=600] -P frontend_agreement.cmake
if(NOT DEFINED STATIONS)
  set(STATIONS 20)
endif()
if(NOT DEFINED REGION)
  set(REGION 600)
endif()
set(spec --stations ${STATIONS} --region ${REGION} --rate 50 --duration 0.5
         --drain 10 --mac ${MAC})
execute_process(COMMAND "${SWEEP}" ${spec} --seeds 1 --progress 0 --json -
                OUTPUT_VARIABLE sweep RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "drn_sweep exited with ${rc}")
endif()
string(JSON seed GET "${sweep}" trials 0 seed)
execute_process(COMMAND "${SIM}" ${spec} --seed ${seed} --json 1
                OUTPUT_VARIABLE sim RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "drn_sim exited with ${rc}")
endif()
foreach(key offered delivered hop_attempts type1_losses type2_losses
            type3_losses mac_drops mean_delay_s)
  string(JSON from_sweep GET "${sweep}" trials 0 ${key})
  string(JSON from_sim GET "${sim}" ${key})
  if(NOT from_sweep STREQUAL from_sim)
    message(FATAL_ERROR "seed ${seed} ${key}: drn_sweep ${from_sweep}, "
                        "drn_sim ${from_sim}")
  endif()
endforeach()
message(STATUS "drn_sim reproduces drn_sweep trial (seed ${seed}, ${MAC})")
