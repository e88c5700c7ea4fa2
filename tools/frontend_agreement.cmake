# Front-end agreement: trial i of a drn_sim sweep is the one-trial run with
# --seed trials[i].seed, since both run runner::Trial over the same spec.
# Runs a two-seed sweep, reruns each of its trials on its own and compares
# the headline counters.
#
#   cmake -DSIM=<drn_sim> -DMAC=scheme|aloha|... [-DSTATIONS=20 -DREGION=600]
#         ["-DEXTRA=--flag;value;..."] -P frontend_agreement.cmake
if(NOT DEFINED STATIONS)
  set(STATIONS 20)
endif()
if(NOT DEFINED REGION)
  set(REGION 600)
endif()
set(spec --stations ${STATIONS} --region ${REGION} --rate 50 --duration 0.5
         --drain 10 --mac ${MAC} ${EXTRA})
execute_process(COMMAND "${SIM}" ${spec} --seeds 2 --progress 0
                OUTPUT_VARIABLE sweep RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "drn_sim sweep exited with ${rc}")
endif()
foreach(i 0 1)
  string(JSON seed GET "${sweep}" trials ${i} seed)
  execute_process(COMMAND "${SIM}" ${spec} --seed ${seed} --json 1
                  OUTPUT_VARIABLE sim RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "drn_sim --seed ${seed} exited with ${rc}")
  endif()
  foreach(key offered delivered hop_attempts type1_losses type2_losses
              type3_losses mac_drops mean_delay_s)
    string(JSON from_sweep GET "${sweep}" trials ${i} ${key})
    string(JSON from_sim GET "${sim}" ${key})
    if(NOT from_sweep STREQUAL from_sim)
      message(FATAL_ERROR "trial ${i} (seed ${seed}) ${key}: sweep "
                          "${from_sweep}, one-trial run ${from_sim}")
    endif()
  endforeach()
endforeach()
message(STATUS "one-trial runs reproduce both sweep trials (${MAC})")
