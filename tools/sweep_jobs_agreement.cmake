# Runner determinism: a drn_sim sweep's drn-sweep-v3 document is
# byte-identical at --jobs 1 and --jobs 4 (trials on one worker or fanned
# across four). Includes a jammer axis so the trial's extended gain matrix is
# covered.
#
#   cmake -DSIM=<drn_sim> -P sweep_jobs_agreement.cmake
set(spec --stations 12,300 --region 600,1500 --rate 50 --seeds 2
         --mac scheme,aloha --duration 0.3 --drain 5 --jammers 1
         --progress 0)
foreach(jobs 1 4)
  execute_process(COMMAND "${SIM}" ${spec} --jobs ${jobs}
                  OUTPUT_VARIABLE out_${jobs} RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "drn_sim --jobs ${jobs} exited with ${rc}")
  endif()
endforeach()
if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR "drn_sim sweep output differs between --jobs 1 and 4")
endif()
string(JSON trials LENGTH "${out_1}" trials)
message(STATUS "drn_sim --jobs 1 and 4 agree byte for byte (${trials} trials)")
