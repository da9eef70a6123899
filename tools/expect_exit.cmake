# Runs `${BIN} ${ARG}` and fails unless it exits with ${EXIT_CODE} and
# prints "usage:" on ${STREAM} (stdout or stderr). Used by the tfmae_serve
# flag-parsing ctest cases:
#   cmake -DBIN=... -DARG=--help -DEXIT_CODE=0 -DSTREAM=stdout -P expect_exit.cmake
execute_process(COMMAND ${BIN} ${ARG}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr
                TIMEOUT 60)
if(NOT code STREQUAL EXIT_CODE)
  message(FATAL_ERROR "'${ARG}' exited ${code}, expected ${EXIT_CODE}\n"
                      "stdout:\n${stdout}\nstderr:\n${stderr}")
endif()
if(NOT ${STREAM} MATCHES "usage:")
  message(FATAL_ERROR "'${ARG}' printed no usage on ${STREAM}\n"
                      "stdout:\n${stdout}\nstderr:\n${stderr}")
endif()
