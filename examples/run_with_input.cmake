# Runs PROGRAM with its standard input read from INPUT, so a test of an
# interactive example never waits on the terminal or on an open pipe.
#
#   cmake -DPROGRAM=<binary> -DINPUT=<file> -P run_with_input.cmake
#
# The program's output passes through; a non-zero exit fails the script.
execute_process(COMMAND "${PROGRAM}" INPUT_FILE "${INPUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
