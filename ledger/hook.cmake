# Injected into the repository's own CMake project by ledger/run.py
# (-DCMAKE_PROJECT_trilliong_INCLUDE=<this file>), so the per-layer replay
# program is compiled with exactly the flags, definitions and library the
# program gets.
# The include is deferred to the end of the top-level directory, after every
# add_compile_options() and the trilliong target exist.
set(TG_LEDGER_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${TG_LEDGER_DIR}/targets.cmake")
