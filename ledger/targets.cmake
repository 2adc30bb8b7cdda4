# The layer ledger's own target (see hook.cmake for how it is included).
add_executable(ledger_layers ${TG_LEDGER_DIR}/layers.cc)
target_link_libraries(ledger_layers PRIVATE trilliong)
