// prof/symbolize.h — lazy, cached symbolization for profiler frames.
// Resolution order: dladdr (needs -rdynamic so the dynamic symbol table
// covers the binary's own functions) with abi::__cxa_demangle, then a
// /proc/self/maps lookup rendering `module+0xoffset`, then bare hex.
// Symbolization happens at render time, never in the signal handler.
#ifndef TRILLIONG_PROF_SYMBOLIZE_H_
#define TRILLIONG_PROF_SYMBOLIZE_H_

#include <cstdint>
#include <string>

namespace tg::prof {

/// Returns a human-readable name for `pc`. Non-leaf frames hold *return*
/// addresses — the instruction after the call — so pass `is_leaf = false`
/// to symbolize `pc - 1` and land inside the calling function even when
/// the call is its final instruction. Results are cached per pc.
/// A demangled name is one token, as in stackcollapse-perf output: the
/// parameter list is dropped and any remaining space becomes '_', so a
/// folded line is `frame;frame;... <count>` with no other spaces.
std::string SymbolizeFrame(std::uintptr_t pc, bool is_leaf);

/// Drops the pc → name cache (tests use this to exercise cold lookups).
void ClearSymbolCache();

}  // namespace tg::prof

#endif  // TRILLIONG_PROF_SYMBOLIZE_H_
