// util/build_info.h — compile-time identity of this binary: git describe,
// compiler, flags, build type, and the SIMD configuration. The values come
// from a CMake-generated header (build_info_generated.h); a build without it
// degrades to "unknown" placeholders. Surfaced as the `build.*` meta keys of
// every RunReport and as the admin server's /buildz endpoint, so profiles and
// bench baselines are attributable to an exact binary.
#ifndef TRILLIONG_UTIL_BUILD_INFO_H_
#define TRILLIONG_UTIL_BUILD_INFO_H_

#include <map>
#include <string>

namespace tg::util {

/// Stable map of `build.*` keys (build.git, build.compiler, build.flags,
/// build.type, build.simd, build.cxx_standard). Computed once; the reference
/// stays valid for the process lifetime.
const std::map<std::string, std::string>& BuildInfoMap();

/// The same data as a single JSON object (one key per `build.*` entry,
/// prefix stripped), newline-terminated — the /buildz response body.
std::string BuildInfoJson(
    const std::map<std::string, std::string>& info = BuildInfoMap());

}  // namespace tg::util

#endif  // TRILLIONG_UTIL_BUILD_INFO_H_
