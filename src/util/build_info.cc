#include "util/build_info.h"

#if defined(__has_include)
#if __has_include("util/build_info_generated.h")
#include "util/build_info_generated.h"
#endif
#endif

#include "util/json.h"

// Placeholders for builds that bypass CMake (the generated header carries
// the real values).
#ifndef TG_BUILD_GIT_DESCRIBE
#define TG_BUILD_GIT_DESCRIBE "unknown"
#endif
#ifndef TG_BUILD_TYPE
#define TG_BUILD_TYPE "unknown"
#endif
#ifndef TG_BUILD_CXX_FLAGS
#define TG_BUILD_CXX_FLAGS ""
#endif
#ifndef TG_BUILD_COMPILER
#define TG_BUILD_COMPILER "unknown"
#endif

namespace tg::util {

namespace {

std::map<std::string, std::string> MakeBuildInfo() {
  std::map<std::string, std::string> info;
  info["build.git"] = TG_BUILD_GIT_DESCRIBE;
  info["build.type"] = TG_BUILD_TYPE;
  info["build.compiler"] = TG_BUILD_COMPILER;
  info["build.flags"] = TG_BUILD_CXX_FLAGS;
  info["build.cxx_standard"] = std::to_string(__cplusplus / 100 % 100);
  return info;
}

}  // namespace

const std::map<std::string, std::string>& BuildInfoMap() {
  static const std::map<std::string, std::string>* info =
      new std::map<std::string, std::string>(MakeBuildInfo());  // leaked
  return *info;
}

std::string BuildInfoJson(const std::map<std::string, std::string>& info) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : info) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    // Strip the "build." prefix: the endpoint is already scoped.
    json::AppendString(key.rfind("build.", 0) == 0 ? key.substr(6) : key,
                       &out);
    out += ": ";
    json::AppendString(value, &out);
  }
  out += "\n}\n";
  return out;
}

}  // namespace tg::util
