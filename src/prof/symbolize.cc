#include "prof/symbolize.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#endif

namespace tg::prof {

namespace {

struct MapsEntry {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::string name;
};

/// Parses /proc/self/maps once into executable ranges. Good enough for the
/// fallback path: module+offset lets `addr2line`/`llvm-symbolizer` finish
/// the job offline when dladdr has no symbol (static functions, stripped
/// libraries).
std::vector<MapsEntry> LoadExecutableMaps() {
  std::vector<MapsEntry> entries;
  std::FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) return entries;
  char line[1024];
  while (std::fgets(line, sizeof(line), maps) != nullptr) {
    unsigned long long lo = 0;
    unsigned long long hi = 0;
    char perms[8] = {0};
    int path_offset = -1;
    if (std::sscanf(line, "%llx-%llx %7s %*s %*s %*s %n", &lo, &hi, perms,
                    &path_offset) < 3) {
      continue;
    }
    if (perms[2] != 'x') continue;
    MapsEntry entry;
    entry.lo = static_cast<std::uintptr_t>(lo);
    entry.hi = static_cast<std::uintptr_t>(hi);
    if (path_offset > 0) {
      std::string path(line + path_offset);
      while (!path.empty() && (path.back() == '\n' || path.back() == ' ')) {
        path.pop_back();
      }
      // Keep the basename only: full paths make folded lines unwieldy.
      const std::size_t slash = path.find_last_of('/');
      entry.name = slash == std::string::npos ? path : path.substr(slash + 1);
    }
    if (entry.name.empty()) entry.name = "anon";
    entries.push_back(std::move(entry));
  }
  std::fclose(maps);
  return entries;
}

std::string HexName(std::uintptr_t pc) {
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(pc));
  return buf;
}

/// `ns::Fn(int, char*) const` -> `ns::Fn`; `(anonymous namespace)` stays,
/// with its space made '_' like every other.
std::string TidyDemangled(std::string name) {
  for (std::size_t open = name.find('('); open != std::string::npos;
       open = name.find('(', open + 1)) {
    if (name.compare(open, 21, "(anonymous namespace)") != 0) {
      name.resize(open);
      break;
    }
  }
  for (char& c : name) {
    if (c == ' ') c = '_';
  }
  return name;
}

std::string ResolveUncached(std::uintptr_t pc) {
#if defined(__linux__)
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    int demangle_status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                          &demangle_status);
    if (demangle_status == 0 && demangled != nullptr) {
      std::string name = TidyDemangled(demangled);
      std::free(demangled);
      return name;
    }
    if (demangled != nullptr) std::free(demangled);
    return info.dli_sname;
  }
  static const std::vector<MapsEntry>* maps =
      new std::vector<MapsEntry>(LoadExecutableMaps());  // leaked
  for (const MapsEntry& entry : *maps) {
    if (pc >= entry.lo && pc < entry.hi) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "+0x%llx",
                    static_cast<unsigned long long>(pc - entry.lo));
      return entry.name + buf;
    }
  }
#endif
  return HexName(pc);
}

struct SymbolCache {
  std::mutex mu;
  std::map<std::uintptr_t, std::string> names;
};

SymbolCache& Cache() {
  static SymbolCache* cache = new SymbolCache();  // leaked
  return *cache;
}

}  // namespace

std::string SymbolizeFrame(std::uintptr_t pc, bool is_leaf) {
  // A non-leaf pc is a return address; step back one byte so a call that
  // ends its function doesn't get attributed to the *next* function.
  const std::uintptr_t lookup = (is_leaf || pc == 0) ? pc : pc - 1;
  SymbolCache& cache = Cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  auto it = cache.names.find(lookup);
  if (it != cache.names.end()) return it->second;
  std::string name = ResolveUncached(lookup);
  cache.names.emplace(lookup, name);
  return name;
}

void ClearSymbolCache() {
  SymbolCache& cache = Cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.names.clear();
}

}  // namespace tg::prof
