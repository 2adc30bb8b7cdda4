#include "prof/folded.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/run_report.h"
#include "prof/symbolize.h"

namespace tg::prof {

namespace {

/// Frames kept per phase in the RunReport `prof` section.
constexpr std::size_t kTopFramesPerPhase = 20;

const char* PhaseName(const char* phase) {
  return (phase != nullptr && *phase != '\0') ? phase : "(idle)";
}

std::string StallFrame(const std::string& kind) {
  return "[stall:" + kind + "]";
}

/// Renders one stack as `phase;root;...;leaf` (pcs arrive leaf-first).
std::string FoldedLine(const ProfileSnapshot::Stack& stack) {
  std::string line = PhaseName(stack.phase);
  for (std::size_t i = stack.pcs.size(); i-- > 0;) {
    line += ';';
    line += SymbolizeFrame(stack.pcs[i], /*is_leaf=*/i == 0);
  }
  return line;
}

std::string JoinLines(const std::map<std::string, std::uint64_t>& lines) {
  std::string out;
  for (const auto& [line, count] : lines) {
    if (count == 0) continue;
    out += line;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

}  // namespace

std::string RenderFolded(const ProfileSnapshot& snapshot) {
  std::map<std::string, std::uint64_t> lines;  // lexically sorted
  for (const ProfileSnapshot::Stack& stack : snapshot.stacks) {
    lines[FoldedLine(stack)] += stack.count;
  }
  for (const ProfileSnapshot::Stall& stall : snapshot.stalls) {
    lines[std::string(PhaseName(stall.phase)) + ';' + StallFrame(stall.kind)] +=
        stall.count;
  }
  return JoinLines(lines);
}

std::string RenderFoldedDiff(const ProfileSnapshot& before,
                             const ProfileSnapshot& after) {
  // Stack ids are stable within one profiler session and counts are
  // cumulative, so the interval profile is a per-row subtraction.
  std::map<std::tuple<std::uint32_t, std::string, int, int>, std::uint64_t>
      stack_base;
  for (const ProfileSnapshot::Stack& stack : before.stacks) {
    stack_base[{stack.stack_id, PhaseName(stack.phase), stack.machine,
                stack.worker}] = stack.count;
  }
  std::map<std::tuple<std::string, std::string, int>, std::uint64_t>
      stall_base;
  for (const ProfileSnapshot::Stall& stall : before.stalls) {
    stall_base[{stall.kind, PhaseName(stall.phase), stall.machine}] =
        stall.count;
  }

  std::map<std::string, std::uint64_t> lines;
  for (const ProfileSnapshot::Stack& stack : after.stacks) {
    std::uint64_t base = 0;
    auto it = stack_base.find({stack.stack_id, PhaseName(stack.phase),
                               stack.machine, stack.worker});
    if (it != stack_base.end()) base = it->second;
    if (stack.count <= base) continue;
    lines[FoldedLine(stack)] += stack.count - base;
  }
  for (const ProfileSnapshot::Stall& stall : after.stalls) {
    std::uint64_t base = 0;
    auto it =
        stall_base.find({stall.kind, PhaseName(stall.phase), stall.machine});
    if (it != stall_base.end()) base = it->second;
    if (stall.count <= base) continue;
    lines[std::string(PhaseName(stall.phase)) + ';' + StallFrame(stall.kind)] +=
        stall.count - base;
  }
  return JoinLines(lines);
}

void ExportTo(const ProfileSnapshot& snapshot, obs::RunReport* report) {
  report->prof.emplace();
  obs::ProfSection& section = *report->prof;
  section.samples = snapshot.samples;
  section.dropped = snapshot.dropped;
  section.hz = snapshot.hz;

  // (phase, frame) -> {self, total}. `total` counts each sample once even
  // when recursion puts the frame on the stack multiple times.
  std::map<std::pair<std::string, std::string>,
           std::pair<std::uint64_t, std::uint64_t>>
      frames;
  for (const ProfileSnapshot::Stack& stack : snapshot.stacks) {
    const std::string phase = PhaseName(stack.phase);
    std::set<std::string> on_stack;
    for (std::size_t i = 0; i < stack.pcs.size(); ++i) {
      on_stack.insert(SymbolizeFrame(stack.pcs[i], /*is_leaf=*/i == 0));
    }
    if (!stack.pcs.empty()) {
      frames[{phase, SymbolizeFrame(stack.pcs[0], /*is_leaf=*/true)}].first +=
          stack.count;
    }
    for (const std::string& name : on_stack) {
      frames[{phase, name}].second += stack.count;
    }
  }
  for (const ProfileSnapshot::Stall& stall : snapshot.stalls) {
    auto& cell = frames[{PhaseName(stall.phase), StallFrame(stall.kind)}];
    cell.first += stall.count;
    cell.second += stall.count;
  }

  // Top frames per phase by total time, phases in lexical order.
  std::map<std::string, std::vector<obs::ProfFrameRow>> by_phase;
  for (const auto& [key, cell] : frames) {
    obs::ProfFrameRow row;
    row.phase = key.first;
    row.frame = key.second;
    row.self = cell.first;
    row.total = cell.second;
    by_phase[key.first].push_back(std::move(row));
  }
  for (auto& [phase, rows] : by_phase) {
    std::sort(rows.begin(), rows.end(),
              [](const obs::ProfFrameRow& a, const obs::ProfFrameRow& b) {
                if (a.total != b.total) return a.total > b.total;
                if (a.self != b.self) return a.self > b.self;
                return a.frame < b.frame;
              });
    if (rows.size() > kTopFramesPerPhase) rows.resize(kTopFramesPerPhase);
    for (obs::ProfFrameRow& row : rows) {
      section.frames.push_back(std::move(row));
    }
  }
}

}  // namespace tg::prof
