#pragma once
// Event trace + ASCII Gantt renderer. Used by the Fig. 12 bench with
// --trace to reproduce the Figure 11 pipeline diagram (M/R/F boxes for one
// vs three arrays) from the actually scheduled intervals.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "ehw/sim/time.hpp"
#include "ehw/sim/timeline.hpp"

namespace ehw::sim {

struct TraceEvent {
  ResourceId resource = 0;
  std::string label;   // e.g. "R3" (reconfigure candidate 3), "F3" (evaluate)
  Interval span;
};

class Trace {
 public:
  /// Recording is off by default; benches switch it on for small runs only.
  void enable(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records one box; the label is copied only while recording is on, so
  /// disarmed call sites cost no allocation.
  void record(ResourceId resource, std::string_view label, Interval span);
  void clear() noexcept { events_.clear(); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }

  /// Renders one text lane per resource, proportional to simulated time.
  /// `columns` is the total character budget for the time axis.
  void render_gantt(std::ostream& os, const Timeline& timeline,
                    int columns = 100) const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace ehw::sim
