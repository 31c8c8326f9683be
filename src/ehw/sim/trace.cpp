#include "ehw/sim/trace.hpp"

#include <algorithm>
#include <ostream>

namespace ehw::sim {

void Trace::record(ResourceId resource, std::string_view label,
                   Interval span) {
  if (!enabled_) return;
  events_.push_back(TraceEvent{resource, std::string(label), span});
}

void Trace::render_gantt(std::ostream& os, const Timeline& timeline,
                         int columns) const {
  if (events_.empty()) {
    os << "(trace empty)\n";
    return;
  }
  SimTime t0 = events_.front().span.start;
  SimTime t1 = events_.front().span.end;
  for (const auto& e : events_) {
    t0 = std::min(t0, e.span.start);
    t1 = std::max(t1, e.span.end);
  }
  const double span = std::max<double>(1.0, static_cast<double>(t1 - t0));
  const auto col = [&](SimTime t) {
    return static_cast<int>(static_cast<double>(t - t0) / span *
                            (columns - 1));
  };

  for (ResourceId r = 0; r < timeline.resource_count(); ++r) {
    std::string lane(static_cast<std::size_t>(columns), '.');
    for (const auto& e : events_) {
      if (e.resource != r) continue;
      const int a = col(e.span.start);
      const int b = std::max(a, col(e.span.end) - 1);
      for (int c = a; c <= b && c < columns; ++c) {
        lane[static_cast<std::size_t>(c)] = '#';
      }
      // Overlay as much of the label as fits.
      for (std::size_t i = 0; i < e.label.size(); ++i) {
        const auto c = static_cast<std::size_t>(a) + i;
        if (c < lane.size() && static_cast<int>(c) <= b) lane[c] = e.label[i];
      }
    }
    os << std::string(14 - std::min<std::size_t>(14, timeline.resource_name(r).size()), ' ')
       << timeline.resource_name(r).substr(0, 14) << " |" << lane << "|\n";
  }
  os << "  (time axis: " << to_microseconds(t1 - t0) << " us total)\n";
}

}  // namespace ehw::sim
