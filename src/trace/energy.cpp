#include "trace/energy.hpp"

#include <algorithm>
#include <map>
#include <ostream>

namespace ms::trace {

EnergyReport measure_energy(const Timeline& timeline, const sim::CoprocessorSpec& device,
                            const PowerSpec& power) {
  EnergyReport r;
  if (timeline.empty()) return r;

  r.elapsed_ms = (timeline.last_end() - timeline.first_start()).millis();
  r.idle_j = power.idle_w * r.elapsed_ms * 1e-3;

  // Kernel spans carry their partition index but not the partition width;
  // derive each device's partition count from the highest index seen.
  std::map<int, int> partitions_per_device;
  for (const Span& s : timeline.spans()) {
    if (s.kind == SpanKind::Kernel) {
      auto& count = partitions_per_device[s.device];
      count = std::max(count, s.partition + 1);
    }
  }

  for (const Span& s : timeline.spans()) {
    const double sec = s.duration().seconds();
    switch (s.kind) {
      case SpanKind::Kernel: {
        const int parts = std::max(1, partitions_per_device[s.device]);
        const double cores = static_cast<double>(device.usable_cores()) / parts;
        r.compute_j += power.core_active_w * cores * sec;
        break;
      }
      case SpanKind::H2D:
      case SpanKind::D2H:
        r.link_j += power.link_active_w * sec;
        break;
      case SpanKind::Sync:
        break;
    }
  }
  return r;
}

void print(std::ostream& os, const EnergyReport& r) {
  const double mean_w = r.elapsed_ms > 0.0 ? r.total_j() / (r.elapsed_ms * 1e-3) : 0.0;
  os << "energy " << r.total_j() << " J over " << r.elapsed_ms << " ms (mean " << mean_w
     << " W) | idle " << r.idle_j << " J, compute " << r.compute_j << " J, link " << r.link_j
     << " J\n";
}

}  // namespace ms::trace
