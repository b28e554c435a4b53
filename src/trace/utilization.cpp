#include "trace/utilization.hpp"

#include <ostream>

namespace ms::trace {

UtilizationReport summarize(const Timeline& timeline) {
  UtilizationReport r;
  if (timeline.empty()) return r;

  r.horizon_ms = (timeline.last_end() - timeline.first_start()).millis();
  for (const Span& s : timeline.spans()) {
    const double ms = s.duration().millis();
    switch (s.kind) {
      case SpanKind::H2D:
      case SpanKind::D2H:
        r.link_busy_ms += ms;
        break;
      case SpanKind::Kernel:
        r.kernel_busy_ms += ms;
        r.partition_busy_ms[{s.device, s.partition}] += ms;
        break;
      case SpanKind::Sync:
        break;
    }
  }
  if (r.horizon_ms > 0.0) {
    r.link_utilization = r.link_busy_ms / r.horizon_ms;
    double sum = 0.0;
    for (const auto& [key, busy] : r.partition_busy_ms) sum += busy / r.horizon_ms;
    if (!r.partition_busy_ms.empty()) {
      r.mean_partition_utilization = sum / static_cast<double>(r.partition_busy_ms.size());
    }
  }
  return r;
}

void print(std::ostream& os, const UtilizationReport& r) {
  os << "span " << r.horizon_ms << " ms | link busy " << r.link_busy_ms << " ms ("
     << static_cast<int>(r.link_utilization * 100.0) << "%) | kernels " << r.kernel_busy_ms
     << " ms over " << r.partition_busy_ms.size() << " partition(s), mean utilization "
     << static_cast<int>(r.mean_partition_utilization * 100.0) << "%"
     << (r.transfer_bound() ? "  [transfer-bound]" : "  [compute-bound]") << "\n";
  for (const auto& [key, busy] : r.partition_busy_ms) {
    os << "  dev" << key.first << ".p" << key.second << ": " << busy << " ms ("
       << (r.horizon_ms > 0.0 ? static_cast<int>(busy / r.horizon_ms * 100.0) : 0) << "%)\n";
  }
}

}  // namespace ms::trace
