#include "analyze/capture.hpp"

#include "analyze/recorder.hpp"

namespace ms::analyze {

std::unique_ptr<rt::Observer> Capture::make_observer(const sim::SimConfig& cfg) {
  return std::make_unique<Recorder>(cfg, *this);
}

void Capture::add(const Analysis& analysis, const GraphRecord& record) {
  merged_.nodes_analyzed += analysis.nodes_analyzed;
  if (analysis.clean()) return;
  merged_.hazards.insert(merged_.hazards.end(), analysis.hazards.begin(),
                         analysis.hazards.end());
  racy_ = record;  // copy: the caller resets its segment afterwards
}

}  // namespace ms::analyze
