#include "repro/figures.hpp"

#include <array>
#include <cmath>
#include <ostream>

#include "repro/figure_list.hpp"

namespace ms::repro {

void Sink::emit(const trace::Table& table, const std::string& name, const std::string& heading) {
  out << "\n== " << heading << " ==\n";
  table.print(out);
  tables_.emplace_back(name, table);
}

void Sink::write_json(std::ostream& os) const {
  os << "{\n";
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    os << "  \"" << tables_[i].first << "\": ";
    tables_[i].second.write_json(os);
    os << (i + 1 < tables_.size() ? ",\n" : "\n");
  }
  os << "}\n";
}

std::span<const Figure> figures() noexcept {
  static constexpr std::array kFigures{
      Figure{"fig05_transfer_overlap", fig05_transfer_overlap},
      Figure{"fig06_overlap_kernel", fig06_overlap_kernel},
      Figure{"fig07_spatial_sharing", fig07_spatial_sharing},
      Figure{"fig08_overall_comparison", fig08_overall_comparison},
      Figure{"fig09_partition_sweep", fig09_partition_sweep},
      Figure{"fig10_tile_sweep", fig10_tile_sweep},
      Figure{"fig11_multi_mic", fig11_multi_mic},
      Figure{"ablation_simconfig", ablation_simconfig},
      Figure{"ablation_tuner", ablation_tuner},
      Figure{"ablation_graph_replay", ablation_graph_replay},
      Figure{"model_accuracy", model_accuracy},
      Figure{"ml_tuner_eval", ml_tuner_eval},
      Figure{"futurework_async_kmeans", futurework_async_kmeans},
      Figure{"futurework_multi_mic_mm", futurework_multi_mic_mm},
      Figure{"generality_7120", generality_7120},
      Figure{"cf_vs_lu", cf_vs_lu},
  };
  return kFigures;
}

const Figure* find_figure(std::string_view name) noexcept {
  for (const Figure& figure : figures()) {
    if (figure.name == name) return &figure;
  }
  return nullptr;
}

std::string improvement_cell(double baseline, double streamed) {
  if (!(baseline > 0.0) || !std::isfinite(baseline) || !std::isfinite(streamed)) return "n/a";
  return trace::Table::num((baseline - streamed) / baseline * 100.0, 1) + "%";
}

}  // namespace ms::repro
