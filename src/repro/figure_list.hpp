#pragma once

// Private to ms_repro: the figures figures() lists, and what their tables
// share.

#include <string>

#include "repro/figures.hpp"

namespace ms::repro {

/// A percentage-improvement cell: (baseline - streamed) / baseline, or
/// "n/a" when the baseline is not a positive finite time.
[[nodiscard]] std::string improvement_cell(double baseline, double streamed);

// The figures, one function each (paper_figures.cpp, ablations.cpp,
// extensions.cpp). figures() lists them under these names.
void fig05_transfer_overlap(Sink& sink);
void fig06_overlap_kernel(Sink& sink);
void fig07_spatial_sharing(Sink& sink);
void fig08_overall_comparison(Sink& sink);
void fig09_partition_sweep(Sink& sink);
void fig10_tile_sweep(Sink& sink);
void fig11_multi_mic(Sink& sink);
void ablation_simconfig(Sink& sink);
void ablation_tuner(Sink& sink);
void ablation_graph_replay(Sink& sink);
void model_accuracy(Sink& sink);
void ml_tuner_eval(Sink& sink);
void futurework_async_kmeans(Sink& sink);
void futurework_multi_mic_mm(Sink& sink);
void generality_7120(Sink& sink);
void cf_vs_lu(Sink& sink);

}  // namespace ms::repro
