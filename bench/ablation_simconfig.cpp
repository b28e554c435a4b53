// Ablation bench for the design decisions in DESIGN.md (D1-D4): flips one
// simulator mechanism at a time and shows which paper effect disappears.
//   D1 serialized DMA        -> Fig. 5's flat ID line
//   D2 split-core penalty    -> Fig. 9(a)'s divisor-set peaks
//   D3 per-launch overheads  -> Fig. 7/10's right-hand decline
//   D4 per-thread alloc cost -> Fig. 9(c)'s monotone Kmeans decline
//   D5 DMA chunking (what-if) -> no head-of-line blocking behind big uploads

#include <iostream>
#include <string>
#include <vector>

#include "apps/hbench.hpp"
#include "apps/registry.hpp"
#include "rt/context.hpp"
#include "bench_common.hpp"
#include "trace/report.hpp"

namespace {

using ms::apps::timing_common;
using ms::trace::Table;

}  // namespace

int main(int argc, char** argv) {
  const auto opt = ms::bench::parse(argc, argv);
  const auto base = ms::sim::SimConfig::phi_31sp();

  // --- D1: serialized vs full-duplex DMA ----------------------------------
  {
    auto duplex = base;
    duplex.link.full_duplex = true;
    Table t({"pattern (hd/dh)", "serialized [ms]", "full-duplex [ms]"});
    for (const auto& [hd, dh] : std::vector<std::pair<int, int>>{{16, 0}, {8, 8}, {16, 16}}) {
      t.add_row({std::to_string(hd) + "/" + std::to_string(dh),
                 Table::num(ms::apps::HBench::transfer_pattern(base, hd, dh, 1 << 20)),
                 Table::num(ms::apps::HBench::transfer_pattern(duplex, hd, dh, 1 << 20))});
    }
    ms::bench::emit(t, "ablation_d1_dma",
                    "D1 — serialized DMA produces Fig. 5; duplex would halve mixed patterns",
                    opt);
  }

  // --- D2: split-core contention penalty ----------------------------------
  {
    auto no_penalty = base;
    no_penalty.efficiency.split_core_penalty = 0.0;
    const auto& mm = *ms::apps::find_app("mm");
    Table t({"P", "with penalty [GFLOPS]", "penalty off [GFLOPS]"});
    for (const int p : {13, 14, 15, 27, 28, 29}) {
      t.add_row({std::to_string(p),
                 Table::num(mm.run(base, timing_common(p), {144, 6000}).gflops, 1),
                 Table::num(mm.run(no_penalty, timing_common(p), {144, 6000}).gflops, 1)});
    }
    ms::bench::emit(t, "ablation_d2_splitcore",
                    "D2 — divisor-set peaks (14, 28) vanish without the split-core penalty",
                    opt);
  }

  // --- D3: per-launch management overheads ---------------------------------
  {
    auto no_overhead = base;
    no_overhead.overhead.kernel_launch_base = ms::sim::SimTime::zero();
    no_overhead.overhead.kernel_launch_per_partition = ms::sim::SimTime::zero();
    no_overhead.overhead.action_enqueue = ms::sim::SimTime::zero();
    Table t({"P", "with overheads [ms]", "overheads off [ms]"});
    for (const int p : {1, 8, 64, 128}) {
      t.add_row({std::to_string(p),
                 Table::num(ms::apps::HBench::spatial(base, p, 128, 100, 4u << 20)),
                 Table::num(ms::apps::HBench::spatial(no_overhead, p, 128, 100, 4u << 20))});
    }
    ms::bench::emit(t, "ablation_d3_overheads",
                    "D3 — per-launch overheads drive part of Fig. 7's rise (contention does the rest)",
                    opt);
  }

  // --- D4: per-thread allocation cost (the Kmeans mechanism) ---------------
  {
    auto no_alloc = base;
    no_alloc.overhead.alloc_per_thread = ms::sim::SimTime::zero();
    const auto& kmeans = *ms::apps::find_app("kmeans");
    Table t({"P", "with alloc cost [s]", "alloc cost off [s]"});
    for (const int p : {1, 4, 14, 56}) {
      t.add_row({std::to_string(p),
                 Table::num(kmeans.run(base, timing_common(p), {56, 1120000, 100}).ms / 1e3, 3),
                 Table::num(kmeans.run(no_alloc, timing_common(p), {56, 1120000, 100}).ms / 1e3,
                            3)});
    }
    ms::bench::emit(t, "ablation_d4_alloc",
                    "D4 — Kmeans' decline over P disappears without per-thread alloc cost",
                    opt);
  }

  // --- D5: DMA chunking (what-if: a finer-grained DMA engine) --------------
  {
    auto chunked = base;
    chunked.link.dma_chunk_bytes = 1 << 20;
    Table t({"scenario", "monolithic DMA [ms]", "1 MiB chunks [ms]"});
    auto small_behind_big = [](const ms::sim::SimConfig& c) {
      ms::rt::Context ctx(c);
      ctx.setup(2);
      const auto buf = ctx.create_virtual_buffer(32 << 20);
      ctx.synchronize();
      const auto t0 = ctx.host_time();
      ctx.stream(0).enqueue_h2d(buf, 0, 32 << 20);
      const auto done = ctx.stream(1).enqueue_d2h(buf, 0, 4096);
      ctx.synchronize();
      return (done.time() - t0).millis();
    };
    t.add_row({"4 KiB readback behind a 32 MiB upload",
               Table::num(small_behind_big(base)), Table::num(small_behind_big(chunked))});
    ms::bench::emit(t, "ablation_d5_chunking",
                    "D5 — chunked DMA removes head-of-line blocking (latency, not figures)",
                    opt);
    std::cout << "(the paper's figures are insensitive to chunking: hBench already uses\n"
                 "1 MB blocks. The knob matters for latency-sensitive patterns like CF's\n"
                 "small cross-card tile round trips behind bulk uploads.)\n";
  }
  return 0;
}
