#include "telemetry/periodic.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "telemetry/export.hpp"

namespace ms::telemetry {

namespace {

bool prometheus_path(const std::string& path) {
  const auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return ends_with(".prom") || ends_with(".txt");
}

}  // namespace

struct PeriodicDumper::Impl {
  std::string path;
  bool prometheus = false;
  std::chrono::duration<double> interval{1.0};
  std::size_t max_keep = PeriodicDumper::kDefaultMaxKeep;
  std::mutex mu;
  std::condition_variable cv;
  bool stopping = false;
  std::atomic<std::uint64_t> ticks{0};
  std::thread worker;
  /// Rolling window of rendered JSON snapshots (newest at the back); the
  /// file is rewritten from this window each tick, so it holds at most
  /// max_keep snapshots no matter how long the process runs.
  std::deque<std::string> window;

  void dump_once() {
    if (path == "-") {
      write_snapshot(std::cout, prometheus);
      std::cout.flush();
    } else if (prometheus) {
      // Rewrite: scrapers want the latest exposition, not history.
      std::ofstream f(path, std::ios::trunc);
      if (!f) return;
      write_snapshot(f, true);
    } else {
      // JSON: keep the last max_keep snapshots, oldest rotated out.
      std::ostringstream os;
      write_snapshot(os, false);
      window.push_back(os.str());
      while (window.size() > max_keep) window.pop_front();
      std::ofstream f(path, std::ios::trunc);
      if (!f) return;
      for (const std::string& s : window) f << s;
    }
    ticks.fetch_add(1, std::memory_order_relaxed);
  }

  void run() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stopping) {
      if (cv.wait_for(lock, interval, [this] { return stopping; })) break;
      lock.unlock();
      dump_once();
      lock.lock();
    }
  }
};

PeriodicDumper::PeriodicDumper(std::string path, double interval_s, std::size_t max_keep) {
  if (interval_s <= 0.0 || path.empty()) return;
  impl_ = std::make_unique<Impl>();
  impl_->path = std::move(path);
  impl_->prometheus = prometheus_path(impl_->path);
  impl_->interval = std::chrono::duration<double>(interval_s);
  impl_->max_keep = max_keep == 0 ? 1 : max_keep;
  impl_->worker = std::thread([impl = impl_.get()] { impl->run(); });
}

PeriodicDumper::~PeriodicDumper() { stop(); }

void PeriodicDumper::stop() noexcept {
  if (!impl_ || !impl_->worker.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  impl_->worker.join();
  try {
    impl_->dump_once();  // final snapshot: short runs still leave a file
  } catch (...) {        // NOLINT(bugprone-empty-catch) — best-effort flush
  }
}

std::uint64_t PeriodicDumper::ticks() const noexcept {
  return impl_ ? impl_->ticks.load(std::memory_order_relaxed) : 0;
}

}  // namespace ms::telemetry
