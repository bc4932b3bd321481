#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

struct Rec {
  const char* name = "";
  int tid = 0;
  int parent = -1;  ///< index of the enclosing span on the same thread
  std::uint64_t t0 = 0, dur = 0;
};

std::atomic<bool> g_on{false};
std::atomic<int> g_next_tid{0};
std::mutex g_mu;
std::vector<Rec> g_recs;  // guarded by g_mu

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int thread_id() {
  thread_local const int id = g_next_tid.fetch_add(1);
  return id;
}

// Index (into g_recs) of the innermost open span of this thread, or -1.
// A span's record is reserved at open time so children can name it.
thread_local int t_open = -1;

}  // namespace

void spans_enable(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool spans_enabled() { return g_on.load(std::memory_order_relaxed); }

Span::Span(const char* name) : name_(name) {
  if (!spans_enabled()) return;
  {
    std::lock_guard<std::mutex> lk(g_mu);
    g_recs.push_back(Rec{name_, thread_id(), t_open, 0, 0});
    parent_ = t_open;
    t_open = static_cast<int>(g_recs.size()) - 1;
  }
  t0_ = now_ns();
}

Span::~Span() {
  if (t0_ == 0) return;
  const std::uint64_t t1 = now_ns();
  std::lock_guard<std::mutex> lk(g_mu);
  Rec& r = g_recs[static_cast<std::size_t>(t_open)];
  r.t0 = t0_;
  r.dur = t1 - t0_;
  t_open = parent_;
}

std::map<std::string, SpanTotals> spans_fold() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<double> child_s(g_recs.size(), 0.0);
  for (const Rec& r : g_recs)
    if (r.parent >= 0)
      child_s[static_cast<std::size_t>(r.parent)] += r.dur * 1e-9;
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < g_recs.size(); ++i) {
    SpanTotals& t = out[g_recs[i].name];
    const double d = g_recs[i].dur * 1e-9;
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return out;
}

bool spans_write(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard<std::mutex> lk(g_mu);
  const std::uint64_t epoch = g_recs.empty() ? 0 : g_recs.front().t0;
  os << "[\n";
  for (std::size_t i = 0; i < g_recs.size(); ++i) {
    const Rec& r = g_recs[i];
    os << (i ? ",\n" : "") << "{\"name\":\"" << r.name << "\",\"tid\":" << r.tid
       << ",\"parent\":" << r.parent << ",\"t0_ns\":"
       << static_cast<std::int64_t>(r.t0 - epoch) << ",\"dur_ns\":" << r.dur
       << "}";
  }
  os << "\n]\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
