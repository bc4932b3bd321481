#include "engine/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>  // gethostname
#endif

#include "core/env.hpp"

#ifndef BSMP_GIT_SHA
#define BSMP_GIT_SHA "unknown"
#endif
#ifndef BSMP_BUILD_TYPE_STR
#define BSMP_BUILD_TYPE_STR "unknown"
#endif

namespace bsmp::engine::trace {

const char* cat_name(Cat c) {
  switch (c) {
    case Cat::kTask: return "task";
    case Cat::kSepRegion: return "sep-region";
    case Cat::kStaging: return "staging";
    case Cat::kSweepPoint: return "sweep-point";
    case Cat::kSim: return "sim";
    case Cat::kCount: break;
  }
  return "?";
}

namespace {

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string(fallback);
}

[[maybe_unused]] std::uint64_t fnv1a(std::uint64_t h, const void* data,
                                     std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Same defensive escaping as the metrics serializer: details and
// manifest values are caller-controlled ASCII, but the artifact must
// always be valid JSON.
void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

}  // namespace

#if BSMP_TRACE_ENABLED

namespace detail {

std::atomic<std::uint8_t> g_state{kUnread};

bool read_knob() {
  const std::uint8_t knob = core::env_bool("BSMP_TRACE", false) ? kOn : kOff;
  std::uint8_t expected = kUnread;
  g_state.compare_exchange_strong(expected, knob, std::memory_order_relaxed);
  return g_state.load(std::memory_order_relaxed) == kOn;
}

namespace {

struct Ev {
  std::uint64_t t0;
  std::uint64_t dur;
  const char* name;
  std::int64_t a0, a1;
  Cat cat;
  char ph;
  std::uint8_t dlen;
  char detail[23];
};

struct ThreadBuf {
  explicit ThreadBuf(int tid_, std::size_t cap_) : tid(tid_), cap(cap_) {
    ev.reserve(std::min<std::size_t>(cap, 4096));
  }
  int tid;
  std::size_t cap;
  std::vector<Ev> ev;  // grows up to cap, then `dropped` counts
  std::uint64_t dropped = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::size_t buffer_capacity() {
  static const std::size_t cap = static_cast<std::size_t>(
      core::env_int("BSMP_TRACE_BUFFER", std::int64_t{1} << 18, 1024));
  return cap;
}

// The thread keeps a reference so its buffer can never die under it;
// the registry keeps another so the events survive the thread.
thread_local std::shared_ptr<ThreadBuf> tl_buf;

ThreadBuf& local_buf() {
  if (tl_buf == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    tl_buf = std::make_shared<ThreadBuf>(static_cast<int>(r.bufs.size()),
                                         buffer_capacity());
    r.bufs.push_back(tl_buf);
  }
  return *tl_buf;
}

}  // namespace

void record(Cat cat, char ph, const char* name, std::uint64_t t0,
            std::uint64_t dur, std::int64_t a0, std::int64_t a1,
            const char* detail, std::size_t detail_len) {
  ThreadBuf& b = local_buf();
  if (b.ev.size() >= b.cap) {
    ++b.dropped;
    return;
  }
  Ev e;
  e.t0 = t0;
  e.dur = dur;
  e.name = name;
  e.a0 = a0;
  e.a1 = a1;
  e.cat = cat;
  e.ph = ph;
  e.dlen = static_cast<std::uint8_t>(
      detail_len < sizeof e.detail ? detail_len : sizeof e.detail);
  if (e.dlen != 0) std::memcpy(e.detail, detail, e.dlen);
  b.ev.push_back(e);
}

}  // namespace detail

void set_enabled(bool on) {
  // Consult the knob first, so a malformed BSMP_TRACE is reported here
  // as it would be by enabled().
  if (detail::g_state.load(std::memory_order_relaxed) == detail::kUnread)
    detail::read_knob();
  detail::g_state.store(on ? detail::kOn : detail::kOff,
                        std::memory_order_relaxed);
}

std::vector<SpanRec> snapshot() {
  std::vector<SpanRec> out;
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const auto& b : r.bufs) {
    for (const auto& e : b->ev) {
      SpanRec s;
      s.name = e.name;
      s.cat = e.cat;
      s.ph = e.ph;
      s.tid = b->tid;
      s.t0_ns = e.t0;
      s.dur_ns = e.dur;
      s.a0 = e.a0;
      s.a1 = e.a1;
      s.detail.assign(e.detail, e.dlen);
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::uint64_t events_recorded() {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::uint64_t n = 0;
  for (const auto& b : r.bufs) n += b->ev.size();
  return n;
}

std::uint64_t dropped() {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  std::uint64_t n = 0;
  for (const auto& b : r.bufs) n += b->dropped;
  return n;
}

std::uint64_t digest() {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  // Sum (mod 2^64) of per-event identity hashes: order-independent, so
  // a deterministic span set digests identically however threads
  // interleaved the recording.
  std::uint64_t sum = 0;
  for (const auto& b : r.bufs) {
    for (const auto& e : b->ev) {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      h = fnv1a(h, e.name, std::strlen(e.name));
      h = fnv1a(h, &e.cat, sizeof e.cat);
      h = fnv1a(h, &e.ph, sizeof e.ph);
      h = fnv1a(h, &e.a0, sizeof e.a0);
      h = fnv1a(h, &e.a1, sizeof e.a1);
      h = fnv1a(h, e.detail, e.dlen);
      sum += h;
    }
  }
  return sum;
}

void clear() {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  auto& bufs = r.bufs;
  for (auto& b : bufs) {
    b->ev.clear();
    b->dropped = 0;
  }
  // Buffers only the registry still references belong to exited
  // threads: release their memory (tids are not reused; new threads
  // register fresh buffers).
  bufs.erase(std::remove_if(bufs.begin(), bufs.end(),
                            [](const std::shared_ptr<detail::ThreadBuf>& b) {
                              return b.use_count() == 1;
                            }),
             bufs.end());
}

#else  // !BSMP_TRACE_ENABLED

std::vector<SpanRec> snapshot() { return {}; }
std::uint64_t events_recorded() { return 0; }
std::uint64_t dropped() { return 0; }
std::uint64_t digest() { return 0; }
void clear() {}

#endif  // BSMP_TRACE_ENABLED

RunManifest make_run_manifest(const std::string& name) {
  RunManifest m;
  m.name = name;
  m.git_sha = BSMP_GIT_SHA;
  m.build_type = BSMP_BUILD_TYPE_STR;
#ifdef __VERSION__
  m.compiler = __VERSION__;
#else
  m.compiler = "unknown";
#endif
  unsigned hw = std::thread::hardware_concurrency();
  m.hardware_threads = hw == 0 ? 1 : static_cast<int>(hw);
  m.num_cpus = m.hardware_threads;
#if defined(__unix__) || defined(__APPLE__)
  {
    char host[256] = {};
    if (gethostname(host, sizeof host - 1) == 0 && host[0] != '\0')
      m.hostname = host;
  }
#endif
  m.trace_compiled = compiled();
  m.trace_enabled = enabled();
  for (const char* knob : {"BSMP_TRACE", "BSMP_TRACE_BUFFER",
                           "BSMP_METRICS_DIR", "BSMP_VALIDATE", "BSMP_SIMD"})
    m.knobs.emplace_back(knob, env_or(knob, "unset"));
  m.trace_events = events_recorded();
  m.trace_dropped = dropped();
  m.trace_digest = hex64(digest());
  return m;
}

namespace {

void write_event_common(std::ostream& os, const char* name, char ph,
                        double ts_us, int tid) {
  os << "{\"name\": ";
  json_string(os, name);
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", ts_us);
  os << ", \"ph\": \"" << ph << "\", \"ts\": " << buf
     << ", \"pid\": 1, \"tid\": " << tid;
}

}  // namespace

bool write_chrome_json(const std::string& path, const RunManifest& manifest) {
  std::ofstream f(path);
  if (!f) return false;

  std::vector<SpanRec> evs = snapshot();
  // Rebase timestamps so the timeline starts near zero.
  std::uint64_t t_base = ~std::uint64_t{0};
  int max_tid = -1;
  for (const auto& e : evs) {
    t_base = std::min(t_base, e.t0_ns);
    max_tid = std::max(max_tid, e.tid);
  }
  if (evs.empty()) t_base = 0;
  auto us = [&](std::uint64_t ns) {
    return static_cast<double>(ns - t_base) / 1000.0;
  };

  f << "{\n  \"traceEvents\": [";
  bool first = true;
  auto sep = [&]() -> std::ostream& {
    f << (first ? "\n    " : ",\n    ");
    first = false;
    return f;
  };

  // Metadata: process and thread names (tid 0 is the first thread that
  // recorded — conventionally the main/caller thread).
  sep() << "{\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, "
           "\"pid\": 1, \"tid\": 0, \"args\": {\"name\": ";
  json_string(f, manifest.name);
  f << "}}";
  for (int t = 0; t <= max_tid; ++t)
    sep() << "{\"name\": \"thread_name\", \"ph\": \"M\", \"ts\": 0, "
             "\"pid\": 1, \"tid\": "
          << t << ", \"args\": {\"name\": \"thread-" << t << "\"}}";

  auto write_args = [&](const SpanRec& e) {
    f << ", \"args\": {\"a0\": " << e.a0 << ", \"a1\": " << e.a1;
    if (!e.detail.empty()) {
      f << ", \"detail\": ";
      json_string(f, e.detail);
    }
    f << "}}";
  };

  // Complete spans are recorded at their *end*, so a parent sits after
  // its children in the buffer. Reconstruct properly nested B/E pairs
  // per thread: sort by (start asc, end desc) and close every span
  // whose end precedes the next span's start.
  std::vector<std::size_t> idx;
  for (int t = 0; t <= max_tid; ++t) {
    idx.clear();
    for (std::size_t i = 0; i < evs.size(); ++i)
      if (evs[i].tid == t && evs[i].ph == 'X') idx.push_back(i);
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a,
                                                 std::size_t b) {
      if (evs[a].t0_ns != evs[b].t0_ns) return evs[a].t0_ns < evs[b].t0_ns;
      return evs[a].dur_ns > evs[b].dur_ns;
    });
    std::vector<std::size_t> stack;
    auto close = [&](std::size_t i) {
      sep();
      write_event_common(f, evs[i].name, 'E',
                         us(evs[i].t0_ns + evs[i].dur_ns), t);
      f << "}";
    };
    for (std::size_t i : idx) {
      while (!stack.empty() &&
             evs[stack.back()].t0_ns + evs[stack.back()].dur_ns <=
                 evs[i].t0_ns) {
        close(stack.back());
        stack.pop_back();
      }
      sep();
      write_event_common(f, evs[i].name, 'B', us(evs[i].t0_ns), t);
      f << ", \"cat\": ";
      json_string(f, cat_name(evs[i].cat));
      write_args(evs[i]);
      stack.push_back(i);
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }

  for (const auto& e : evs) {
    if (e.ph != 'i') continue;
    sep();
    write_event_common(f, e.name, 'i', us(e.t0_ns), e.tid);
    f << ", \"cat\": ";
    json_string(f, cat_name(e.cat));
    f << ", \"s\": \"t\"";
    write_args(e);
  }

  f << "\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n";
  auto kv = [&](const char* k, const std::string& v, bool last = false) {
    f << "    ";
    json_string(f, k);
    f << ": ";
    json_string(f, v);
    f << (last ? "\n" : ",\n");
  };
  kv("name", manifest.name);
  kv("git_sha", manifest.git_sha);
  kv("build_type", manifest.build_type);
  kv("compiler", manifest.compiler);
  kv("hardware_threads", std::to_string(manifest.hardware_threads));
  kv("num_cpus", std::to_string(manifest.num_cpus));
  kv("hostname", manifest.hostname);
  kv("simd_isa", manifest.simd_isa);
  for (const auto& [k, v] : manifest.knobs) kv(k.c_str(), v);
  kv("trace_events", std::to_string(manifest.trace_events));
  kv("trace_dropped", std::to_string(manifest.trace_dropped));
  kv("trace_digest", manifest.trace_digest, true);
  f << "  }\n}\n";
  return static_cast<bool>(f);
}

}  // namespace bsmp::engine::trace
