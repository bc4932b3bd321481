// engine::trace — per-span timelines under the execution stack.
//
// The metrics layer (metrics.hpp) records *totals*; this recorder
// answers "where did the time go inside a point": every separator
// recursion node and leaf batch, every regime-1 relocation level and
// regime-2 wavefront of the multiprocessor simulator, every sweep
// point, plan build, and fork/steal/join of the task layer becomes a
// span on its executing thread's timeline.
//
// Design constraints, in order:
//   * compile-time no-op: with the BSMP_TRACE CMake option off,
//     Span/instant() compile to nothing and the instrumented code is
//     byte-identical to the uninstrumented build;
//   * no locks on the hot path: each thread records into its own
//     buffer (registered once, under a mutex, on the thread's first
//     span); a span is one clock read at construction and one
//     buffer append at destruction;
//   * runtime-gated: even when compiled in, nothing is recorded (and
//     no buffer is allocated) unless the BSMP_TRACE environment
//     variable — or set_enabled(true) — turns the recorder on;
//   * bounded memory: a full per-thread buffer counts drops instead of
//     growing; the run manifest reports the drop count, so a truncated
//     timeline is visible in every artifact.
//
// Flushing: write_chrome_json() emits the Chrome trace-event format
// (one B/E pair per span, per-thread tracks, metadata names), loadable
// in chrome://tracing or https://ui.perfetto.dev; snapshot() and
// digest() expose the same data to tests and to the run manifest.
// Timestamps are scheduling-dependent; the *set* of spans in the
// deterministic categories (everything except kTask) is a pure
// function of the work, which the trace determinism property test
// pins across pool sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef BSMP_TRACE_ENABLED
#define BSMP_TRACE_ENABLED 0
#endif

#if BSMP_TRACE_ENABLED
#include <atomic>
#include <chrono>
#endif

namespace bsmp::engine::trace {

/// Span categories — the `cat` field of the Chrome trace events.
/// Spans in kTask are scheduling-dependent (which forks ran, who stole
/// what); every other category is a deterministic function of the
/// executed work.
enum class Cat : std::uint8_t {
  kTask = 0,    ///< task layer: task-run, fork, steal, join-park
  kSepRegion,   ///< separator recursion: sep-region nodes, sep-leaf batches
  kStaging,     ///< staging store maintenance: wavefront pruning
  kSweepPoint,  ///< sweep engine: sweeps, sweep points, plan builds
  kSim,         ///< simulator drivers: tiles, relocation levels, wavefronts
  kCount
};

/// Stable category name ("task", "sep-region", ...).
const char* cat_name(Cat c);

/// The self-description block of a metrics artifact and of the
/// "otherData" section of a flushed trace: which build, which machine,
/// which knobs produced the numbers.
struct RunManifest {
  std::string name;        ///< emitter / bench name
  std::string git_sha;     ///< source revision the binary was built from
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::string compiler;    ///< __VERSION__ of the building compiler
  int hardware_threads = 1;
  /// Hardware identity of the producing host, so `bsmp-stat diff` can
  /// refuse cross-hardware comparisons instead of reporting bogus
  /// regressions (metrics-v3). num_cpus mirrors hardware_threads under
  /// the name google-benchmark uses for the same fact
  /// (context.num_cpus), so both artifact families key comparability
  /// the same way.
  int num_cpus = 1;
  std::string hostname = "unknown";  ///< gethostname() of the producer
  /// SIMD leaf-kernel dispatch active for the run
  /// (sep::simd::active_isa()); "unknown" until the producer fills it —
  /// engine cannot call into sep (layering), so bench_common and the
  /// conformance serializers stamp it after make_run_manifest().
  std::string simd_isa = "unknown";
  bool trace_compiled = false;  ///< BSMP_TRACE compiled in
  bool trace_enabled = false;   ///< recorder on at manifest time
  /// Raw values of the BSMP_* environment knobs ("unset" when absent),
  /// in a fixed order.
  std::vector<std::pair<std::string, std::string>> knobs;
  std::string trace_file;  ///< flushed trace path ("" when none written)
  std::uint64_t trace_events = 0;   ///< events held in the buffers
  std::uint64_t trace_dropped = 0;  ///< events dropped (buffers full)
  std::string trace_digest;  ///< hex order-independent span identity hash
};

/// Fill every field except `trace_file` (the caller knows where it
/// flushes): build identity from compile-time definitions, knob values
/// from the environment, trace_* from the recorder's current state.
RunManifest make_run_manifest(const std::string& name);

/// Whether the recorder is compiled in (the BSMP_TRACE CMake option).
constexpr bool compiled() { return BSMP_TRACE_ENABLED != 0; }

/// One flushed event, as tests and the Chrome writer consume it.
struct SpanRec {
  const char* name = "";  ///< static-literal span name
  Cat cat = Cat::kTask;
  char ph = 'X';  ///< 'X' complete span, 'i' instant
  int tid = 0;    ///< recorder thread index (registration order)
  std::uint64_t t0_ns = 0;   ///< start, ns since the recorder epoch
  std::uint64_t dur_ns = 0;  ///< duration (0 for instants)
  std::int64_t a0 = 0;       ///< span args (width/index/latency/...)
  std::int64_t a1 = 0;       ///< second arg (depth/processor/...)
  std::string detail;        ///< short free-form label (may be empty)
};

#if BSMP_TRACE_ENABLED

namespace detail {

/// Raw monotonic nanoseconds (epoch-subtraction happens at flush).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Recorder switch: kOff, kOn, or kUnread until the BSMP_TRACE knob is
/// first consulted (by enabled() or set_enabled()).
inline constexpr std::uint8_t kOff = 0, kOn = 1, kUnread = 2;
extern std::atomic<std::uint8_t> g_state;

/// Parse BSMP_TRACE (core::env_bool; throws std::invalid_argument on a
/// malformed value, leaving the state unread) and publish it unless
/// the state was set meanwhile. Returns whether the recorder is on.
bool read_knob();

/// Append one event to the calling thread's buffer (registering the
/// buffer on first use).
void record(Cat cat, char ph, const char* name, std::uint64_t t0,
            std::uint64_t dur, std::int64_t a0, std::int64_t a1,
            const char* detail, std::size_t detail_len);

}  // namespace detail

/// Runtime gate: read from the BSMP_TRACE environment variable (a
/// core::env_bool knob, off when unset) on the first call of this or
/// set_enabled(), so a malformed value throws to that caller instead
/// of aborting before main. Toggled by tests via set_enabled(). After
/// the first call, one relaxed load.
inline bool enabled() {
  const std::uint8_t s = detail::g_state.load(std::memory_order_relaxed);
  if (s == detail::kUnread) [[unlikely]]
    return detail::read_knob();
  return s == detail::kOn;
}
void set_enabled(bool on);

/// RAII span: one timeline entry on the recording thread, from
/// construction to destruction. ~55 ns when enabled (two clock reads
/// plus a buffer append), one relaxed load when disabled.
class Span {
 public:
  Span(Cat cat, const char* name, std::int64_t a0 = 0, std::int64_t a1 = 0)
      : cat_(cat), name_(name), a0_(a0), a1_(a1) {
    if (enabled()) t0_ = detail::now_ns();
  }
  /// With a short free-form label (truncated to the inline capacity).
  Span(Cat cat, const char* name, std::string_view label_detail,
       std::int64_t a0 = 0, std::int64_t a1 = 0)
      : cat_(cat), name_(name), a0_(a0), a1_(a1) {
    dlen_ = static_cast<std::uint8_t>(
        label_detail.size() < sizeof detail_ ? label_detail.size()
                                             : sizeof detail_);
    for (std::uint8_t i = 0; i < dlen_; ++i) detail_[i] = label_detail[i];
    if (enabled()) t0_ = detail::now_ns();
  }
  ~Span() {
    if (t0_ != 0)
      detail::record(cat_, 'X', name_, t0_, detail::now_ns() - t0_, a0_, a1_,
                     detail_, dlen_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Cat cat_;
  const char* name_;
  std::int64_t a0_, a1_;
  std::uint64_t t0_ = 0;  // 0: disabled at construction, record nothing
  std::uint8_t dlen_ = 0;
  char detail_[23];
};

/// Zero-duration event at the current instant.
inline void instant(Cat cat, const char* name, std::int64_t a0 = 0,
                    std::int64_t a1 = 0) {
  if (enabled())
    detail::record(cat, 'i', name, detail::now_ns(), 0, a0, a1, nullptr, 0);
}

#else  // !BSMP_TRACE_ENABLED — every recording entry point is a no-op.

constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}

class Span {
 public:
  Span(Cat, const char*, std::int64_t = 0, std::int64_t = 0) {}
  Span(Cat, const char*, std::string_view, std::int64_t = 0,
       std::int64_t = 0) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

inline void instant(Cat, const char*, std::int64_t = 0, std::int64_t = 0) {}

#endif  // BSMP_TRACE_ENABLED

// --- flush side (always linked; empty results when compiled out) ----

/// All recorded events, every thread, in per-thread recording order.
/// Call only while no instrumented code is running (quiescent).
std::vector<SpanRec> snapshot();

/// Events currently held across all buffers / dropped for lack of room.
std::uint64_t events_recorded();
std::uint64_t dropped();

/// Order-independent FNV-1a-based hash over the identity (name, cat,
/// ph, a0, a1, detail) of every *held* event — stable for a
/// deterministic span set regardless of thread interleaving; dropped
/// events are not included.
std::uint64_t digest();

/// Reset every buffer and drop counter. Buffers of dead
/// threads are released; live threads keep their (emptied) buffer.
/// Quiescent only.
void clear();

/// Flush the recorder as Chrome trace-event JSON: per-tid B/E pairs
/// reconstructed from the complete spans (properly nested), instants,
/// thread-name metadata, and `manifest` under "otherData". False when
/// the file cannot be written. Quiescent only.
bool write_chrome_json(const std::string& path, const RunManifest& manifest);

}  // namespace bsmp::engine::trace
