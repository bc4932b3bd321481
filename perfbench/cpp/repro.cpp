// repro: one pass of every table emitter on a 1-thread pool and one on
// an N-thread pool per round, each emitter with a fresh PlanCache. The
// inputs are the paper's fixed table parameters, so the seed is unused.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/pool.hpp"
#include "tables/emitters.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bsmp;

namespace {

struct ReproObs {
  std::vector<std::vector<double>> t1_s, tN_s;  // per emitter, per pass
  EngineLayer engine;
};

/// One pass of every emitter on `pool`; returns its wall clock. Each
/// emitter pass is one operation, failed when it throws or a table's
/// digest differs from the reference. With `emit`, collects the
/// reference lines instead of checking.
double repro_pass(engine::Pool& pool, const Expected& exp, Tally& tally,
                  bool observe, ReproObs& obs,
                  std::vector<std::string>* emit = nullptr) {
  const bool threads1 = pool.size() == 1;
  std::optional<RotateCpus> rotate;
  if (threads1) rotate.emplace();
  EngineObs& eng = threads1 ? obs.engine.t1 : obs.engine.tN;
  if (observe) {
    eng.passes += 1;
    if (!threads1) pool.reset_task_stats();
  }
  const auto t_pass = Clock::now();
  for (std::size_t k = 0; k < std::size(kReproEmitters); ++k) {
    const char* name = kReproEmitters[k];
    engine::PlanCache plans;
    engine::Metrics sink;
    tables::EngineCtx ctx{&pool, &plans, observe ? &sink : nullptr};
    std::vector<tables::Emitted> out;
    bool ok = true;
    const auto t0 = Clock::now();
    try {
      Span span("tables.emitter");
      out = tables::find_emitter(name).fn(ctx);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "# emitter %s threw: %s\n", name, ex.what());
      ok = false;
    }
    const double dt = since(t0);
    const std::string prefix = std::string("table ") + name + " ";
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::string key = prefix + std::to_string(i);
      const std::string digest = hex(out[i].table.digest());
      if (emit != nullptr) emit->push_back(key + " " + digest);
      ok = ok && exp.matches(key, digest);
    }
    ok = ok && !exp.has(prefix + std::to_string(out.size()));  // none missing
    if (emit != nullptr) continue;
    tally.add(ok);
    if (!ok) std::fprintf(stderr, "# emitter %s: output mismatch\n", name);
    if (observe) {
      (threads1 ? obs.t1_s : obs.tN_s)[k].push_back(dt);
      eng.add_sweeps(sink.snapshot());
      eng.add_cache(plans.stats());
    }
  }
  const double secs = since(t_pass);
  if (observe && !threads1) obs.engine.tasks.add(pool.task_stats());
  return secs;
}

}  // namespace

void run_repro(const Options& o, const Expected& exp, Tally& tally,
               Metrics& out) {
  ReproObs obs;
  obs.t1_s.resize(std::size(kReproEmitters));
  obs.tN_s.resize(std::size(kReproEmitters));
  if (o.emit_expected) {
    engine::Pool p1(1);
    std::vector<std::string> lines;
    repro_pass(p1, exp, tally, false, obs, &lines);
    for (const auto& l : lines) std::printf("%s\n", l.c_str());
    return;
  }

  // Set-up: both pools and one untimed threads=N warm-up pass. The
  // first sample also covers process start.
  std::unique_ptr<engine::Pool> p1, pN;
  std::vector<double> setup;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = rep == 0 ? g_process_start : Clock::now();
    p1.reset();
    pN.reset();
    p1 = std::make_unique<engine::Pool>(1);
    pN = std::make_unique<engine::Pool>(o.threads);
    repro_pass(*pN, exp, tally, false, obs);
    setup.push_back(since(t0));
  }

  const RoundTimes rt = run_rounds(
      o.seconds, o.trace,
      [&](bool observe) { return repro_pass(*p1, exp, tally, observe, obs); },
      [&](bool observe) { return repro_pass(*pN, exp, tally, observe, obs); });

  print_timings(setup, rt);
  if (!o.trace) {
    add_end_to_end(out, setup, rt);
    return;
  }
  TableLayer tables;
  for (std::size_t k = 0; k < std::size(kReproEmitters); ++k) {
    tables.t1_s.push_back(median(obs.t1_s[k]));
    tables.tN_s.push_back(median(obs.tN_s[k]));
  }
  add_per_layer(out, tables, obs.engine, SimLayer{}, rt);
}

}  // namespace perfbench
