#include "ladder.hpp"

#include <functional>
#include <memory>
#include <stdexcept>

#include "ehw/common/rng.hpp"
#include "ehw/common/thread_pool.hpp"
#include "ehw/evo/offspring.hpp"
#include "ehw/platform/platform.hpp"
#include "ehw/platform/wave.hpp"
#include "ehw/sched/missions.hpp"
#include "ehw/svc/client.hpp"
#include "loop.hpp"
#include "stack.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using ehw::Json;
namespace sched = ehw::sched;
namespace platform = ehw::platform;

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Wave counters the timing decorator accumulates.
struct WaveTally {
  std::uint64_t waves = 0;
  std::uint64_t candidates = 0;
  std::uint64_t pixels = 0;  // candidates x frame pixels
  std::uint64_t wave_ns = 0;
};

/// Timing decorator around any WaveExecutor: forwards every call
/// unchanged and times run_wave.
class TimingWaveExecutor final : public platform::WaveExecutor {
 public:
  TimingWaveExecutor(platform::WaveExecutor& inner, WaveTally& tally,
                     SpanLog* spans, std::uint64_t mission,
                     std::uint64_t parent)
      : inner_(inner),
        tally_(tally),
        spans_(spans),
        mission_(mission),
        parent_(parent) {}

  [[nodiscard]] platform::EvolvablePlatform& platform() noexcept override {
    return inner_.platform();
  }
  [[nodiscard]] const std::vector<std::size_t>& lanes()
      const noexcept override {
    return inner_.lanes();
  }
  platform::WaveOutcome run_wave(
      const std::vector<ehw::evo::Candidate>& offspring,
      const std::vector<std::size_t>& wave_lanes, const ehw::img::Image& input,
      const ehw::img::Image& compare, ehw::sim::SimTime barrier) override {
    const Span span(spans_, "platform.run_wave", "platform", mission_,
                    parent_);
    const std::uint64_t start = now_ns();
    platform::WaveOutcome outcome =
        inner_.run_wave(offspring, wave_lanes, input, compare, barrier);
    tally_.wave_ns += now_ns() - start;
    ++tally_.waves;
    tally_.candidates += offspring.size();
    tally_.pixels += offspring.size() * input.width() * input.height();
    return outcome;
  }

 private:
  platform::WaveExecutor& inner_;
  WaveTally& tally_;
  SpanLog* spans_;
  std::uint64_t mission_;
  std::uint64_t parent_;
};

/// What the job body records about its own run (written on the job
/// thread, read after MissionRunner::wait, which orders the two).
struct JobStamps {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t pe_writes = 0;
  WaveTally tally;
};

/// make_job_body(spec) with its start and end stamped and every wave
/// routed through the timing decorator. It keeps make_job_body's
/// preemption hook and images_cache() argument, so this pool path is the
/// production one.
sched::ArrayPool::JobBody timed_job_body(sched::MissionSpec spec,
                                         std::shared_ptr<JobStamps> stamps,
                                         SpanLog* spans, std::uint64_t mission,
                                         std::uint64_t parent) {
  return [spec = std::move(spec), stamps, spans, mission, parent](
             sched::MissionContext& context, sched::JobOutcome& outcome) {
    stamps->start_ns = now_ns();
    struct EndStamp {
      JobStamps& stamps;
      ~EndStamp() { stamps.end_ns = now_ns(); }
    } end_stamp{*stamps};
    const Span span(spans, "sched.job_body", "sched", mission, parent);
    TimingWaveExecutor timed(context, stamps->tally, spans, mission,
                             span.id());
    sched::MissionCheckpointing durable;
    durable.should_preempt = [&context] { return context.preempt_requested(); };
    sched::run_spec(timed, spec, outcome, durable, context.images_cache());
    stamps->pe_writes = context.platform().engine_stats().pe_writes;
    const bool preempted = spec.kind == sched::MissionKind::kCascade
                               ? outcome.cascade.preempted
                               : outcome.intrinsic.preempted;
    if (preempted) throw sched::MissionPreempted();
  };
}

/// Sum of the job profile's top-level phases inside the body ("wave" and
/// the checkpoint sink; compile/wave_eval/memo_lookup nest inside
/// "wave", queue_wait precedes the body).
std::uint64_t profiled_body_ns(const Json& profile) {
  const Json* phases = profile.get("phases");
  if (phases == nullptr || !phases->is_array()) return 0;
  std::uint64_t total = 0;
  for (const Json& phase : phases->as_array()) {
    const std::string name = phase.get_string("phase", "");
    if (name == "wave" || name == "checkpoint_write") {
      total += std::stoull(phase.get_string("total_ns", "0"));
    }
  }
  return total;
}

/// Per-call timings of the platform and pe public functions over one
/// generation of offspring configured back to back on one array.
struct PlatformTally {
  std::uint64_t calls = 0;
  std::uint64_t configure_ns = 0;
  std::uint64_t fingerprint_ns = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t compile_ns = 0;
  std::uint64_t kernel_ns = 0;
  std::uint64_t kernel_pixels = 0;
  std::uint64_t sink = 0;  // keeps every result observable
};

void platform_rung(const sched::MissionSpec& spec, std::uint64_t seed,
                   std::uint64_t mission, std::uint64_t parent,
                   SpanLog* spans, PlatformTally& tally) {
  const sched::MissionImages images = sched::make_mission_images(spec);
  platform::PlatformConfig config;
  config.num_arrays = 1;
  platform::EvolvablePlatform fabric(config);
  ehw::Rng rng(mix(seed, mission));
  const ehw::evo::Genotype parent_genotype =
      ehw::evo::Genotype::random(config.shape, rng);
  const std::vector<ehw::evo::Candidate> offspring =
      ehw::evo::classic_offspring(parent_genotype, spec.lambda, 1,
                                  spec.mutation_rate, rng);
  const auto timed = [&](const char* name, const char* layer,
                         std::uint64_t& total, const auto& call) {
    const Span span(spans, name, layer, mission, parent);
    const std::uint64_t start = now_ns();
    call();
    total += now_ns() - start;
  };
  for (const ehw::evo::Candidate& candidate : offspring) {
    timed("platform.configure_array", "platform", tally.configure_ns, [&] {
      tally.sink += fabric.configure_array(0, candidate.genotype).end;
    });
    timed("platform.configuration_fingerprint", "platform",
          tally.fingerprint_ns,
          [&] { tally.sink ^= fabric.configuration_fingerprint(0); });
    timed("platform.decode_array", "platform", tally.decode_ns, [&] {
      tally.sink += fabric.decode_array(0).output_row();
    });
    std::unique_ptr<ehw::pe::CompiledArray> compiled;
    timed("platform.compile_array", "platform", tally.compile_ns, [&] {
      compiled =
          std::make_unique<ehw::pe::CompiledArray>(fabric.compile_array(0));
    });
    timed("pe.fitness_against", "pe", tally.kernel_ns, [&] {
      tally.sink ^= compiled->fitness_against(images.train, images.reference);
    });
    tally.kernel_pixels += images.train.width() * images.train.height();
    ++tally.calls;
  }
}

std::vector<double> paired_minus(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  std::vector<double> out;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    out.push_back(a[i] - b[i]);
  }
  return out;
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

std::uint64_t placement_count(const Json& stats, const char* key) {
  const Json* section = stats.get("placement");
  return section == nullptr
             ? 0
             : static_cast<std::uint64_t>(section->get_number(key, 0));
}

/// One rung's per-spec wall times and answers, in spec order.
struct Rung {
  explicit Rung(const char* rung_name) : name(rung_name) {}
  const char* name;
  std::vector<double> ms;
  std::vector<MissionResult> answers;
};

}  // namespace

LadderReport run_ladder(Workload workload, std::uint64_t seed,
                        std::size_t missions, const std::string& tmp_root,
                        SpanLog* spans) {
  LadderReport report;
  std::vector<sched::MissionSpec> specs;
  for (std::size_t i = 0; i < missions; ++i) {
    specs.push_back(spec_at(workload, seed, kLadderFirstIndex + i));
  }
  // Warm state every rung starts from: the workload's warm fingerprints,
  // then one more spec of the mix so first-use costs (thread start-up,
  // first connections) fall outside the sample.
  std::vector<sched::MissionSpec> warmup = warm_fingerprints(workload, seed);
  warmup.push_back(spec_at(workload, seed, kLadderFirstIndex + missions));

  ehw::ThreadPool host_pool;  // as `mpa serve` builds it
  sched::ArrayPool pool(serve_pool_config(&host_pool));
  Stack direct_stack(0, false, tmp_root);
  Stack forward_stack(2, false, tmp_root);
  Stack journal_stack(0, true, tmp_root);
  ehw::svc::Client direct(direct_stack.port());
  ehw::svc::Client forward(forward_stack.port());
  ehw::svc::Client journal(journal_stack.port());
  for (const sched::MissionSpec& spec : warmup) {
    pool.submit(sched::make_job_config(spec), sched::make_job_body(spec))
        ->wait();
    for (ehw::svc::Client* client : {&direct, &forward, &journal}) {
      static_cast<void>(serve_one(*client, spec, "bench", 0, 0, nullptr));
    }
  }
  const ehw::evo::FitnessMemoStats memo0 = pool.memo_stats();
  const sched::CacheStats cache0 = pool.cache_stats();
  const sched::MissionImagesCacheStats images0 = pool.images_cache()->stats();
  const Json placement0 = forward.stats();
  const ehw::svc::JournalStats journal0 =
      journal_stack.servers()[0]->journal_stats();

  // Six rungs per spec, visited in an order that rotates with the spec
  // so no rung always runs first (or right after a given other one).
  Rung serial{"standalone"};
  Rung hosted{"standalone+host pool"};
  Rung pooled{"ArrayPool job"};  // ms = submit -> wait returned
  Rung served{"svc daemon"};
  Rung forwarded{"forwarder"};
  Rung journaled{"journaled daemon"};
  std::vector<double> job_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> handoff_ms;
  std::uint64_t profiled_ns = 0;
  std::uint64_t body_ns = 0;
  WaveTally waves;
  std::uint64_t pe_writes = 0;
  PlatformTally tally;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sched::MissionSpec& spec = specs[i];
    const std::uint64_t mission = kLadderFirstIndex + i;
    const Span root(spans, "ladder.mission", "bench", mission, 0);
    platform_rung(spec, seed, mission, root.id(), spans, tally);
    const auto timed = [&](Rung& rung, const char* name, const char* layer,
                           const auto& call) {
      const Span span(spans, name, layer, mission, root.id());
      const std::uint64_t start = now_ns();
      MissionResult answer = call(span.id());
      rung.ms.push_back(ms(now_ns() - start));
      rung.answers.push_back(std::move(answer));
    };
    const std::vector<std::function<void()>> rungs = {
        [&] {
          timed(serial, "mission.run_spec_standalone", "mission",
                [&](std::uint64_t) { return standalone_answer(spec); });
        },
        [&] {
          timed(hosted, "mission.run_spec_standalone_hostpool", "mission",
                [&](std::uint64_t) {
                  return standalone_answer(spec, &host_pool);
                });
        },
        [&] {
          auto stamps = std::make_shared<JobStamps>();
          std::uint64_t submit_ns = 0;
          std::uint64_t waited_ns = 0;
          timed(pooled, "sched.submit_wait", "sched", [&](std::uint64_t id) {
            submit_ns = now_ns();
            const std::shared_ptr<sched::MissionRunner> runner = pool.submit(
                sched::make_job_config(spec),
                timed_job_body(spec, stamps, spans, mission, id));
            runner->wait();
            waited_ns = now_ns();
            profiled_ns += profiled_body_ns(runner->result().profile);
            return answer_of(spec, runner->result(), runner->status());
          });
          job_ms.push_back(ms(stamps->end_ns - stamps->start_ns));
          queue_wait_ms.push_back(ms(stamps->start_ns - submit_ns));
          handoff_ms.push_back(ms(waited_ns - stamps->end_ns));
          body_ns += stamps->end_ns - stamps->start_ns;
          waves.waves += stamps->tally.waves;
          waves.candidates += stamps->tally.candidates;
          waves.pixels += stamps->tally.pixels;
          waves.wave_ns += stamps->tally.wave_ns;
          pe_writes += stamps->pe_writes;
        },
        [&] {
          timed(served, "svc.mission", "svc", [&](std::uint64_t id) {
            return serve_one(direct, spec, "svc", mission, id, spans);
          });
        },
        [&] {
          timed(forwarded, "svc.forwarder.mission", "svc.forwarder",
                [&](std::uint64_t id) {
                  return serve_one(forward, spec, "svc.forwarder", mission, id,
                                   spans);
                });
        },
        [&] {
          timed(journaled, "svc.journal.mission", "svc.journal",
                [&](std::uint64_t id) {
                  return serve_one(journal, spec, "svc.journal", mission, id,
                                   spans);
                });
        },
    };
    for (std::size_t k = 0; k < rungs.size(); ++k) {
      rungs[(i + k) % rungs.size()]();
    }
  }

  std::vector<double> rtt_us;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t start = now_ns();
    static_cast<void>(direct.stats());
    rtt_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  const ehw::evo::FitnessMemoStats memo1 = pool.memo_stats();
  const sched::CacheStats cache1 = pool.cache_stats();
  const sched::MissionImagesCacheStats images1 = pool.images_cache()->stats();
  const ehw::evo::FitnessMemoStats memo{memo1.hits - memo0.hits,
                                        memo1.misses - memo0.misses,
                                        memo1.evictions - memo0.evictions};
  const sched::CacheStats cache{cache1.hits - cache0.hits,
                                cache1.misses - cache0.misses,
                                cache1.evictions - cache0.evictions};
  const sched::MissionImagesCacheStats images{
      images1.hits - images0.hits, images1.misses - images0.misses,
      images1.evictions - images0.evictions};
  const Json placement1 = forward.stats();
  const std::uint64_t affinity_hits =
      placement_count(placement1, "affinity_hits") -
      placement_count(placement0, "affinity_hits");
  const std::uint64_t placed = placement_count(placement1, "placed") -
                               placement_count(placement0, "placed");
  const std::uint64_t failovers =
      forward_stack.forwarder()->forwarder_stats().failovers;
  const ehw::svc::JournalStats journal1 =
      journal_stack.servers()[0]->journal_stats();
  const std::uint64_t appends = journal1.appended - journal0.appended;
  const std::uint64_t checkpoints =
      journal1.checkpoints_written - journal0.checkpoints_written;

  // Every rung must answer exactly what the serial standalone run did.
  for (const Rung* rung : {&hosted, &pooled, &served, &forwarded, &journaled}) {
    for (std::size_t i = 0; i < rung->answers.size(); ++i) {
      if (!same_answer(rung->answers[i], serial.answers[i])) {
        ++report.failed;
        report.errors.push_back("ladder mission " + std::to_string(i) +
                                ": " + rung->name + " answered " +
                                describe_answer(rung->answers[i]) +
                                ", standalone " +
                                describe_answer(serial.answers[i]));
      }
    }
  }
  report.missions = 6 * specs.size();
  if (failovers != 0) {
    ++report.failed;
    report.errors.push_back("forwarder rung failed over " +
                            std::to_string(failovers) + " missions");
  }
  // --- metrics ------------------------------------------------------------
  const double n = static_cast<double>(specs.size());
  const auto per_call_us = [&tally](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e3 / static_cast<double>(tally.calls);
  };
  const auto count = [](std::uint64_t value) {
    return static_cast<double>(value);
  };
  const double kernel_ns_per_px = static_cast<double>(tally.kernel_ns) /
                                  static_cast<double>(tally.kernel_pixels);
  double standalone_total_ms = 0;
  for (const double v : serial.ms) standalone_total_ms += v;
  auto& m = report.metrics;
  m["pe.fitness_us_per_mpx"] = {kernel_ns_per_px * 1e3, "us/Mpx"};
  // Kernel time the missions' candidates cost at the kernel rung's rate,
  // over the serial standalone missions' wall time.
  m["pe.kernel_share"] = {
      kernel_ns_per_px * count(waves.pixels) / 1e6 / standalone_total_ms,
      "share"};
  m["platform.configure_us"] = {per_call_us(tally.configure_ns), "us"};
  m["platform.fingerprint_us"] = {per_call_us(tally.fingerprint_ns), "us"};
  m["platform.decode_us"] = {per_call_us(tally.decode_ns), "us"};
  m["platform.compile_us"] = {per_call_us(tally.compile_ns), "us"};
  m["platform.wave_us_per_candidate"] = {
      count(waves.wave_ns) / 1e3 / count(waves.candidates), "us"};
  m["platform.waves_per_mission"] = {count(waves.waves) / n, "count"};
  m["platform.pe_writes_per_mission"] = {count(pe_writes) / n, "count"};
  m["evo.memo_hit_rate"] = {memo.hit_rate(), "share"};
  m["evo.memo_evictions"] = {count(memo.evictions), "count"};
  m["sched.compiled_cache_hit_rate"] = {cache.hit_rate(), "share"};
  m["sched.images_cache_hit_rate"] = {
      ratio(images.hits, images.hits + images.misses), "share"};
  m["mission.standalone_ms_p50"] = {median(serial.ms), "ms"};
  m["mission.standalone_hostpool_ms_p50"] = {median(hosted.ms), "ms"};
  m["sched.job_ms_p50"] = {median(job_ms), "ms"};
  m["sched.pool_overhead_ratio"] = {median(job_ms) / median(serial.ms),
                                    "ratio"};
  m["sched.queue_wait_ms_p50"] = {median(queue_wait_ms), "ms"};
  m["sched.handoff_ms_p50"] = {median(handoff_ms), "ms"};
  m["sched.profile_unaccounted_share"] = {1.0 - ratio(profiled_ns, body_ns),
                                          "share"};
  m["svc.rtt_us_p50"] = {median(rtt_us), "us"};
  m["svc.overhead_ms_p50"] = {median(paired_minus(served.ms, pooled.ms)),
                              "ms"};
  m["svc.forwarder.hop_ms_p50"] = {
      median(paired_minus(forwarded.ms, served.ms)), "ms"};
  m["svc.forwarder.affinity_rate"] = {ratio(affinity_hits, placed), "share"};
  m["svc.forwarder.failovers"] = {count(failovers), "count"};
  m["svc.journal.overhead_ms_p50"] = {
      median(paired_minus(journaled.ms, served.ms)), "ms"};
  m["svc.journal.appends_per_mission"] = {count(appends) / n, "count"};
  m["svc.journal.checkpoints_per_mission"] = {count(checkpoints) / n,
                                              "count"};

  Json& c = report.counts;
  c.set("ladder_missions", static_cast<std::uint64_t>(specs.size()));
  c.set("memo_hits", memo.hits);
  c.set("memo_lookups", memo.hits + memo.misses);
  c.set("memo_evictions", memo.evictions);
  c.set("compiled_cache_hits", cache.hits);
  c.set("compiled_cache_lookups", cache.hits + cache.misses);
  c.set("images_cache_hits", images.hits);
  c.set("images_cache_lookups", images.hits + images.misses);
  c.set("waves", waves.waves);
  c.set("candidates", waves.candidates);
  c.set("pe_writes", pe_writes);
  c.set("journal_appends", appends);
  c.set("journal_checkpoints", checkpoints);
  c.set("forwarder_placed", placed);
  c.set("forwarder_affinity_hits", affinity_hits);

  // The digest covers the answers and the counts of the sequential pool
  // and journal rungs, which repeat exactly for a seed. (Forwarder
  // placement reads polled backend load, so its counts are left out.)
  std::uint64_t digest = 0;
  for (const MissionResult& answer : serial.answers) {
    digest = mix(digest, answer.best_fitness);
    for (const char ch : answer.genotype_hash + "/" + answer.sim_ns) {
      digest = mix(digest, static_cast<unsigned char>(ch));
    }
  }
  for (const std::uint64_t value :
       {memo.hits, memo.misses, memo.evictions, cache.hits, cache.misses,
        images.hits, images.misses, waves.waves, waves.candidates, pe_writes,
        appends, checkpoints}) {
    digest = mix(digest, value);
  }
  report.digest = digest;
  return report;
}

}  // namespace perfbench
