// google-benchmark microbenches for the library's hot paths: window
// evaluation, whole-frame filtering (row kernel vs scalar), hardware-model
// fitness, population batch evaluation, mutation, offspring generation,
// configuration decode and DPR diffing. Emitted as BENCH_core.json by
// bench/run_bench so the perf trajectory is tracked across PRs.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "ehw/common/thread_pool.hpp"
#include "ehw/sched/placement.hpp"
#include "ehw/evo/batch.hpp"
#include "ehw/evo/fitness.hpp"
#include "ehw/evo/fitness_memo.hpp"
#include "ehw/evo/mutation.hpp"
#include "ehw/img/filters.hpp"
#include "ehw/evo/offspring.hpp"
#include "ehw/img/metrics.hpp"
#include "ehw/img/noise.hpp"
#include "ehw/img/synthetic.hpp"
#include "ehw/obs/metrics.hpp"
#include "ehw/obs/trace.hpp"
#include "ehw/pe/compiled.hpp"
#include "ehw/platform/platform.hpp"
#include "ehw/sched/array_pool.hpp"
#include "ehw/sched/missions.hpp"
#include "ehw/svc/client.hpp"
#include "ehw/svc/forwarder.hpp"
#include "ehw/svc/server.hpp"

namespace {

using namespace ehw;

evo::Genotype bench_genotype(std::uint64_t seed = 7) {
  Rng rng(seed);
  return evo::Genotype::random({4, 4}, rng);
}

std::vector<evo::Genotype> bench_population(std::size_t count) {
  Rng rng(1234);
  std::vector<evo::Genotype> population;
  population.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    population.push_back(evo::Genotype::random({4, 4}, rng));
  }
  return population;
}

void BM_WindowEvaluate(benchmark::State& state) {
  const pe::CompiledArray compiled(bench_genotype().to_array());
  const Pixel window[9] = {10, 20, 30, 40, 50, 60, 70, 80, 90};
  std::size_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.evaluate(window, x++, 0));
  }
}
BENCHMARK(BM_WindowEvaluate);

void BM_MeshWindowEvaluate(benchmark::State& state) {
  // Reference mesh model (used by equivalence sweeps): must not allocate.
  const pe::SystolicArray mesh = bench_genotype().to_array();
  const Pixel window[9] = {10, 20, 30, 40, 50, 60, 70, 80, 90};
  std::size_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh.evaluate(window, x++, 0));
  }
}
BENCHMARK(BM_MeshWindowEvaluate);

void BM_FilterFrame(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const pe::CompiledArray compiled(bench_genotype().to_array());
  const img::Image src = img::make_scene(size, size, 3);
  img::Image dst(size, size);
  for (auto _ : state) {
    compiled.filter_into(src, dst, nullptr);
    benchmark::DoNotOptimize(dst.row(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size * size));
}
BENCHMARK(BM_FilterFrame)->Arg(64)->Arg(128)->Arg(256);

void BM_FitnessAgainst(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const pe::CompiledArray compiled(bench_genotype().to_array());
  const img::Image src = img::make_scene(size, size, 3);
  const img::Image ref = img::make_scene(size, size, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.fitness_against(src, ref));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size * size));
}
BENCHMARK(BM_FitnessAgainst)->Arg(64)->Arg(128)->Arg(256);

void BM_FitnessScalarPath(benchmark::State& state) {
  // The pre-row-kernel per-window path (gather + step-interpret every
  // pixel), kept as the baseline the row kernel is compared against.
  const auto size = static_cast<std::size_t>(state.range(0));
  const pe::CompiledArray compiled(bench_genotype().to_array());
  const img::Image src = img::make_scene(size, size, 3);
  const img::Image ref = img::make_scene(size, size, 4);
  for (auto _ : state) {
    Pixel win[pe::kWindowTaps];
    Fitness acc = 0;
    for (std::size_t y = 0; y < size; ++y) {
      for (std::size_t x = 0; x < size; ++x) {
        img::gather_window3x3(src, x, y, win);
        const int out = compiled.evaluate(win, x, y);
        acc += static_cast<Fitness>(
            std::abs(out - static_cast<int>(ref.at(x, y))));
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size * size));
}
BENCHMARK(BM_FitnessScalarPath)->Arg(64)->Arg(256);

void BM_BatchEvaluate(benchmark::State& state) {
  // Population-level parallelism: one whole candidate per worker (the
  // software analogue of one candidate per physical array).
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::vector<evo::Genotype> population = bench_population(count);
  const img::Image src = img::make_scene(128, 128, 3);
  const img::Image ref = img::make_scene(128, 128, 4);
  const evo::BatchEvaluator evaluator(src, ref, &ThreadPool::global());
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate_genotypes(population));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * 128 * 128));
}
BENCHMARK(BM_BatchEvaluate)->Arg(9)->Arg(16);

void BM_InnerRowParallel(benchmark::State& state) {
  // The pre-batch approach: candidates sequential, rows parallel inside
  // each candidate — one fork/join barrier per candidate.
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::vector<evo::Genotype> population = bench_population(count);
  const img::Image src = img::make_scene(128, 128, 3);
  const img::Image ref = img::make_scene(128, 128, 4);
  for (auto _ : state) {
    Fitness acc = 0;
    for (const evo::Genotype& g : population) {
      const pe::CompiledArray compiled(g.to_array());
      acc += compiled.fitness_against(src, ref, &ThreadPool::global());
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * 128 * 128));
}
BENCHMARK(BM_InnerRowParallel)->Arg(9)->Arg(16);

void BM_DefectiveRowKernel(benchmark::State& state) {
  // The defective-cell row path: same mesh as BM_FitnessAgainst but with
  // two dummy PEs injected, so the vectorized SplitMix64 lane kernel
  // (pe/simd.hpp defective_row) carries part of every row.
  const auto size = static_cast<std::size_t>(state.range(0));
  pe::SystolicArray mesh = bench_genotype().to_array();
  pe::CellConfig dead;
  dead.defective = true;
  dead.defect_seed = 0xD00D;
  mesh.set_cell(0, 1, dead);
  dead.defect_seed = 0xBEEF;
  mesh.set_cell(2, 2, dead);
  const pe::CompiledArray compiled(mesh);
  const img::Image src = img::make_scene(size, size, 3);
  const img::Image ref = img::make_scene(size, size, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.fitness_against(src, ref));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size * size));
}
BENCHMARK(BM_DefectiveRowKernel)->Arg(64)->Arg(256);

void BM_FitnessMemoWarmReplay(benchmark::State& state) {
  // A warm identical population wave served from the FitnessMemo: what a
  // replayed mission pays per candidate instead of streaming the frame.
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::vector<evo::Genotype> population = bench_population(count);
  const img::Image src = img::make_scene(128, 128, 3);
  const img::Image ref = img::make_scene(128, 128, 4);
  evo::FitnessMemo memo(1 << 12);
  const evo::BatchEvaluator evaluator(src, ref, nullptr, &memo);
  benchmark::DoNotOptimize(evaluator.evaluate_genotypes(population));  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate_genotypes(population));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * 128 * 128));
  state.counters["memo_hit_rate"] = memo.stats().hit_rate();
}
BENCHMARK(BM_FitnessMemoWarmReplay)->Arg(9)->Arg(16);

void BM_JobDispatch(benchmark::State& state) {
  // Dispatch cost of the host pool ArrayPool runs job bodies on: N no-op
  // job bodies through submit + drain. Compare BM_ThreadPerJobDispatch
  // for what the scheduler would pay creating a thread per job.
  const auto jobs = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(2);
  for (auto _ : state) {
    std::atomic<std::size_t> done{0};
    for (std::size_t j = 0; j < jobs; ++j) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    while (done.load(std::memory_order_relaxed) != jobs) {
      std::this_thread::yield();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_JobDispatch)->Arg(64);

void BM_ThreadPerJobDispatch(benchmark::State& state) {
  // The thread-per-job execution model: one host thread created and
  // joined per job body.
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::atomic<std::size_t> done{0};
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      threads.emplace_back(
          [&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    for (std::thread& t : threads) t.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_ThreadPerJobDispatch)->Arg(64);

void BM_AggregatedMae(benchmark::State& state) {
  const img::Image a = img::make_scene(128, 128, 5);
  const img::Image b = img::make_scene(128, 128, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::aggregated_mae(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          128 * 128);
}
BENCHMARK(BM_AggregatedMae);

void BM_Mutation(benchmark::State& state) {
  Rng rng(9);
  evo::Genotype g = bench_genotype();
  for (auto _ : state) {
    benchmark::DoNotOptimize(evo::mutate(g, 3, rng));
  }
}
BENCHMARK(BM_Mutation);

void BM_TwoLevelOffspring(benchmark::State& state) {
  Rng rng(10);
  const evo::Genotype parent = bench_genotype();
  for (auto _ : state) {
    benchmark::DoNotOptimize(evo::two_level_offspring(parent, 9, 3, 3, rng));
  }
}
BENCHMARK(BM_TwoLevelOffspring);

void BM_PlatformConfigureDiff(benchmark::State& state) {
  platform::PlatformConfig pc;
  pc.num_arrays = 1;
  pc.line_width = 64;
  platform::EvolvablePlatform plat(pc);
  Rng rng(11);
  evo::Genotype g = bench_genotype();
  plat.configure_array(0, g, 0);
  for (auto _ : state) {
    evo::mutate(g, 1, rng);
    benchmark::DoNotOptimize(plat.configure_array(0, g, 0));
  }
}
BENCHMARK(BM_PlatformConfigureDiff);

void BM_DecodeArray(benchmark::State& state) {
  platform::PlatformConfig pc;
  pc.num_arrays = 1;
  pc.line_width = 64;
  platform::EvolvablePlatform plat(pc);
  plat.configure_array(0, bench_genotype(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plat.decode_array(0));
  }
}
BENCHMARK(BM_DecodeArray);

void BM_MissionImages(benchmark::State& state) {
  // One edge mission's frames (scene + Sobel reference) at a service-small
  // and a service-large size, serially (/0) and on a 4-thread host pool
  // (/4). Wall time: the pool's workers do most of the work.
  const auto size = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  ThreadPool pool(threads == 0 ? 1 : threads);
  sched::MissionSpec spec;
  spec.kind = sched::MissionKind::kEdge;
  spec.size = size;
  for (auto _ : state) {
    const sched::MissionImages images =
        sched::make_mission_images(spec, threads == 0 ? nullptr : &pool);
    benchmark::DoNotOptimize(images.reference.row(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size * size));
}
BENCHMARK(BM_MissionImages)
    ->Args({64, 0})->Args({64, 4})->Args({448, 0})->Args({448, 4})
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_SchedulerThroughput(benchmark::State& state) {
  // Multi-mission scheduler: 8 identical single-lane denoise missions on
  // an 8-array pool with 1/4/8 jobs admitted concurrently. Wall time
  // measures host-side multiplexing overhead; the counters record the
  // pool's *simulated* schedule (missions per simulated second and the
  // speedup over one-at-a-time), which is the hardware-faithful
  // throughput metric and is host-independent.
  const auto concurrency = static_cast<std::size_t>(state.range(0));
  sched::MissionSpec spec;
  spec.kind = sched::MissionKind::kDenoise;
  spec.lanes = 1;
  spec.size = 32;
  spec.generations = 30;
  sched::ArrayPool::ScheduleReport report;
  for (auto _ : state) {
    sched::PoolConfig config;
    config.num_arrays = 8;
    config.max_concurrent_jobs = concurrency;
    sched::ArrayPool pool(config);
    for (int j = 0; j < 8; ++j) {
      // snprintf instead of string concatenation: gcc 12 -O3 trips a
      // -Wrestrict false positive on operator+(const char*, string&&).
      char name[8];
      std::snprintf(name, sizeof name, "m%d", j);
      spec.name = name;
      spec.seed = static_cast<std::uint64_t>(100 + j);
      pool.submit(sched::make_job_config(spec), sched::make_job_body(spec));
    }
    report = pool.simulated_schedule();
    benchmark::DoNotOptimize(report.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
  state.counters["missions_per_sim_s"] = report.missions_per_sim_second();
  state.counters["sim_speedup"] = report.speedup();
}
BENCHMARK(BM_SchedulerThroughput)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ServiceThroughput(benchmark::State& state) {
  // The mission service end to end: one daemon over an 8-array pool, N
  // concurrent client connections each submitting a stream of short
  // single-lane denoise missions over loopback TCP and blocking on the
  // result. items/s == missions/s through the full protocol +
  // scheduler + evolution stack (host wall-clock, unlike the simulated
  // BM_SchedulerThroughput metric). The daemon is wired as `mpa serve`
  // wires it: job bodies and their fan-out share one host pool.
  const auto clients = static_cast<std::size_t>(state.range(0));
  constexpr int kMissionsPerClient = 4;
  ThreadPool host_pool;
  svc::ServerConfig config;
  config.pool.num_arrays = 8;
  config.pool.host_pool = &host_pool;
  config.max_inflight = 64;
  svc::Server server(config);
  std::atomic<std::uint64_t> completed{0};
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&server, &completed, c] {
        svc::Client client(server.port());
        sched::MissionSpec spec;
        spec.kind = sched::MissionKind::kDenoise;
        spec.lanes = 1;
        spec.size = 32;
        spec.generations = 30;
        for (int j = 0; j < kMissionsPerClient; ++j) {
          char name[16];
          std::snprintf(name, sizeof name, "c%zu-m%d", c, j);
          spec.name = name;
          spec.seed = 100 + static_cast<std::uint64_t>(j);
          const svc::Client::Submitted submitted = client.submit(spec);
          if (!submitted.ok) continue;
          const Json result = client.result(submitted.job);
          if (result.get_string("status", "") == "done") {
            completed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // items/s divides by the measuring thread's CPU time, which mostly
  // sleeps here; the honest service throughput is missions per WALL
  // second, recorded as an explicit counter.
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  state.SetItemsProcessed(static_cast<std::int64_t>(completed.load()));
  state.counters["missions_per_wall_s"] =
      wall_seconds > 0.0
          ? static_cast<double>(completed.load()) / wall_seconds
          : 0.0;
  server.drain();
  server.wait_drained();
  server.stop();
}
BENCHMARK(BM_ServiceThroughput)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PlacementPolicy(benchmark::State& state) {
  // Raw routing cost: one place() over 8 targets, cycling 16 mission
  // fingerprints so the affinity table serves a mix of warm hits and
  // cold insertions — the per-submit overhead a forwarder or pool group
  // adds on top of the scheduler.
  sched::PlacementPolicy policy;
  std::vector<sched::PlacementTarget> targets(8);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i].total_arrays = 8;
    targets[i].free_arrays = 4 + i % 4;
    targets[i].running = 4 - i % 4;
    targets[i].queued = i % 3;
  }
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy.place(0x9E3779B97F4A7C15ULL * (1 + key++ % 16), 1, targets));
  }
  const sched::PlacementPolicy::Stats stats = policy.stats();
  state.counters["affinity_hit_rate"] =
      stats.placed == 0 ? 0.0
                        : static_cast<double>(stats.affinity_hits) /
                              static_cast<double>(stats.placed);
}
BENCHMARK(BM_PlacementPolicy);

void BM_ClusterThroughput(benchmark::State& state) {
  // The federation layer's cache-locality win, sized for a single-core
  // host: 8 distinct mission fingerprints (distinct scene_seeds)
  // submitted round-robin through a forwarder over N backends. Each
  // backend's FitnessMemo/compiled cache holds ~5 missions' entries, so
  // one backend interleaving all 8 fingerprints evicts each mission's
  // warm state before it repeats (cyclic LRU thrash, every round cold),
  // while affinity routing over 2/4 backends parks each fingerprint on
  // a backend whose working set fits — every repeat replays from the
  // memo and skips compilation + frame streaming. The N=1 baseline runs
  // behind a forwarder too, so the comparison isolates warmth, not
  // protocol hops. Results are bit-identical either way; only host
  // wall time moves (missions_per_wall_s is the honest metric).
  const auto backends = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kFingerprints = 8;
  constexpr int kRoundsPerIteration = 2;
  std::vector<std::unique_ptr<svc::Server>> servers;
  svc::ForwarderConfig front;
  for (std::size_t i = 0; i < backends; ++i) {
    svc::ServerConfig config;
    config.pool.num_arrays = 2;
    config.pool.line_width = 64;
    config.pool.cache_capacity = 1000;
    config.pool.fitness_memo_capacity = 1000;
    servers.push_back(std::make_unique<svc::Server>(config));
    svc::BackendConfig backend;
    backend.port = servers.back()->port();
    front.backends.push_back(backend);
  }
  front.poll_ms = 200;
  svc::Forwarder forwarder(std::move(front));
  svc::Client client(forwarder.port());
  sched::MissionSpec spec;
  spec.kind = sched::MissionKind::kDenoise;
  spec.lanes = 1;
  spec.size = 320;  // frame streaming dominates a cold mission's cost
  spec.generations = 3;
  spec.lambda = 60;  // same candidate count, fewer wave barriers
  std::uint64_t completed = 0;
  std::uint64_t serial = 0;
  const auto run_round = [&](std::uint64_t* counter) {
    for (std::size_t k = 0; k < kFingerprints; ++k) {
      char name[24];
      std::snprintf(name, sizeof name, "cl-%llu",
                    static_cast<unsigned long long>(serial++));
      spec.name = name;
      spec.scene_seed = 40 + k;  // the fingerprint: everything else fixed
      const svc::Client::Submitted submitted = client.submit(spec);
      if (!submitted.ok) continue;
      const Json result = client.result(submitted.job);
      if (counter != nullptr &&
          result.get_string("status", "") == "done") {
        ++*counter;
      }
    }
  };
  run_round(nullptr);  // warmup: placement learned, caches primed/thrashed
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    for (int round = 0; round < kRoundsPerIteration; ++round) {
      run_round(&completed);
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.counters["missions_per_wall_s"] =
      wall_seconds > 0.0 ? static_cast<double>(completed) / wall_seconds : 0.0;
  evo::FitnessMemoStats memo;
  for (const auto& server : servers) {
    const evo::FitnessMemoStats s = server->group().memo_stats();
    memo.hits += s.hits;
    memo.misses += s.misses;
    memo.evictions += s.evictions;
  }
  state.counters["memo_hit_rate"] = memo.hit_rate();
  const Json front_stats = client.stats();
  if (const Json* placement = front_stats.get("placement")) {
    const double placed = placement->get_number("placed", 0);
    state.counters["affinity_rate"] =
        placed > 0 ? placement->get_number("affinity_hits", 0) / placed : 0.0;
  }
  const svc::ForwarderStats routed = forwarder.forwarder_stats();
  state.counters["failovers"] = static_cast<double>(routed.failovers);
  forwarder.stop();
  for (const auto& server : servers) server->stop();
}
BENCHMARK(BM_ClusterThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_TelemetryOverhead(benchmark::State& state) {
  // The telemetry fast path as it sits in the hot loops: one span guard
  // plus a counter bump and a histogram record per iteration. Arg(0)
  // runs disarmed — the shape every bench and library embedder pays,
  // which the 25% bench-diff gate holds near-free — and Arg(1) runs
  // armed to price the ring writes a live `mpa trace` turns on.
  const bool armed = state.range(0) != 0;
  obs::Tracer& tracer = obs::Tracer::global();
  if (armed) {
    tracer.arm();
  } else {
    tracer.disarm();
  }
  obs::Registry registry;
  obs::Counter& ops = registry.counter("bench_ops_total");
  obs::Histogram& latency = registry.histogram("bench_latency_ns");
  std::uint64_t tick = 1;
  for (auto _ : state) {
    EHW_TRACE_SPAN("bench_overhead");
    ops.add();
    latency.record(tick);
    benchmark::DoNotOptimize(tick += 7);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["spans_dropped"] = static_cast<double>(tracer.dropped());
  tracer.disarm();
  tracer.clear();
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1);

void BM_MedianGolden(benchmark::State& state) {
  const img::Image src = img::make_scene(128, 128, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(img::median3x3(src));
  }
}
BENCHMARK(BM_MedianGolden);

}  // namespace

BENCHMARK_MAIN();
