#include "ehw/svc/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <map>
#include <random>

#include "ehw/common/fault.hpp"
#include "ehw/common/persist.hpp"
#include "ehw/common/rng.hpp"
#include "ehw/common/version.hpp"
#include "ehw/obs/trace.hpp"
#include "ehw/sched/checkpoint_store.hpp"

namespace ehw::svc {
namespace {

/// Result body of a mission that failed before producing an outcome.
Json failed_result(const std::string& error) {
  Json body = Json::object();
  body.set("status", status_name(sched::JobStatus::kFailed));
  body.set("error", error);
  return body;
}

/// One pool-counters object (the "pool" aggregate and each "pools" row
/// share the shape).
Json pool_stats_json(const sched::ArrayPool::PoolStats& stats) {
  Json pool = Json::object();
  pool.set("arrays", static_cast<std::uint64_t>(stats.num_arrays));
  pool.set("free_arrays", static_cast<std::uint64_t>(stats.free_arrays));
  pool.set("running", static_cast<std::uint64_t>(stats.running));
  pool.set("queued", static_cast<std::uint64_t>(stats.queued));
  pool.set("submitted", stats.submitted);
  pool.set("done", stats.done);
  pool.set("failed", stats.failed);
  pool.set("cancelled", stats.cancelled);
  pool.set("quarantined", static_cast<std::uint64_t>(stats.quarantined));
  pool.set("healthy", static_cast<std::uint64_t>(stats.healthy()));
  pool.set("preempted", stats.preempted);
  pool.set("deadline_expired", stats.deadline_expired);
  return pool;
}

/// Exact non-negative integer out of a record field, or nullopt.
std::optional<std::uint64_t> record_id(const Json& record, const char* key) {
  const Json* field = record.get(key);
  if (field == nullptr || !field->is_number()) return std::nullopt;
  const double value = field->as_number();
  if (!json_number_is_exact_int(value) || value < 0) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.pools == 0) config_.pools = 1;
  max_inflight_ = config_.max_inflight != 0
                      ? config_.max_inflight
                      : 2 * config_.pools * config_.pool.num_arrays;
  sched::PoolGroupConfig group_config;
  group_config.pools = config_.pools;
  group_config.pool = config_.pool;
  group_ = std::make_unique<sched::PoolGroup>(group_config);
  // Identity first: the greeting/stats of the fresh incarnation must
  // already carry the bumped epoch when the first client connects.
  mint_identity();
  // Replay before the listener exists: clients connecting to the fresh
  // incarnation already see every surviving job, and resumed missions
  // are back in flight before the first new submit competes for lanes.
  replay_journal();
  Json hello = Json::object();
  hello.set("instance_id", instance_id_);
  hello.set("epoch", epoch_);
  Endpoint::Ops ops = {
      {"submit", Endpoint::op(this, &Server::handle_submit)},
      {"submit_batch", Endpoint::op(this, &Server::handle_submit_batch)},
      {"status", Endpoint::op(this, &Server::handle_status)},
      {"result", Endpoint::op(this, &Server::handle_result)},
      {"cancel", Endpoint::op(this, &Server::handle_cancel)},
      {"list", Endpoint::op(this, &Server::handle_list)},
      {"stats", Endpoint::op(this, &Server::handle_stats)},
      {"health", Endpoint::op(this, &Server::handle_health)},
      {"drain", Endpoint::op(this, &Server::handle_drain)},
      {"trace", Endpoint::op(this, &Server::handle_trace)},
      {"watch", Endpoint::op(this, &Server::handle_watch)},
  };
  endpoint_ = std::make_unique<Endpoint>(config_, std::move(hello),
                                         std::move(ops), m_connections_);
  endpoint_->start();
}

Server::~Server() { stop(); }

void Server::mint_identity() {
  // Fresh identity by default (non-durable daemons ARE new instances on
  // every start — there is no state a peer could mistake for current).
  std::uint64_t entropy = 0;
  try {
    std::random_device rd;
    entropy = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  } catch (...) {
    // A throwing random_device leaves the time/pid mix below.
  }
  entropy = hash_mix(entropy, obs::Tracer::now_ns(),
                     static_cast<std::uint64_t>(::getpid()));
  instance_id_ = hash_hex(entropy);
  epoch_ = 1;
  if (config_.journal_dir.empty()) return;
  static_cast<void>(ensure_directory(config_.journal_dir));
  const std::string path = config_.journal_dir + "/instance.json";
  std::string text;
  if (read_file_text(path, text).empty()) {
    try {
      const Json doc = Json::parse(text);
      const std::string stored = doc.get_string("instance_id", "");
      const double stored_epoch = doc.get_number("epoch", 0);
      if (!stored.empty() && stored_epoch >= 1 &&
          json_number_is_exact_int(stored_epoch)) {
        instance_id_ = stored;
        epoch_ = static_cast<std::uint64_t>(stored_epoch) + 1;
      }
    } catch (const JsonError&) {
      // Corrupt identity sidecar: keep the fresh identity — peers see a
      // brand-new backend, which is the safe direction (cold rejoin).
    }
  }
  Json doc = Json::object();
  doc.set("instance_id", instance_id_);
  doc.set("epoch", epoch_);
  static_cast<void>(atomic_write_file(path, doc.dump() + "\n"));
}

std::uint64_t Server::retry_after_ms_locked(std::size_t incoming) const {
  // Expected wait until `incoming` slots free: the backlog that must
  // terminate first, drained at the pool's parallelism, each taking
  // about the observed median mission wall time. A cold daemon (no
  // completed mission yet) hints a flat 100 ms probe.
  const obs::Histogram::Snapshot wall = m_mission_wall_.snapshot();
  const double per_mission_ms =
      wall.count > 0 ? wall.quantile(0.50) / 1e6 : 100.0;
  const double parallel = static_cast<double>(
      std::max<std::size_t>(1, config_.pools * config_.pool.num_arrays));
  const double backlog = static_cast<double>(inflight_) +
                         static_cast<double>(incoming) -
                         static_cast<double>(max_inflight_) + 1.0;
  const double hint = per_mission_ms * std::max(1.0, backlog / parallel);
  return static_cast<std::uint64_t>(std::clamp(hint, 25.0, 60000.0));
}

void Server::replay_journal() {
  if (config_.journal_dir.empty()) return;
  const MissionJournal::Replay replay =
      MissionJournal::replay(config_.journal_dir);
  journal_ = std::make_unique<MissionJournal>(config_.journal_dir);
  replayed_records_ = replay.records.size();
  journal_corrupt_ = replay.corrupt;
  journal_truncated_tail_ = replay.truncated_tail;

  // Warm state first, so resumed missions hit the warmed memo/cache.
  if (config_.persist_warm) {
    std::string text;
    if (read_file_text(journal_->warm_path(), text).empty()) {
      try {
        const sched::ArrayPool::WarmLoadStats warm =
            group_->import_warm_state(Json::parse(text));
        warm_memo_loaded_ = warm.memo_loaded;
        warm_cache_loaded_ = warm.cache_loaded;
      } catch (const JsonError&) {
        // A corrupt warm file costs only recomputation, never recovery.
      }
    }
  }

  // Fold the record stream into per-job final states. "submitted" is the
  // write-ahead anchor: a job with no "finished" record is resubmitted
  // whether or not it ever "started" (the crash may have landed between
  // the ack and the launch).
  struct ReplayedJob {
    sched::MissionSpec spec;
    bool have_spec = false;
    bool finished = false;
    std::string status;
    std::uint64_t waves = 0;
    Json result;
  };
  std::map<std::uint64_t, ReplayedJob> by_id;
  for (const Json& record : replay.records) {
    const std::string rec = record.get_string("rec", "");
    const std::optional<std::uint64_t> id = record_id(record, "job");
    if (!id.has_value()) {
      ++journal_corrupt_;
      continue;
    }
    ReplayedJob& job = by_id[*id];
    if (rec == "submitted") {
      const Json* spec_field = record.get("spec");
      if (spec_field == nullptr ||
          !spec_from_json(*spec_field, job.spec).empty()) {
        ++journal_corrupt_;
        by_id.erase(*id);
        continue;
      }
      job.have_spec = true;
    } else if (rec == "started") {
      // Informational; resubmission keys off "finished" alone.
    } else if (rec == "finished") {
      job.finished = true;
      job.status = record.get_string("status", "failed");
      job.waves = record_id(record, "waves").value_or(0);
      if (const Json* result = record.get("result")) job.result = *result;
    } else {
      ++journal_corrupt_;
    }
  }
  if (!by_id.empty()) next_job_id_ = by_id.rbegin()->first + 1;

  for (auto& [id, job] : by_id) {
    if (!job.have_spec) {
      // A finished/started orphan (its submitted record was the torn
      // line). Nothing actionable without a spec.
      ++journal_corrupt_;
      continue;
    }
    auto record = std::make_shared<JobRecord>();
    record->id = id;
    record->spec = job.spec;
    // Unfinished across the crash: lane demand is re-validated against
    // THIS pool layout (a restart may have shrunk it); a mission that no
    // longer fits finishes failed here.
    if (const std::string lanes = lanes_error(record->spec);
        !job.finished && !lanes.empty()) {
      job.finished = true;
      job.status = status_name(sched::JobStatus::kFailed);
      job.result = failed_result("recovery: " + lanes);
      journal_finished(id, sched::JobStatus::kFailed, 0, job.result);
    }
    if (job.finished) {
      record->journaled = std::move(job.result);
      record->journal_status =
          job.status.empty() ? std::string("failed") : job.status;
      record->journal_waves = job.waves;
      record->replayed_from_journal = true;
      ++replayed_finished_;
      std::lock_guard lock(state_mutex_);
      jobs_.emplace(id, std::move(record));
      continue;
    }
    const std::string ckpt_path = journal_->checkpoint_path(id);
    if (file_exists(ckpt_path)) {
      sched::MissionSpec saved_spec;
      auto checkpoint = std::make_shared<platform::MissionCheckpoint>();
      if (sched::load_mission_checkpoint(ckpt_path, saved_spec, *checkpoint)
              .empty()) {
        record->resume = std::move(checkpoint);
        ++resumed_from_checkpoint_;
      }
      // A bad checkpoint file is dropped: a from-scratch rerun is still
      // bit-identical, just slower.
    }
    {
      std::lock_guard lock(state_mutex_);
      // Recovery may momentarily exceed max_inflight_: work admitted
      // before the crash takes precedence over fresh submissions.
      ++inflight_;
      m_inflight_.set(static_cast<double>(inflight_));
    }
    m_submitted_.add();
    ++resumed_;
    record->submitted_ns = obs::Tracer::now_ns();
    launch_job(record);
  }
}

void Server::journal_submitted(const JobRecord& record) {
  if (journal_ == nullptr) return;
  Json rec = Json::object();
  rec.set("rec", "submitted");
  rec.set("v", static_cast<std::uint64_t>(1));
  rec.set("job", record.id);
  rec.set("spec", spec_to_json(record.spec));
  static_cast<void>(journal_->append(rec));
}

void Server::journal_finished(std::uint64_t id, sched::JobStatus status,
                              std::uint64_t waves, const Json& result) {
  if (journal_ == nullptr) return;
  Json rec = Json::object();
  rec.set("rec", "finished");
  rec.set("job", id);
  rec.set("status", status_name(status));
  rec.set("waves", waves);
  rec.set("result", result);
  static_cast<void>(journal_->append(rec));
  static_cast<void>(remove_file(journal_->checkpoint_path(id)));
}

void Server::drain() {
  {
    std::lock_guard lock(state_mutex_);
    draining_.store(true, std::memory_order_relaxed);
  }
  state_cv_.notify_all();
}

void Server::wait_drained() {
  std::unique_lock lock(state_mutex_);
  state_cv_.wait(lock, [this] {
    return draining_.load(std::memory_order_relaxed) && inflight_ == 0;
  });
}

void Server::stop() {
  if (stopped_) return;
  endpoint_->close();
  // Let in-flight jobs finish first: sessions blocked in a "result" op
  // only unblock when their job does.
  group_->wait_all();
  endpoint_->join();
  // A session may have submitted between the first wait and its join.
  group_->wait_all();
  // Durable daemons snapshot memo + cache recipes on the way out; the
  // next incarnation preloads them (pure optimization, loss is benign).
  if (journal_ != nullptr && config_.persist_warm) {
    static_cast<void>(atomic_write_file(
        journal_->warm_path(), group_->export_warm_state().dump() + "\n"));
  }
  stopped_ = true;
}

ServiceStats Server::service_stats() const {
  ServiceStats stats;
  stats.sessions_open = endpoint_->sessions_open();
  {
    std::lock_guard lock(state_mutex_);
    stats.inflight = inflight_;
  }
  // Counters are registry-backed (relaxed atomics): same numbers the
  // Prometheus endpoint scrapes, same wire shape as before.
  stats.connections = m_connections_.value();
  stats.max_inflight = max_inflight_;
  stats.draining = draining_.load(std::memory_order_relaxed);
  stats.submitted = m_submitted_.value();
  stats.rejected = m_rejected_.value();
  stats.migrations = m_migrations_.value();
  stats.instance_id = instance_id_;
  stats.epoch = epoch_;
  return stats;
}

JournalStats Server::journal_stats() const {
  JournalStats stats;
  if (journal_ == nullptr) return stats;
  // Replay-time fields are constants after the constructor; only the
  // counters below move.
  stats.enabled = true;
  stats.replayed_records = replayed_records_;
  stats.replayed_finished = replayed_finished_;
  stats.resumed = resumed_;
  stats.resumed_from_checkpoint = resumed_from_checkpoint_;
  stats.corrupt = journal_corrupt_;
  stats.truncated_tail = journal_truncated_tail_;
  stats.warm_memo_loaded = warm_memo_loaded_;
  stats.warm_cache_loaded = warm_cache_loaded_;
  stats.checkpoints_written = m_checkpoints_written_.value();
  stats.appended = journal_->appended();
  return stats;
}

Json Server::handle_submit(const Json& request) {
  EHW_TRACE_SPAN("submit");
  const std::uint64_t admit_start_ns = obs::Tracer::now_ns();
  const Json* spec_field = request.get("spec");
  if (spec_field == nullptr) {
    return make_error("submit needs a 'spec' object", "bad_request");
  }
  auto record = std::make_shared<JobRecord>();
  const std::string spec_error = spec_from_json(*spec_field, record->spec);
  if (!spec_error.empty()) return make_error(spec_error, "bad_spec");
  if (const std::string lanes = lanes_error(record->spec); !lanes.empty()) {
    return make_error(lanes, "bad_spec");
  }
  // Optional resume state (protocol v1, additive): a checkpoint emitted
  // by a previous incarnation of this mission — how the forwarder fails
  // a half-run mission over to a surviving backend without losing its
  // generations. Malformed state rejects the submit; silently starting
  // from scratch would hide the data loss.
  if (const Json* resume_field = request.get("resume")) {
    auto resume = std::make_shared<platform::MissionCheckpoint>();
    const std::string resume_error =
        platform::mission_checkpoint_from_json(*resume_field, *resume);
    if (!resume_error.empty()) {
      return make_error("bad resume checkpoint: " + resume_error,
                        "bad_request");
    }
    record->resume = std::move(resume);
  }
  record->submitted_ns = admit_start_ns;
  if (std::optional<Json> refused = admit({record}, /*batch=*/false)) {
    return *refused;
  }
  Json response = make_ok();
  response.set("job", record->id);
  response.set("name", record->spec.name);
  return response;
}

Json Server::handle_submit_batch(const Json& request) {
  EHW_TRACE_SPAN("submit");
  const std::uint64_t admit_start_ns = obs::Tracer::now_ns();
  std::vector<sched::MissionSpec> specs;
  const std::string parse_error = batch_specs_from_json(request, specs);
  if (!parse_error.empty()) return make_error(parse_error, "bad_spec");
  std::vector<std::shared_ptr<JobRecord>> records;
  records.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (const std::string lanes = lanes_error(specs[i]); !lanes.empty()) {
      return make_error("spec " + std::to_string(i) + ": " + lanes,
                        "bad_spec");
    }
    auto record = std::make_shared<JobRecord>();
    record->spec = std::move(specs[i]);
    record->submitted_ns = admit_start_ns;
    records.push_back(std::move(record));
  }
  // Atomic admission: the batch reserves all its inflight slots or none,
  // so a swarm client never has to unpick a half-accepted manifest.
  if (std::optional<Json> refused = admit(records, /*batch=*/true)) {
    return *refused;
  }
  Json jobs = Json::array();
  for (const std::shared_ptr<JobRecord>& record : records) {
    Json entry = Json::object();
    entry.set("job", record->id);
    entry.set("name", record->spec.name);
    jobs.push_back(std::move(entry));
  }
  Json response = make_ok();
  response.set("jobs", std::move(jobs));
  return response;
}

std::string Server::lanes_error(const sched::MissionSpec& spec) const {
  // Lanes are capped per pool — a lease never spans pools.
  if (spec.lanes <= group_->arrays_per_pool()) return "";
  return "lanes=" + std::to_string(spec.lanes) + " exceeds the pool's " +
         std::to_string(group_->arrays_per_pool()) + " arrays";
}

std::optional<Json> Server::admit(
    const std::vector<std::shared_ptr<JobRecord>>& records, bool batch) {
  const std::size_t count = records.size();
  {
    std::lock_guard lock(state_mutex_);
    if (draining_.load(std::memory_order_relaxed)) {
      m_rejected_.add(count);
      return make_error("service is draining; not accepting new missions",
                        "draining");
    }
    if (inflight_ + count > max_inflight_) {
      m_rejected_.add(count);
      const std::string load =
          std::to_string(inflight_) + " missions in flight";
      const std::string cap = std::to_string(max_inflight_);
      Json response = make_error(
          batch ? "rejected: batch of " + std::to_string(count) +
                      " does not fit (" + load + ", cap " + cap + ")"
                : "rejected: " + load + " (cap " + cap + ")",
          "queue_full");
      response.set("rejected", "queue_full");
      response.set("retry_after_ms", retry_after_ms_locked(count));
      return response;
    }
    inflight_ += count;
    m_inflight_.set(static_cast<double>(inflight_));
    for (const std::shared_ptr<JobRecord>& record : records) {
      record->id = next_job_id_++;
    }
  }
  m_submitted_.add(count);
  for (const std::shared_ptr<JobRecord>& record : records) {
    // Write-ahead: the "submitted" record lands before the launch (and
    // before the ack), so a crash anywhere after this line still
    // resubmits the mission on restart.
    journal_submitted(*record);
    launch_job(record);
  }
  // Admission-to-ack latency: spec validation + write-ahead journal +
  // pool placement, from the stamp the handler put on every record. The
  // ack write itself is the session loop's.
  m_submit_latency_.record(obs::Tracer::now_ns() -
                           records.front()->submitted_ns);
  return std::nullopt;
}

void Server::launch_job(const std::shared_ptr<JobRecord>& record) {
  if (journal_ != nullptr) {
    Json rec = Json::object();
    rec.set("rec", "started");
    rec.set("job", record->id);
    static_cast<void>(journal_->append(rec));
  }
  // Every job checkpoints through a sink that keeps its latest boundary
  // state in memory — that state is what a lane-quarantine migration
  // restores, journal or not. Journaled daemons additionally persist to
  // the per-job sidecar (atomic replace, latest wins) on the configured
  // cadence and resume from any state recovered at replay.
  sched::MissionCheckpointing checkpointing;
  checkpointing.resume = record->resume;
  std::string sidecar;
  if (journal_ != nullptr && config_.checkpoint_every != 0) {
    checkpointing.every = config_.checkpoint_every;
    sidecar = journal_->checkpoint_path(record->id);
  }
  {
    const sched::MissionSpec spec = record->spec;
    obs::Counter* written = &m_checkpoints_written_;
    checkpointing.sink = [this, record, spec, sidecar,
                          written](const platform::MissionCheckpoint& state) {
      auto holder = std::make_shared<platform::MissionCheckpoint>(state);
      {
        std::lock_guard lock(state_mutex_);
        record->latest = std::move(holder);
      }
      if (!sidecar.empty()) {
        EHW_TRACE_SPAN("checkpoint_write");
        if (sched::save_mission_checkpoint(sidecar, spec, state).empty()) {
          written->add();
        }
      }
    };
  }
  sched::JobConfig config = sched::make_job_config(record->spec);
  if (record->grant_lanes != 0) config.lanes = record->grant_lanes;
  // Pool submission happens OUTSIDE state_mutex_: admit_locked's
  // dispatch-failure path synchronously fires a queued job's kFinished
  // observer, which locks state_mutex_ on this thread. The group places
  // the job by the spec's fingerprint (capacity + cache locality).
  const sched::PoolGroup::Placed placed = group_->submit(
      record->spec, config, sched::make_job_body(record->spec, checkpointing));
  const std::shared_ptr<sched::MissionRunner> runner = placed.runner;
  std::vector<std::function<void(const sched::MissionEvent&)>> watchers;
  {
    std::lock_guard lock(state_mutex_);
    record->runner = runner;
    record->pool_index = placed.pool;
    jobs_.emplace(record->id, record);
    prune_finished_locked();
    watchers = record->watchers;
  }
  // Result waiters poll record->runner; a migration just swapped it.
  state_cv_.notify_all();
  // The pool's own record of finished jobs (body closure, outcome
  // reference) is redundant once the service holds the runner — reap it
  // so daemon memory stays bounded over long uptimes.
  static_cast<void>(group_->reap_finished());
  // Also outside state_mutex_: an already-finished job fires the
  // callback immediately on THIS thread.
  runner->subscribe([this, record, runner](const sched::MissionEvent& event) {
    if (event.kind != sched::MissionEvent::Kind::kFinished) return;
    if (event.status == sched::JobStatus::kPreempted) {
      // The slice is being pulled out from under the mission (lane
      // quarantine): hop to a healthy slice instead of finishing. The
      // inflight slot stays held across the hop.
      migrate_job(record);
      return;
    }
    if (journal_ != nullptr) {
      // Safe here: MissionRunner::finish stores the outcome before it
      // fires kFinished observers. This append is the commit point —
      // after it, replay re-serves the result instead of re-running.
      journal_finished(record->id, event.status, event.waves,
                       outcome_to_json(record->spec.kind, event.status,
                                       runner->result()));
    }
    // Wall time covers admission to terminal finish (across migrations:
    // the stamp survives relaunches); sim time is the mission's own
    // platform makespan. Safe to read here — finish() stored it already.
    if (record->submitted_ns != 0) {
      m_mission_wall_.record(obs::Tracer::now_ns() - record->submitted_ns);
    }
    m_mission_sim_.record(runner->sim_duration());
    {
      std::lock_guard lock(state_mutex_);
      --inflight_;
      m_inflight_.set(static_cast<double>(inflight_));
    }
    state_cv_.notify_all();
  });
  // Watch streams survive migrations: re-attach them to this incarnation.
  for (const auto& watcher : watchers) runner->subscribe(watcher);
}

void Server::migrate_job(const std::shared_ptr<JobRecord>& record) {
  std::shared_ptr<const platform::MissionCheckpoint> resume;
  std::uint64_t waves = 0;
  {
    std::lock_guard lock(state_mutex_);
    resume = record->latest;
    if (record->runner != nullptr) waves = record->runner->waves_completed();
  }
  // A migration may land on ANY pool with room — the relaunch goes back
  // through group placement, so size the grant by the best single pool.
  const std::size_t healthy = group_->max_healthy_arrays();
  std::string error;
  if (resume == nullptr) {
    // Preempted before any generation boundary emitted state — nothing
    // to restore (the driver emits a final checkpoint through the sink
    // whenever it honors a preempt, so this is the zero-progress case).
    error = "preempted with no checkpoint to migrate from";
  } else if (healthy == 0) {
    error = "no healthy arrays left";
  } else if (record->spec.kind == sched::MissionKind::kCascade &&
             record->spec.lanes > healthy) {
    // A cascade's width IS its structure (one array per chain stage):
    // it only migrates onto an equally wide healthy slice.
    error = "cascade needs " + std::to_string(record->spec.lanes) +
            " stages but only " + std::to_string(healthy) +
            " arrays are healthy";
  }
  if (!error.empty()) {
    finish_unmigratable(record, waves, error);
    return;
  }
  {
    std::lock_guard lock(state_mutex_);
    record->resume = resume;
    // Evolve missions shrink onto whatever is left (the checkpoint's
    // logical lane count keeps fitness/genotype bit-identical; wider
    // grants than the logical width would idle, so cap at spec.lanes).
    record->grant_lanes = std::min(record->spec.lanes, healthy);
  }
  m_migrations_.add();
  launch_job(record);
}

void Server::finish_unmigratable(const std::shared_ptr<JobRecord>& record,
                                 std::uint64_t waves,
                                 const std::string& error) {
  const Json body = failed_result("migration failed: " + error);
  journal_finished(record->id, sched::JobStatus::kFailed, waves, body);
  std::vector<std::function<void(const sched::MissionEvent&)>> watchers;
  {
    std::lock_guard lock(state_mutex_);
    record->journaled = body;
    record->journal_status = status_name(sched::JobStatus::kFailed);
    record->journal_waves = waves;
    record->runner = nullptr;  // journal_* fields are now the truth
    watchers = record->watchers;
    --inflight_;
    m_inflight_.set(static_cast<double>(inflight_));
  }
  state_cv_.notify_all();
  // Watchers saw the kPreempted finish suppressed (migration pending);
  // deliver the actual terminal event.
  sched::MissionEvent done;
  done.kind = sched::MissionEvent::Kind::kFinished;
  done.status = sched::JobStatus::kFailed;
  done.waves = waves;
  for (const auto& watcher : watchers) watcher(done);
}

void Server::prune_finished_locked() {
  if (config_.max_job_records == 0) return;
  auto it = jobs_.begin();
  while (jobs_.size() > config_.max_job_records && it != jobs_.end()) {
    // Replayed-finished records (no runner) are finished by definition.
    if (it->second->runner != nullptr) {
      const sched::JobStatus status = it->second->runner->status();
      if (status == sched::JobStatus::kQueued ||
          status == sched::JobStatus::kRunning ||
          status == sched::JobStatus::kPreempted) {
        // Never evict live jobs, whatever their age. kPreempted is live
        // too: the mission is mid-migration onto a new slice.
        ++it;
        continue;
      }
    }
    it = jobs_.erase(it);
  }
}

Json Server::handle_status(const Json& request) {
  Json error;
  const std::shared_ptr<JobRecord> record =
      find_job(jobs_, state_mutex_, request, error);
  if (record == nullptr) return error;
  Json response = make_ok();
  response.set("job", record->id);
  response.set("name", record->spec.name);
  response.set("kind", sched::kind_name(record->spec.kind));
  response.set("lanes", static_cast<std::uint64_t>(record->spec.lanes));
  std::shared_ptr<sched::MissionRunner> runner;
  {
    // Snapshot under the lock: migration swaps the runner (and the
    // terminal-failure path rewrites the journal_* fields) on job
    // threads.
    std::lock_guard lock(state_mutex_);
    runner = record->runner;
    if (runner == nullptr) {
      response.set("status", record->journal_status);
      response.set("waves", record->journal_waves);
      if (const Json* sim_ns = record->journaled.get("sim_ns")) {
        response.set("sim_ns", *sim_ns);
      }
      if (record->replayed_from_journal) response.set("replayed", true);
      return response;
    }
  }
  const sched::JobStatus status = runner->status();
  response.set("status", status_name(status));
  response.set("waves", runner->waves_completed());
  if (status != sched::JobStatus::kQueued &&
      status != sched::JobStatus::kRunning &&
      status != sched::JobStatus::kPreempted) {
    response.set("sim_ns", std::to_string(runner->sim_duration()));
  }
  return response;
}

Json Server::handle_result(const Json& request) {
  Json error;
  const std::shared_ptr<JobRecord> record =
      find_job(jobs_, state_mutex_, request, error);
  if (record == nullptr) return error;
  Json response;
  std::uint64_t waves = 0;
  for (;;) {
    std::shared_ptr<sched::MissionRunner> runner;
    {
      std::lock_guard lock(state_mutex_);
      runner = record->runner;
      if (runner == nullptr) {
        // Re-served verbatim from the journal (previous incarnation) or
        // from the terminal-failure record of a failed migration.
        response = record->journaled.is_object() ? record->journaled
                                                 : Json::object();
        if (response.get("status") == nullptr) {
          response.set("status", record->journal_status);
        }
        waves = record->journal_waves;
        break;
      }
    }
    // Blocks this session thread until the job leaves the running set;
    // the connection is dedicated to the wait (use another for control
    // ops).
    const sched::JobOutcome& outcome = runner->result();
    if (runner->status() == sched::JobStatus::kPreempted) {
      // Mid-migration: the mission continues on a new slice. Wait for
      // the record to move past this incarnation, then wait on that one.
      std::unique_lock lock(state_mutex_);
      state_cv_.wait(lock, [&] { return record->runner != runner; });
      continue;
    }
    response = outcome_to_json(record->spec.kind, runner->status(), outcome);
    waves = runner->waves_completed();
    break;
  }
  response.set("ok", true);
  response.set("job", record->id);
  response.set("name", record->spec.name);
  response.set("kind", sched::kind_name(record->spec.kind));
  response.set("waves", waves);
  if (record->replayed_from_journal) response.set("replayed", true);
  return response;
}

Json Server::handle_cancel(const Json& request) {
  Json error;
  const std::shared_ptr<JobRecord> record =
      find_job(jobs_, state_mutex_, request, error);
  if (record == nullptr) return error;
  Json response = make_ok();
  response.set("job", record->id);
  std::shared_ptr<sched::MissionRunner> runner;
  {
    std::lock_guard lock(state_mutex_);
    runner = record->runner;
    if (runner == nullptr) {  // replayed/terminal: long finished, no-op
      response.set("status", record->journal_status);
      return response;
    }
  }
  runner->cancel();
  response.set("status", status_name(runner->status()));
  return response;
}

Json Server::handle_list() {
  Json jobs = Json::array();
  const std::uint64_t now_ns = obs::Tracer::now_ns();
  {
    std::lock_guard lock(state_mutex_);
    for (const auto& [id, record] : jobs_) {
      Json entry = Json::object();
      entry.set("job", id);
      entry.set("name", record->spec.name);
      entry.set("kind", sched::kind_name(record->spec.kind));
      entry.set("lanes", static_cast<std::uint64_t>(record->spec.lanes));
      // Additive: time since this incarnation admitted the job (absent
      // for journal-replayed records — their admission predates us).
      if (record->submitted_ns != 0 && now_ns >= record->submitted_ns) {
        entry.set("age_ms", static_cast<std::uint64_t>(
                                (now_ns - record->submitted_ns) / 1000000));
      }
      if (record->runner != nullptr) {
        entry.set("status", status_name(record->runner->status()));
        entry.set("waves", record->runner->waves_completed());
      } else {
        entry.set("status", record->journal_status);
        entry.set("waves", record->journal_waves);
      }
      jobs.push_back(std::move(entry));
    }
  }
  Json response = make_ok();
  response.set("jobs", std::move(jobs));
  return response;
}

Json Server::handle_stats() {
  // Lock-free mirrors, not pool_stats(): a stats poll (the forwarder
  // hits this a few times a second per backend) must never serialize
  // against job bookkeeping under the pool mutexes.
  const sched::PoolGroup::GroupStats group_stats = group_->stats();
  const ServiceStats service = service_stats();

  Json pool = pool_stats_json(group_stats.total);
  Json pools = Json::array();
  for (std::size_t i = 0; i < group_stats.per_pool.size(); ++i) {
    Json row = pool_stats_json(group_stats.per_pool[i]);
    row.set("pool", static_cast<std::uint64_t>(i));
    pools.push_back(std::move(row));
  }

  const sched::PlacementPolicy::Stats placement_stats =
      group_->placement_stats();
  Json placement = Json::object();
  placement.set("pools", static_cast<std::uint64_t>(group_->pool_count()));
  placement.set("placed", placement_stats.placed);
  placement.set("affinity_hits", placement_stats.affinity_hits);
  placement.set("spills", placement_stats.spills);

  // The compiled-array cache and the fitness memo share one shape.
  const auto hit_counters = [](const auto& stats) {
    Json out = Json::object();
    out.set("hits", stats.hits);
    out.set("misses", stats.misses);
    out.set("evictions", stats.evictions);
    out.set("hit_rate", stats.hit_rate());
    return out;
  };

  Json svc = Json::object();
  svc.set("protocol", kProtocolVersion);
  svc.set("version", kVersion);
  svc.set("instance_id", instance_id_);
  svc.set("epoch", epoch_);
  svc.set("connections", service.connections);
  svc.set("sessions_open", static_cast<std::uint64_t>(service.sessions_open));
  svc.set("inflight", static_cast<std::uint64_t>(service.inflight));
  svc.set("max_inflight", static_cast<std::uint64_t>(service.max_inflight));
  svc.set("draining", service.draining);
  svc.set("submitted", service.submitted);
  svc.set("rejected", service.rejected);
  svc.set("migrations", service.migrations);

  // Additive: histogram summaries for `mpa top` and operator scripts.
  // The full bucket data stays on the Prometheus endpoint.
  const auto hist_summary = [](const obs::Histogram& hist) {
    const obs::Histogram::Snapshot snap = hist.snapshot();
    Json out = Json::object();
    out.set("count", snap.count);
    out.set("mean_ns", snap.mean());
    out.set("p50_ns", snap.quantile(0.50));
    out.set("p90_ns", snap.quantile(0.90));
    out.set("p99_ns", snap.quantile(0.99));
    return out;
  };
  Json telemetry = Json::object();
  telemetry.set("submit_ack_latency", hist_summary(m_submit_latency_));
  telemetry.set("mission_wall_time", hist_summary(m_mission_wall_));
  telemetry.set("mission_sim_time", hist_summary(m_mission_sim_));
  telemetry.set("trace_armed", obs::Tracer::armed());

  Json response = make_ok();
  response.set("pool", std::move(pool));
  response.set("pools", std::move(pools));
  response.set("placement", std::move(placement));
  response.set("cache", hit_counters(group_->cache_stats()));
  response.set("memo", hit_counters(group_->memo_stats()));
  response.set("service", std::move(svc));
  response.set("telemetry", std::move(telemetry));
  if (journal_ != nullptr) {
    const JournalStats js = journal_stats();
    Json journal = Json::object();
    journal.set("dir", journal_->dir());
    journal.set("appended", js.appended);
    journal.set("replayed_records", js.replayed_records);
    journal.set("replayed_finished", js.replayed_finished);
    journal.set("resumed", js.resumed);
    journal.set("resumed_from_checkpoint", js.resumed_from_checkpoint);
    journal.set("corrupt", js.corrupt);
    journal.set("truncated_tail", js.truncated_tail);
    journal.set("checkpoints_written", js.checkpoints_written);
    journal.set("checkpoint_every", config_.checkpoint_every);
    journal.set("warm_memo_loaded", js.warm_memo_loaded);
    journal.set("warm_cache_loaded", js.warm_cache_loaded);
    response.set("journal", std::move(journal));
  }
  return response;
}

Json Server::handle_health() {
  Json arrays = Json::array();
  for (const sched::PoolGroup::GroupArrayHealth& entry_health :
       group_->array_health()) {
    const sched::ArrayPool::ArrayHealth& health = entry_health.health;
    Json entry = Json::object();
    entry.set("pool", static_cast<std::uint64_t>(entry_health.pool));
    entry.set("array", static_cast<std::uint64_t>(health.id));
    const char* state = "free";
    if (health.state == sched::ArrayPool::ArrayHealth::State::kLeased) {
      state = "leased";
    } else if (health.state ==
               sched::ArrayPool::ArrayHealth::State::kQuarantined) {
      state = "quarantined";
    }
    entry.set("state", state);
    if (health.pending_quarantine) entry.set("pending_quarantine", true);
    if (!health.job.empty()) entry.set("job", health.job);
    arrays.push_back(std::move(entry));
  }
  const sched::ArrayPool::PoolStats stats = group_->stats().total;
  Json response = make_ok();
  response.set("instance_id", instance_id_);
  response.set("epoch", epoch_);
  response.set("arrays", std::move(arrays));
  response.set("healthy", static_cast<std::uint64_t>(stats.healthy()));
  response.set("quarantined",
               static_cast<std::uint64_t>(stats.quarantined));
  response.set("preempted", stats.preempted);
  response.set("deadline_expired", stats.deadline_expired);
  response.set("migrations", m_migrations_.value());
  Json faults = Json::object();
  faults.set("active", fault::active());
  if (fault::active()) {
    Json sites = Json::object();
    for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
      const auto site = static_cast<fault::Site>(s);
      if (fault::hits(site) == 0) continue;
      Json counts = Json::object();
      counts.set("hits", fault::hits(site));
      counts.set("fired", fault::fired(site));
      sites.set(fault::site_name(site), std::move(counts));
    }
    faults.set("sites", std::move(sites));
  }
  response.set("faults", std::move(faults));
  return response;
}

std::optional<Json> Server::handle_watch(const Json& request,
                                         const Endpoint::Channel& channel) {
  Json error;
  const std::shared_ptr<JobRecord> record =
      find_job(jobs_, state_mutex_, request, error);
  if (record == nullptr) return error;
  const std::uint64_t every = watch_every(request);
  Json ack = make_ok();
  ack.set("job", record->id);
  ack.set("watching", record->spec.name);
  if (const Json* id = request.get("id")) ack.set("id", *id);
  const std::uint64_t job_id = record->id;
  const auto observer = [channel, job_id,
                         every](const sched::MissionEvent& event) {
    Json frame = Json::object();
    if (event.kind == sched::MissionEvent::Kind::kProgress) {
      if (event.waves % every != 0) return;
      frame.set("event", "progress");
      frame.set("job", job_id);
      frame.set("waves", event.waves);
    } else {
      // A kPreempted finish is not the end of the mission — it is about
      // to migrate; this watcher gets re-attached to the new incarnation
      // (or receives a synthesized failed event if migration cannot go).
      if (event.status == sched::JobStatus::kPreempted) return;
      frame.set("event", "done");
      frame.set("job", job_id);
      frame.set("status", status_name(event.status));
      frame.set("waves", event.waves);
    }
    // Dead channels fail silently; the subscription just goes quiet.
    static_cast<void>(channel->write_line(frame.dump()));
  };
  std::shared_ptr<sched::MissionRunner> runner;
  {
    // Snapshot + register in ONE critical section: a migration either
    // swaps the runner before this (we subscribe to the new incarnation
    // below) or copies record->watchers after it (launch_job re-attaches
    // us) — either way no event window is lost.
    std::lock_guard lock(state_mutex_);
    runner = record->runner;
    if (runner != nullptr) record->watchers.push_back(observer);
  }
  if (runner == nullptr) {
    // Replayed/terminal: ack, then an immediate synthesized done frame
    // (exactly what a live watch on a finished job delivers).
    static_cast<void>(channel->write_line(ack.dump()));
    Json frame = Json::object();
    frame.set("event", "done");
    frame.set("job", record->id);
    frame.set("status", record->journal_status);
    frame.set("waves", record->journal_waves);
    static_cast<void>(channel->write_line(frame.dump()));
    return std::nullopt;
  }
  // Subscribe BEFORE writing the ack: once the client has the ack it
  // must be guaranteed to observe every subsequent wave (the client
  // handles events that land ahead of the ack). The write lock keeps
  // the frames themselves from interleaving.
  runner->subscribe(observer);
  // A watching session legitimately goes quiet (events flow the other
  // way) — exempt it from the idle-session bound for its lifetime.
  channel->set_recv_timeout(0);
  static_cast<void>(channel->write_line(ack.dump()));
  return std::nullopt;
}

Json Server::handle_trace(const Json& request) {
  obs::Tracer& tracer = obs::Tracer::global();
  const std::string mode = request.get_string("mode", "dump");
  Json response = make_ok();
  if (mode == "arm") {
    tracer.arm();
  } else if (mode == "disarm") {
    tracer.disarm();
  } else if (mode == "clear") {
    tracer.clear();
  } else if (mode == "dump") {
    response.set("trace", tracer.export_chrome());
  } else {
    return make_error(
        "unknown trace mode '" + mode + "' (dump|arm|disarm|clear)",
        "bad_request");
  }
  response.set("armed", obs::Tracer::armed());
  response.set("recorded", tracer.recorded());
  response.set("dropped", tracer.dropped());
  return response;
}

void Server::refresh_gauges() {
  const sched::ArrayPool::PoolStats pool = group_->stats().total;
  metrics_.gauge("mpa_queue_depth").set(static_cast<double>(pool.queued));
  metrics_.gauge("mpa_running_missions").set(static_cast<double>(pool.running));
  metrics_.gauge("mpa_free_arrays").set(static_cast<double>(pool.free_arrays));
  metrics_.gauge("mpa_quarantined_arrays")
      .set(static_cast<double>(pool.quarantined));

  const sched::CacheStats cache = group_->cache_stats();
  metrics_.gauge("mpa_compiled_cache_hit_rate").set(cache.hit_rate());
  const evo::FitnessMemoStats memo = group_->memo_stats();
  metrics_.gauge("mpa_fitness_memo_hit_rate").set(memo.hit_rate());

  const sched::PlacementPolicy::Stats placement = group_->placement_stats();
  metrics_.gauge("mpa_placement_placed")
      .set(static_cast<double>(placement.placed));
  metrics_.gauge("mpa_placement_affinity_hits")
      .set(static_cast<double>(placement.affinity_hits));
  metrics_.gauge("mpa_placement_spills")
      .set(static_cast<double>(placement.spills));

  if (fault::active()) {
    for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
      const auto site = static_cast<fault::Site>(s);
      if (fault::hits(site) == 0) continue;
      metrics_
          .gauge(std::string("mpa_fault_fired{site=\"") +
                 fault::site_name(site) + "\"}")
          .set(static_cast<double>(fault::fired(site)));
    }
  }

  const ServiceStats service = service_stats();
  metrics_.gauge("mpa_sessions_open")
      .set(static_cast<double>(service.sessions_open));
}

std::string Server::metrics_text() {
  refresh_gauges();
  return metrics_.to_prometheus();
}

Json Server::handle_drain(const Json& request) {
  drain();
  if (request.get_bool("wait", false)) {
    std::unique_lock lock(state_mutex_);
    state_cv_.wait(lock, [this] { return inflight_ == 0; });
  }
  Json response = make_ok();
  response.set("draining", true);
  {
    std::lock_guard lock(state_mutex_);
    response.set("inflight", static_cast<std::uint64_t>(inflight_));
  }
  return response;
}

}  // namespace ehw::svc
