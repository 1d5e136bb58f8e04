#include "core/failover.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "query/canonical.hpp"

namespace pgrid::core {
namespace {

constexpr const char* kHeader = "pgrid-checkpoint-v1";

void put_double(std::ostream& out, double v) {
  out << std::setprecision(17) << v;
}

/// Sequential line/blob reader over the serialized checkpoint.  Blobs are
/// byte-counted, so query text and experience payloads may contain anything
/// (including newlines and lines that look like records).
struct Cursor {
  const std::string& text;
  std::size_t pos = 0;

  bool line(std::string& out) {
    if (pos >= text.size()) return false;
    const std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) return false;  // unterminated = truncated
    out.assign(text, pos, end - pos);
    pos = end + 1;
    return true;
  }
  bool blob(std::size_t bytes, std::string& out) {
    if (pos + bytes >= text.size()) return false;  // needs the trailing '\n'
    out.assign(text, pos, bytes);
    pos += bytes;
    if (text[pos] != '\n') return false;
    ++pos;
    return true;
  }
};

common::Result<Checkpoint> fail(const std::string& what) {
  return common::Result<Checkpoint>::failure("checkpoint: " + what);
}

bool parse_fields(const std::string& line, const char* tag,
                  std::istringstream& fields) {
  fields.str(line);
  fields.clear();
  std::string word;
  return (fields >> word) && word == tag;
}

}  // namespace

std::string serialize_checkpoint(const Checkpoint& checkpoint) {
  std::ostringstream out;
  out << kHeader << '\n';
  out << "meta " << checkpoint.seq << ' ';
  put_double(out, checkpoint.taken_at_s);
  out << ' ' << checkpoint.queries.size() << '\n';
  for (const QueryCheckpoint& q : checkpoint.queries) {
    out << "query " << q.id << ' ' << q.total_epochs << ' ';
    put_double(out, q.epoch_s);
    out << ' ';
    put_double(out, q.deadline_s);
    out << ' ';
    put_double(out, q.started_s);
    out << ' ' << (q.queued ? 1 : 0) << ' ' << q.epochs.size() << '\n';
    out << "model " << q.model.size() << '\n' << q.model << '\n';
    out << "text " << q.text.size() << '\n' << q.text << '\n';
    for (const EpochRecord& e : q.epochs) {
      out << "epoch " << (e.ok ? 1 : 0) << ' ' << (e.degraded ? 1 : 0) << ' '
          << (e.lost ? 1 : 0) << ' ' << e.model << ' ';
      put_double(out, e.value);
      out << ' ';
      put_double(out, e.coverage);
      out << ' ';
      put_double(out, e.accuracy);
      out << ' ';
      put_double(out, e.energy_j);
      out << ' ';
      put_double(out, e.response_s);
      out << ' ' << e.data_bytes << ' ';
      put_double(out, e.compute_ops);
      out << '\n';
    }
  }
  out << "experience " << checkpoint.experience.size() << '\n'
      << checkpoint.experience << '\n';
  std::string payload = out.str();
  std::ostringstream tail;
  tail << "end " << std::hex << std::setw(16) << std::setfill('0')
       << query::fnv1a(payload) << '\n';
  payload += tail.str();
  return payload;
}

common::Result<Checkpoint> parse_checkpoint(const std::string& text) {
  Cursor cursor{text};
  std::string line;
  if (!cursor.line(line)) return fail("empty input (truncated)");
  if (line != kHeader) return fail("bad header '" + line + "'");

  Checkpoint checkpoint;
  std::istringstream fields;
  if (!cursor.line(line) || !parse_fields(line, "meta", fields)) {
    return fail("missing meta record (truncated)");
  }
  std::size_t n_queries = 0;
  if (!(fields >> checkpoint.seq >> checkpoint.taken_at_s >> n_queries)) {
    return fail("malformed meta record");
  }

  checkpoint.queries.reserve(n_queries);
  for (std::size_t i = 0; i < n_queries; ++i) {
    QueryCheckpoint q;
    if (!cursor.line(line) || !parse_fields(line, "query", fields)) {
      return fail("missing query record (truncated)");
    }
    int queued = 0;
    std::size_t n_epochs = 0;
    if (!(fields >> q.id >> q.total_epochs >> q.epoch_s >> q.deadline_s >>
          q.started_s >> queued >> n_epochs)) {
      return fail("malformed query record");
    }
    q.queued = queued != 0;

    std::size_t bytes = 0;
    if (!cursor.line(line) || !parse_fields(line, "model", fields) ||
        !(fields >> bytes) || !cursor.blob(bytes, q.model)) {
      return fail("malformed model payload (truncated)");
    }
    if (!cursor.line(line) || !parse_fields(line, "text", fields) ||
        !(fields >> bytes) || !cursor.blob(bytes, q.text)) {
      return fail("malformed text payload (truncated)");
    }

    q.epochs.reserve(n_epochs);
    for (std::size_t k = 0; k < n_epochs; ++k) {
      EpochRecord e;
      if (!cursor.line(line) || !parse_fields(line, "epoch", fields)) {
        return fail("missing epoch record (truncated)");
      }
      int ok = 0;
      int degraded = 0;
      int lost = 0;
      if (!(fields >> ok >> degraded >> lost >> e.model >> e.value >>
            e.coverage >> e.accuracy >> e.energy_j >> e.response_s >>
            e.data_bytes >> e.compute_ops)) {
        return fail("malformed epoch record");
      }
      e.ok = ok != 0;
      e.degraded = degraded != 0;
      e.lost = lost != 0;
      q.epochs.push_back(e);
    }
    checkpoint.queries.push_back(std::move(q));
  }

  std::size_t bytes = 0;
  if (!cursor.line(line) || !parse_fields(line, "experience", fields) ||
      !(fields >> bytes) || !cursor.blob(bytes, checkpoint.experience)) {
    return fail("malformed experience payload (truncated)");
  }

  const std::size_t payload_end = cursor.pos;
  if (!cursor.line(line) || !parse_fields(line, "end", fields)) {
    return fail("missing integrity tail (truncated)");
  }
  std::uint64_t declared = 0;
  if (!(fields >> std::hex >> declared)) return fail("malformed integrity tail");
  if (cursor.pos != text.size()) return fail("trailing bytes after tail");
  const std::uint64_t actual = query::fnv1a(text.substr(0, payload_end));
  if (actual != declared) return fail("checksum mismatch (corrupted)");
  return checkpoint;
}

FailoverManager::FailoverManager(FailoverConfig config, sim::Simulator& sim,
                                 telemetry::CostLedger& ledger)
    : config_(std::move(config)), sim_(sim), ledger_(ledger) {}

FailoverManager::~FailoverManager() {
  // Cross-process persistence (ISSUE satellite): the learner's experience
  // outlives this runtime when a path is configured.
  if (!config_.experience_path.empty() && save_experience_) {
    std::ofstream out(config_.experience_path,
                      std::ios::binary | std::ios::trunc);
    if (out) out << save_experience_();
  }
}

std::uint64_t FailoverManager::register_query(QueryCheckpoint meta) {
  meta.id = next_id_++;
  meta.started_s = sim_.now().to_seconds();
  meta.queued = true;
  const std::uint64_t id = meta.id;
  Record record;
  record.snap = std::move(meta);
  records_.emplace(id, std::move(record));
  if (config_.checkpoint_on_admit) checkpoint_now();
  return id;
}

void FailoverManager::set_finalize(std::uint64_t qid, Finalize finalize,
                                   std::shared_ptr<void> user_data) {
  auto it = records_.find(qid);
  if (it == records_.end()) return;
  it->second.finalize = std::move(finalize);
  it->second.user_data = std::move(user_data);
}

void FailoverManager::mark_started(std::uint64_t qid) {
  auto it = records_.find(qid);
  if (it == records_.end()) return;
  // The first epoch's natural slot starts when execution starts, not when
  // the arrival queued — gap accounting anchors here.
  it->second.snap.queued = false;
  it->second.snap.started_s = sim_.now().to_seconds();
}

void FailoverManager::deregister(std::uint64_t qid) { records_.erase(qid); }

void FailoverManager::launch_segment(std::uint64_t qid, bool readmit) {
  auto it = records_.find(qid);
  if (it == records_.end() || it->second.finalized) return;
  if (run_segment_) run_segment_(qid, readmit);
}

FailoverManager::Record* FailoverManager::find(std::uint64_t qid) {
  auto it = records_.find(qid);
  return it == records_.end() ? nullptr : &it->second;
}

const FailoverManager::Record* FailoverManager::find(std::uint64_t qid) const {
  auto it = records_.find(qid);
  return it == records_.end() ? nullptr : &it->second;
}

std::uint32_t FailoverManager::generation(std::uint64_t qid) const {
  const Record* record = find(qid);
  return record == nullptr ? 0 : record->generation;
}

partition::AbortToken FailoverManager::begin_segment(std::uint64_t qid) {
  auto it = records_.find(qid);
  if (it == records_.end()) return nullptr;
  it->second.abort = std::make_shared<bool>(false);
  return it->second.abort;
}

void FailoverManager::set_segment_cancel(std::uint64_t qid,
                                         std::function<void()> cancel) {
  auto it = records_.find(qid);
  if (it == records_.end()) return;
  it->second.cancel_shared = std::move(cancel);
}

bool FailoverManager::commit_epoch(std::uint64_t qid, std::uint32_t gen,
                                   partition::SolutionModel model,
                                   const partition::ActualCost& cost) {
  auto it = records_.find(qid);
  if (it == records_.end()) {
    ++stats_.stale_epochs;
    return false;
  }
  Record& record = it->second;
  if (record.finalized || record.generation != gen) {
    ++stats_.stale_epochs;
    return false;
  }
  EpochRecord e;
  e.ok = cost.ok;
  e.degraded = cost.degraded;
  e.lost = false;
  e.model = static_cast<int>(model);
  e.value = cost.value;
  e.coverage = cost.coverage;
  e.accuracy = cost.accuracy;
  e.energy_j = cost.energy_j;
  e.response_s = cost.response_s;
  e.data_bytes = cost.data_bytes;
  e.compute_ops = cost.compute_ops;
  record.snap.epochs.push_back(e);
  checkpoint_maybe();
  return true;
}

void FailoverManager::segment_complete(std::uint64_t qid, std::uint32_t gen) {
  auto it = records_.find(qid);
  if (it == records_.end()) return;
  Record& record = it->second;
  if (record.finalized || record.generation != gen) {
    ++stats_.suppressed_finalizations;
    return;
  }
  // Finalize with whatever the segment delivered (a budget-limited run can
  // legitimately end short, exactly like the legacy summarize path).
  finalize_record(record);
}

void FailoverManager::segment_shed(std::uint64_t qid, std::uint32_t gen) {
  auto it = records_.find(qid);
  if (it == records_.end()) return;
  Record& record = it->second;
  if (record.finalized || record.generation != gen) {
    ++stats_.suppressed_finalizations;
    return;
  }
  // Re-admission refused the resumed segment: its remaining slots can never
  // run.  Answer degraded instead of hanging the client's conversation.
  while (record.snap.epochs.size() < record.snap.total_epochs) {
    EpochRecord e;
    e.lost = true;
    record.snap.epochs.push_back(e);
  }
  finalize_record(record);
}

void FailoverManager::on_station_down() {
  if (station_down_) return;
  station_down_ = true;
  ++stats_.station_crashes;
  for (auto& [id, record] : records_) {
    // Bump the handoff sequence fence first: any completion still in flight
    // from the dead station's timeline now reads as stale.
    ++record.generation;
    if (record.abort) *record.abort = true;
    record.abort.reset();
    if (record.cancel_shared) {
      auto cancel = std::move(record.cancel_shared);
      record.cancel_shared = nullptr;
      cancel();
    }
    if (!record.finalized && !record.adopted_elsewhere) {
      record.awaiting_restore = true;
      // Station RAM is gone: committed-but-uncheckpointed progress dies
      // here.  The replay restores from the disk image (or a fresher
      // migrated snapshot) — never from this record's pre-crash memory.
      record.snap.epochs.clear();
    }
  }
  if (on_crash_) on_crash_();
  if (reset_experience_) reset_experience_();
}

void FailoverManager::on_station_up() {
  if (!station_down_) return;
  station_down_ = false;
  const double delay = config_.restart_replay_s > 0.0
                           ? config_.restart_replay_s
                           : 0.0;
  sim_.schedule(sim::SimTime::seconds(delay),
                [this] { restore_from_checkpoint(); });
}

void FailoverManager::restore_from_checkpoint() {
  const double now_s = sim_.now().to_seconds();
  Checkpoint checkpoint;
  bool have = false;
  if (!last_checkpoint_.empty()) {
    auto parsed = parse_checkpoint(last_checkpoint_);
    if (parsed.ok()) {
      checkpoint = std::move(parsed).take();
      have = true;
    }
  }
  if (have) {
    ++stats_.restores;
    if (load_experience_ && !checkpoint.experience.empty()) {
      load_experience_(checkpoint.experience);
    }
    for (QueryCheckpoint& snap : checkpoint.queries) {
      auto it = records_.find(snap.id);
      if (it == records_.end()) continue;  // extracted/deregistered since
      Record& record = it->second;
      if (!record.awaiting_restore) continue;
      if (record.finalized || record.adopted_elsewhere) continue;
      record.awaiting_restore = false;
      // A migrated-back snapshot delivered during the outage can be fresher
      // than the disk image; keep whichever committed more progress.
      if (snap.epochs.size() > record.snap.epochs.size()) {
        record.snap = std::move(snap);
      }
      stats_.epochs_lost_in_gap += account_gap(record.snap, now_s);
      const bool complete =
          record.snap.epochs.size() >= record.snap.total_epochs;
      const bool expired =
          record.snap.deadline_s > 0.0 && now_s >= record.snap.deadline_s;
      if (complete || expired) {
        while (record.snap.epochs.size() < record.snap.total_epochs) {
          EpochRecord e;
          e.lost = true;
          record.snap.epochs.push_back(e);
          ++stats_.epochs_lost_in_gap;
        }
        finalize_record(record);
        continue;
      }
      ++stats_.queries_restored;
      launch_segment(it->first, /*readmit=*/true);
    }
  }
  // Anything that crashed without checkpointed state to replay: total loss.
  // The client still gets an answer — all epochs lost, coverage zero — so
  // the conversation completes instead of hanging forever.
  for (auto& [id, record] : records_) {
    if (!record.awaiting_restore) continue;
    record.awaiting_restore = false;
    if (record.finalized || record.adopted_elsewhere) continue;
    ++stats_.queries_lost;
    while (record.snap.epochs.size() < record.snap.total_epochs) {
      EpochRecord e;
      e.lost = true;
      record.snap.epochs.push_back(e);
      ++stats_.epochs_lost_in_gap;
    }
    finalize_record(record);
  }
  flush_deferred_finalizations();
  checkpoint_now();
}

void FailoverManager::checkpoint_now() {
  if (station_down_) return;
  if (config_.checkpoint_period_s <= 0.0) return;  // checkpointing disabled
  // Replay window (station up, restore not yet run): crashed records hold
  // no epochs until the replay reloads them, so an image taken now would
  // overwrite the last good one with their emptied state.  The replay's
  // closing checkpoint is the first write after a restart.
  for (const auto& [id, record] : records_) {
    if (record.awaiting_restore) return;
  }
  Checkpoint checkpoint = build_checkpoint();
  checkpoint.seq = ++checkpoint_seq_;
  last_checkpoint_ = serialize_checkpoint(checkpoint);
  last_checkpoint_at_s_ = checkpoint.taken_at_s;
  ++stats_.checkpoints;
  stats_.checkpoint_bytes += last_checkpoint_.size();
  // The write is charged work, on its own trace: bytes = the serialized
  // image, one count per snapshot.  Benches read the overhead from here.
  telemetry::Cost cost;
  cost.bytes = last_checkpoint_.size();
  cost.count = 1;
  ledger_.charge(telemetry::Subsystem::kRuntime, ledger_.new_trace(), cost);
}

Checkpoint FailoverManager::build_checkpoint() const {
  Checkpoint checkpoint;
  checkpoint.seq = checkpoint_seq_;
  checkpoint.taken_at_s = sim_.now().to_seconds();
  for (const auto& [id, record] : records_) {
    if (record.finalized || record.adopted_elsewhere) continue;
    checkpoint.queries.push_back(record.snap);
  }
  if (save_experience_) checkpoint.experience = save_experience_();
  return checkpoint;
}

common::Result<FailoverManager::Extracted> FailoverManager::extract(
    std::uint64_t qid) {
  auto it = records_.find(qid);
  if (it == records_.end()) {
    return common::Result<Extracted>::failure("failover: unknown query id");
  }
  Record& record = it->second;
  if (record.finalized) {
    return common::Result<Extracted>::failure(
        "failover: query already finalized");
  }
  // Fence the local timeline before the query leaves: any epoch still in
  // flight here commits against a dead generation.
  ++record.generation;
  if (record.abort) *record.abort = true;
  record.abort.reset();
  if (record.cancel_shared) {
    auto cancel = std::move(record.cancel_shared);
    record.cancel_shared = nullptr;
    cancel();
  }
  Extracted out;
  out.snap = record.snap;
  out.finalize = std::move(record.finalize);
  ++stats_.extractions;
  records_.erase(it);
  return out;
}

std::uint64_t FailoverManager::adopt(QueryCheckpoint snap, Finalize finalize) {
  const double now_s = sim_.now().to_seconds();
  ++stats_.adoptions;
  stats_.epochs_lost_in_gap += account_gap(snap, now_s);
  snap.queued = false;
  snap.id = next_id_++;
  const std::uint64_t id = snap.id;
  Record record;
  record.snap = std::move(snap);
  record.finalize = std::move(finalize);
  auto [it, inserted] = records_.emplace(id, std::move(record));
  Record& adopted = it->second;
  const bool complete =
      adopted.snap.epochs.size() >= adopted.snap.total_epochs;
  const bool expired =
      adopted.snap.deadline_s > 0.0 && now_s >= adopted.snap.deadline_s;
  if (complete || expired) {
    while (adopted.snap.epochs.size() < adopted.snap.total_epochs) {
      EpochRecord e;
      e.lost = true;
      adopted.snap.epochs.push_back(e);
      ++stats_.epochs_lost_in_gap;
    }
    finalize_record(adopted);
    return id;
  }
  if (config_.checkpoint_on_admit) checkpoint_now();
  launch_segment(id, /*readmit=*/true);
  return id;
}

void FailoverManager::mark_adopted_elsewhere(
    const std::vector<std::uint64_t>& ids) {
  for (std::uint64_t id : ids) {
    auto it = records_.find(id);
    if (it == records_.end()) continue;
    it->second.adopted_elsewhere = true;
    it->second.awaiting_restore = false;
  }
}

void FailoverManager::resume_migrated(std::uint64_t qid, QueryCheckpoint snap) {
  auto it = records_.find(qid);
  if (it == records_.end()) return;
  Record& record = it->second;
  if (record.finalized) {
    ++stats_.suppressed_finalizations;
    return;
  }
  ++record.generation;  // fence whatever still runs under the old owner
  record.adopted_elsewhere = false;
  const std::uint64_t keep_id = record.snap.id;
  record.snap = std::move(snap);
  record.snap.id = keep_id;
  if (station_down_) {
    // Arrived mid-outage: hold the fresher snapshot; the post-restart
    // replay keeps it (it committed more than the disk image) and resumes.
    record.awaiting_restore = true;
    return;
  }
  record.awaiting_restore = false;
  const double now_s = sim_.now().to_seconds();
  stats_.epochs_lost_in_gap += account_gap(record.snap, now_s);
  const bool complete = record.snap.epochs.size() >= record.snap.total_epochs;
  const bool expired =
      record.snap.deadline_s > 0.0 && now_s >= record.snap.deadline_s;
  if (complete || expired) {
    while (record.snap.epochs.size() < record.snap.total_epochs) {
      EpochRecord e;
      e.lost = true;
      record.snap.epochs.push_back(e);
      ++stats_.epochs_lost_in_gap;
    }
    finalize_record(record);
    return;
  }
  launch_segment(qid, /*readmit=*/true);
}

std::vector<std::uint64_t> FailoverManager::live_ids() const {
  std::vector<std::uint64_t> ids;
  for (const auto& [id, record] : records_) {
    if (record.finalized || record.adopted_elsewhere) continue;
    ids.push_back(id);
  }
  return ids;
}

void FailoverManager::finalize_record(Record& record) {
  if (record.finalized) {
    ++stats_.suppressed_finalizations;
    return;
  }
  if (station_down_) {
    // A remote completion landed while we are dark; the client's answer
    // waits for the restart (the conversation outlives the station).
    deferred_finalize_.push_back(record.snap.id);
    return;
  }
  record.finalized = true;
  record.abort.reset();
  record.cancel_shared = nullptr;
  std::vector<partition::ActualCost> results;
  std::vector<partition::SolutionModel> models;
  results.reserve(record.snap.epochs.size());
  models.reserve(record.snap.epochs.size());
  for (const EpochRecord& e : record.snap.epochs) {
    partition::ActualCost cost;
    cost.ok = e.ok;
    cost.degraded = e.degraded;
    cost.value = e.value;
    cost.coverage = e.coverage;
    cost.accuracy = e.accuracy;
    cost.energy_j = e.energy_j;
    cost.response_s = e.response_s;
    cost.data_bytes = e.data_bytes;
    cost.compute_ops = e.compute_ops;
    if (e.lost) {
      cost.accuracy = 0.0;
      cost.error = "epoch lost in station outage";
    }
    results.push_back(std::move(cost));
    models.push_back(static_cast<partition::SolutionModel>(e.model));
  }
  if (record.finalize) record.finalize(std::move(results), std::move(models));
}

void FailoverManager::flush_deferred_finalizations() {
  auto pending = std::move(deferred_finalize_);
  deferred_finalize_.clear();
  for (std::uint64_t id : pending) {
    auto it = records_.find(id);
    if (it == records_.end()) continue;
    finalize_record(it->second);
  }
}

std::size_t FailoverManager::account_gap(QueryCheckpoint& snap, double now_s) {
  if (snap.epoch_s <= 0.0) return 0;
  std::size_t lost = 0;
  // Natural slot k covers [started_s + k*epoch_s, ...).  Every not-yet-
  // committed slot whose window opened while the station was down can never
  // be observed — graded lost, zero coverage, like a failed delivery round.
  while (snap.epochs.size() < snap.total_epochs) {
    const double slot_start =
        snap.started_s +
        static_cast<double>(snap.epochs.size()) * snap.epoch_s;
    if (slot_start >= now_s) break;
    EpochRecord e;
    e.lost = true;
    snap.epochs.push_back(e);
    ++lost;
  }
  // Re-anchor so the next slot opens now — resumed segments stay slot-
  // aligned through any number of crash/restore cycles.
  snap.started_s =
      now_s - static_cast<double>(snap.epochs.size()) * snap.epoch_s;
  return lost;
}

void FailoverManager::checkpoint_maybe() {
  if (config_.checkpoint_period_s <= 0.0 || station_down_) return;
  const double now_s = sim_.now().to_seconds();
  if (last_checkpoint_at_s_ >= 0.0 &&
      now_s - last_checkpoint_at_s_ < config_.checkpoint_period_s) {
    return;
  }
  checkpoint_now();
}

}  // namespace pgrid::core
