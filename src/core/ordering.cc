#include "core/ordering.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/serial.h"
#include "mutate/mutation.h"

namespace prever::core {

namespace {

/// Shared Flush driver: seal the open batch, then step the simulated
/// network until the owner's committed counter (updated by its commit
/// callback) covers every issued ticket. Uncommitted envelopes are
/// re-submitted periodically — the recovery path for batches lost to
/// crashes, drops, or leader changes (commit-side dedup keeps this
/// idempotent).
Status DriveFlush(net::SimNetwork* net, GroupCommitPipeline* pipeline,
                  const uint64_t& committed, const char* proto) {
  pipeline->CloseOpenBatch();
  const uint64_t target = pipeline->TicketCount();
  const OrderingPipelineConfig& cfg = pipeline->config();
  const SimTime deadline = net->Now() + cfg.flush_timeout;
  SimTime next_retry = net->Now() + cfg.retry_interval;
  while (committed < target && net->Now() < deadline) {
    if (!net->Step()) {
      // Idle network: re-submission is the only way forward. If that also
      // generates no events, fail honestly instead of spinning.
      pipeline->ResubmitUncommitted();
      if (!net->Step()) break;
    }
    if (net->Now() >= next_retry) {
      pipeline->ResubmitUncommitted();
      next_retry = net->Now() + cfg.retry_interval;
    }
  }
  pipeline->OnProgress(committed);
  if (committed < target) {
    return Status::Unavailable(std::string(proto) +
                               " ordering did not commit within the flush "
                               "deadline");
  }
  return Status::Ok();
}

Status CheckBatch(const std::vector<Bytes>& payloads) {
  if (payloads.empty()) return Status::InvalidArgument("empty batch");
  if (payloads.size() >= kMaxOrderingBatch) {
    return Status::InvalidArgument("batch exceeds 2^24 payloads");
  }
  return Status::Ok();
}

/// Canonical encodings of the last `n` ledger entries (the ones a commit
/// event just appended) — what the durable commit journal records.
std::vector<Bytes> EncodeLedgerTail(const ledger::LedgerDb& ledger, size_t n) {
  std::vector<Bytes> out;
  out.reserve(n);
  for (uint64_t seq = ledger.size() - n; seq < ledger.size(); ++seq) {
    auto entry = ledger.GetEntry(seq);
    if (entry.ok()) out.push_back(entry->Encode());
  }
  return out;
}

/// A committed batch envelope as GroupCommitPipeline::Seal writes it:
/// [u64 batch id][u32 count][payloads].
struct BatchEnvelope {
  uint64_t batch_id = 0;
  std::vector<Bytes> payloads;
};

/// Committed commands come from clients (a Byzantine one under PBFT), so
/// the payload count is bounded by the bytes present — every payload
/// carries at least its u32 length prefix — before anything is reserved.
Result<BatchEnvelope> DecodeBatchEnvelope(const Bytes& cmd) {
  BinaryReader r(cmd);
  BatchEnvelope envelope;
  PREVER_ASSIGN_OR_RETURN(envelope.batch_id, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(
      uint32_t count, PREVER_MUTATION(ORDERING_ENVELOPE_COUNT_UNBOUNDED,
                                      r.ReadCount(4), r.ReadU32()));
  envelope.payloads.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PREVER_ASSIGN_OR_RETURN(Bytes payload, r.ReadBytes());
    envelope.payloads.push_back(std::move(payload));
  }
  return envelope;
}

/// The [u64 n][entries...] tail both replica-state blobs end with; each
/// entry carries at least its u32 length prefix.
Result<std::vector<Bytes>> ReadLedgerRecords(BinaryReader& r) {
  PREVER_ASSIGN_OR_RETURN(uint64_t n, r.ReadU64());
  if (n > r.remaining() / 4) {
    return Status::Corruption("ledger entry count exceeds remaining bytes");
  }
  std::vector<Bytes> records;
  records.reserve(n);
  for (uint64_t k = 0; k < n; ++k) {
    PREVER_ASSIGN_OR_RETURN(Bytes e, r.ReadBytes());
    records.push_back(std::move(e));
  }
  return records;
}

/// A decoded RaftOrdering::EncodeReplicaState blob.
struct RaftReplicaImage {
  uint64_t floor = 0;
  std::vector<uint64_t> batch_ids;
  std::vector<Bytes> records;
};

Result<RaftReplicaImage> DecodeRaftReplicaState(const Bytes& blob) {
  BinaryReader r(blob);
  RaftReplicaImage image;
  PREVER_ASSIGN_OR_RETURN(image.floor, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(uint64_t n_ids, r.ReadU64());
  if (n_ids > r.remaining() / 8) {
    return Status::Corruption("batch-id count exceeds remaining bytes");
  }
  image.batch_ids.reserve(n_ids);
  for (uint64_t k = 0; k < n_ids; ++k) {
    PREVER_ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
    image.batch_ids.push_back(id);
  }
  PREVER_ASSIGN_OR_RETURN(image.records, ReadLedgerRecords(r));
  return image;
}

}  // namespace

// ---------------------------------------------------------- OrderingService

Result<OrderingService::Ticket> OrderingService::SubmitAsync(
    const Bytes& payload, SimTime timestamp) {
  // Degraded mode for services without a pipeline: commit synchronously.
  PREVER_RETURN_IF_ERROR(Append(payload, timestamp));
  return CommittedCount() - 1;
}

Status OrderingService::Flush() { return Status::Ok(); }

// ------------------------------------------------------ GroupCommitPipeline

GroupCommitPipeline::GroupCommitPipeline(net::SimNetwork* net,
                                         OrderingPipelineConfig config,
                                         const std::string& proto_label,
                                         SubmitFn submit)
    : net_(net),
      config_(config),
      submit_(std::move(submit)),
      batch_size_(obs::Registry::Default().GetHistogram(
          "prever_ordering_batch_size", {{"proto", proto_label}})),
      inflight_depth_(obs::Registry::Default().GetHistogram(
          "prever_ordering_inflight_depth", {{"proto", proto_label}})),
      commit_latency_us_(obs::Registry::Default().GetHistogram(
          "prever_consensus_commit_latency_us", {{"proto", proto_label}})) {
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.max_batch > kMaxOrderingBatch - 1) {
    config_.max_batch = kMaxOrderingBatch - 1;
  }
  if (config_.max_inflight == 0) config_.max_inflight = 1;
}

OrderingService::Ticket GroupCommitPipeline::Enqueue(const Bytes& payload) {
  if (open_payloads_.empty() && config_.max_batch > 1 &&
      config_.max_delay > 0) {
    // First payload of a new batch: arm the adaptive-close timer. The epoch
    // guard voids it if the batch seals early (size limit or Flush).
    uint64_t epoch = open_epoch_;
    net_->ScheduleAfter(config_.max_delay, [this, epoch] {
      if (epoch != open_epoch_) return;
      SealOpen();
      PumpSubmissions();
    });
  }
  open_payloads_.push_back(payload);
  open_times_.push_back(net_->Now());
  // Queue-wait span: child of the caller's context (the engine's ledger
  // phase) or a fresh root for raw ordering payloads; closed at batch seal.
  obs::Tracer::SetThreadSimClock(&net_->clock());
  open_traces_.push_back(
      obs::Tracer::Get().BeginSpan(obs::TraceStage::kQueueWait));
  OrderingService::Ticket ticket = next_ticket_++;
  if (open_payloads_.size() >= config_.max_batch) SealOpen();
  PumpSubmissions();
  return ticket;
}

OrderingService::Ticket GroupCommitPipeline::EnqueueSealed(
    const std::vector<Bytes>& payloads) {
  SealOpen();  // Preserve submission order across the two paths.
  std::vector<SimTime> times(payloads.size(), net_->Now());
  next_ticket_ += payloads.size();
  obs::Tracer::SetThreadSimClock(&net_->clock());
  // Pre-sealed batches skip per-payload queue-wait (they never sit in the
  // open batch); the whole envelope parents to the caller's context.
  std::vector<obs::TraceContext> traces(
      1, obs::Tracer::Get().BeginSpan(obs::TraceStage::kQueueWait,
                                      payloads.size()));
  Seal(payloads, times, traces);
  PumpSubmissions();
  return next_ticket_ - 1;
}

void GroupCommitPipeline::SealOpen() {
  ++open_epoch_;
  if (open_payloads_.empty()) return;
  std::vector<Bytes> payloads = std::move(open_payloads_);
  std::vector<SimTime> times = std::move(open_times_);
  std::vector<obs::TraceContext> traces = std::move(open_traces_);
  open_payloads_.clear();
  open_times_.clear();
  open_traces_.clear();
  Seal(payloads, times, traces);
}

void GroupCommitPipeline::Seal(const std::vector<Bytes>& payloads,
                               const std::vector<SimTime>& times,
                               const std::vector<obs::TraceContext>& traces) {
  if (payloads.empty()) return;
  Batch batch;
  batch.batch_id = batch_counter_++;
  BinaryWriter w;
  w.WriteU64(batch.batch_id);
  w.WriteU32(static_cast<uint32_t>(payloads.size()));
  for (const Bytes& p : payloads) w.WriteBytes(p);
  batch.envelope = w.Take();
  sealed_tickets_ += payloads.size();
  batch.end_ticket = sealed_tickets_;
  batch.submit_times = times;
  // Close every payload's queue-wait span; the envelope's consensus span
  // becomes a child of the first sampled one, and the other sampled
  // payloads link to it with a batch-join instant so a per-payload tree
  // still reaches the consensus/durability stages.
  obs::Tracer& tracer = obs::Tracer::Get();
  for (const obs::TraceContext& t : traces) {
    tracer.EndSpan(t, obs::TraceStage::kQueueWait, batch.batch_id);
  }
  for (const obs::TraceContext& t : traces) {
    if (!t.sampled()) continue;
    if (!batch.trace.sampled()) {
      batch.trace = tracer.BeginSpan(obs::TraceStage::kConsensus, t,
                                     batch.batch_id);
      tracer.Instant(batch.trace, obs::TraceStage::kBatchSeal,
                     payloads.size());
    } else {
      tracer.Instant(t, obs::TraceStage::kBatchJoin, batch.trace.span_id);
    }
  }
  batch_size_->Record(payloads.size());
  queued_.push_back(std::move(batch));
}

void GroupCommitPipeline::PumpSubmissions() {
  while (!queued_.empty() && inflight_.size() < config_.max_inflight) {
    // Consensus submission runs under the batch's context so the protocol
    // messages it synchronously emits carry it across the wire.
    obs::ScopedTraceContext scope(queued_.front().trace);
    if (!submit_(queued_.front().envelope).ok()) return;  // Retry later.
    inflight_.push_back(std::move(queued_.front()));
    queued_.pop_front();
    inflight_depth_->Record(inflight_.size());
  }
}

void GroupCommitPipeline::CloseOpenBatch() {
  SealOpen();
  PumpSubmissions();
}

void GroupCommitPipeline::OnProgress(uint64_t committed) {
  SimTime now = net_->Now();
  while (!inflight_.empty() && inflight_.front().end_ticket <= committed) {
    for (SimTime t : inflight_.front().submit_times) {
      commit_latency_us_->Record(now - t);
    }
    obs::Tracer::Get().EndSpan(inflight_.front().trace,
                               obs::TraceStage::kConsensus,
                               inflight_.front().batch_id);
    inflight_.pop_front();
  }
  PumpSubmissions();
}

void GroupCommitPipeline::ResubmitUncommitted() {
  for (const Batch& batch : inflight_) {
    obs::ScopedTraceContext scope(batch.trace);
    (void)submit_(batch.envelope);
  }
  PumpSubmissions();
}

obs::TraceContext GroupCommitPipeline::ContextForBatch(
    uint64_t batch_id) const {
  for (const Batch& batch : inflight_) {
    if (batch.batch_id == batch_id) return batch.trace;
  }
  for (const Batch& batch : queued_) {
    if (batch.batch_id == batch_id) return batch.trace;
  }
  return {};
}

// ------------------------------------------------------ CentralizedOrdering

Status CentralizedOrdering::Append(const Bytes& payload, SimTime timestamp) {
  ledger_.Append(payload, timestamp);
  return Status::Ok();
}

// ------------------------------------------------------ ReplicatedOrdering

template <typename ClusterT>
ReplicatedOrdering<ClusterT>::ReplicatedOrdering(
    size_t num_replicas, net::SimNetConfig net_config,
    const OrderingRecoveryConfig& recovery, const char* proto)
    : net_(std::make_unique<net::SimNetwork>(net_config)),
      ledgers_(num_replicas),
      proto_(proto) {
  if (recovery.durable_dir.empty()) return;
  // A replica whose directory fails to open journals nothing; the first
  // failure is reported through recovery_status().
  for (size_t i = 0; i < num_replicas; ++i) {
    durable_.push_back(std::make_unique<recovery::DurableReplica>(
        recovery.durable_dir + "/r" + std::to_string(i),
        recovery.checkpoint_every));
    Status s = durable_.back()->Open();
    if (!s.ok() && recovery_status_.ok()) recovery_status_ = s;
  }
}

template <typename ClusterT>
void ReplicatedOrdering<ClusterT>::AppendCommitted(
    size_t i, uint64_t position, uint64_t batch_id,
    const std::vector<Bytes>& payloads) {
  std::vector<SimTime> stamps(payloads.size());
  for (size_t j = 0; j < payloads.size(); ++j) {
    stamps[j] = BatchEntryStamp(position, static_cast<uint32_t>(j));
  }
  if (i != 0) {
    (void)ledgers_[i].AppendBatch(payloads, stamps);
    return;
  }
  // Durability closure: the canonical replica's ledger append, parented to
  // the envelope's consensus span.
  obs::Tracer& tracer = obs::Tracer::Get();
  obs::TraceContext span =
      tracer.BeginChild(obs::TraceStage::kLedgerAppend,
                        pipeline_->ContextForBatch(batch_id), position);
  (void)ledgers_[0].AppendBatch(payloads, stamps);
  tracer.EndSpan(span, obs::TraceStage::kLedgerAppend, payloads.size());
  committed_ = ledgers_[0].size();
  pipeline_->OnProgress(committed_);
}

template <typename ClusterT>
bool ReplicatedOrdering<ClusterT>::JournalCommit(size_t i, uint64_t position,
                                                 uint64_t batch_id, size_t n,
                                                 Bytes* saved_state) {
  if (durable_.empty()) return false;
  return durable_[i]->JournalCommit(
      {position, batch_id, EncodeLedgerTail(ledgers_[i], n)}, ledgers_[i],
      [this, i, saved_state] {
        Bytes blob = DurableAppState(i);
        if (saved_state != nullptr) *saved_state = blob;
        return blob;
      });
}

template <typename ClusterT>
void ReplicatedOrdering<ClusterT>::PersistInstalledState(size_t i,
                                                         uint64_t position) {
  if (durable_.empty()) return;
  durable_[i]->PersistInstalledState(ledgers_[i], position,
                                     [this, i] { return DurableAppState(i); });
}

template <typename ClusterT>
void ReplicatedOrdering<ClusterT>::CrashReplica(size_t i) {
  net_->CrashNode(static_cast<net::NodeId>(i));
  cluster_->replica(i).Crash();
  if (!durable_.empty()) durable_[i]->Crash();
}

template <typename ClusterT>
Status ReplicatedOrdering<ClusterT>::Append(const Bytes& payload,
                                            SimTime timestamp) {
  PREVER_RETURN_IF_ERROR(SubmitAsync(payload, timestamp).status());
  return Flush();
}

template <typename ClusterT>
Status ReplicatedOrdering<ClusterT>::AppendBatch(
    const std::vector<Bytes>& payloads, SimTime timestamp) {
  (void)timestamp;  // The consensus position stamps commits.
  PREVER_RETURN_IF_ERROR(CheckBatch(payloads));
  pipeline_->EnqueueSealed(payloads);
  return Flush();
}

template <typename ClusterT>
Result<OrderingService::Ticket> ReplicatedOrdering<ClusterT>::SubmitAsync(
    const Bytes& payload, SimTime timestamp) {
  (void)timestamp;
  return pipeline_->Enqueue(payload);
}

template <typename ClusterT>
Status ReplicatedOrdering<ClusterT>::Flush() {
  return DriveFlush(net_.get(), pipeline_.get(), committed_, proto_);
}

template class ReplicatedOrdering<consensus::PbftCluster>;
template class ReplicatedOrdering<consensus::RaftCluster>;

// ------------------------------------------------------------ PbftOrdering

PbftOrdering::PbftOrdering(size_t num_replicas, net::SimNetConfig net_config,
                           const std::string& proto_label,
                           OrderingPipelineConfig pipeline,
                           OrderingRecoveryConfig recovery)
    : ReplicatedOrdering(num_replicas, net_config, recovery, "PBFT"),
      applied_seq_(num_replicas, 0) {
  consensus::PbftConfig config;
  config.num_replicas = num_replicas;
  // Protocol window >= pipeline window, so W instances can run the three
  // phases concurrently without the primary deferring our own submissions.
  config.high_watermark_window =
      std::max<uint64_t>(pipeline.max_inflight, 1);
  config.checkpoint_interval = recovery.checkpoint_interval;
  config.enable_state_transfer = recovery.enable_state_transfer;
  cluster_ = std::make_unique<consensus::PbftCluster>(config, net_.get());
  for (size_t i = 0; i < num_replicas; ++i) {
    cluster_->replica(i).SetStateCallbacks(
        [this, i] { return EncodeReplicaState(i); },
        [this, i](uint64_t /*seq*/, const Bytes& app_state) {
          if (app_state.empty() || !RestoreReplicaState(i, app_state).ok()) {
            return;
          }
          PersistInstalledState(i, applied_seq_[i]);
        });
  }
  pipeline_ = std::make_unique<GroupCommitPipeline>(
      net_.get(), pipeline, proto_label, [this](const Bytes& envelope) {
        cluster_->Submit(envelope);
        return Status::Ok();
      });
  // Commands are batch envelopes; each committed envelope is unpacked into
  // one ledger entry per payload. Entries are stamped with (seq, index) —
  // deterministic across replicas so replica agreement is auditable by
  // digest.
  cluster_->SetCommitCallback(
      [this](net::NodeId replica, uint64_t seq, const Bytes& cmd) {
        auto envelope = DecodeBatchEnvelope(cmd);
        if (!envelope.ok()) return;  // Corrupt or hostile: skip.
        // Commit events at or below the applied watermark are already in
        // the (checkpoint-restored) ledger; re-appending would duplicate.
        if (seq <= applied_seq_[replica]) return;
        applied_seq_[replica] = seq;
        AppendCommitted(replica, seq, envelope->batch_id, envelope->payloads);
        (void)JournalCommit(replica, seq, envelope->batch_id,
                            envelope->payloads.size());
      });
}

Bytes PbftOrdering::EncodeReplicaState(size_t i) const {
  BinaryWriter w;
  w.WriteU64(applied_seq_[i]);
  std::vector<Bytes> entries = ledgers_[i].EncodeEntries();
  w.WriteU64(entries.size());
  for (const Bytes& e : entries) w.WriteBytes(e);
  return w.Take();
}

Status PbftOrdering::RestoreReplicaState(size_t i, const Bytes& blob) {
  BinaryReader r(blob);
  PREVER_ASSIGN_OR_RETURN(uint64_t applied_seq, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(std::vector<Bytes> records, ReadLedgerRecords(r));
  PREVER_ASSIGN_OR_RETURN(ledger::LedgerDb restored,
                          ledger::LedgerDb::FromRecords(records));
  return RestoreReplica(i, std::move(restored), applied_seq);
}

Status PbftOrdering::RestoreReplica(size_t i, ledger::LedgerDb ledger,
                                    uint64_t applied_seq) {
  if (i >= ledgers_.size()) return Status::InvalidArgument("bad replica");
  ledgers_[i] = std::move(ledger);
  applied_seq_[i] = applied_seq;
  if (i == 0) committed_ = ledgers_[0].size();
  return Status::Ok();
}

Status PbftOrdering::RestartReplica(size_t i) {
  if (i >= durable_.size()) {
    return Status::NotSupported("PBFT replica has no durable state");
  }
  PREVER_ASSIGN_OR_RETURN(recovery::RebuiltReplica rebuilt,
                          durable_[i]->Rebuild());
  net_->RestartNode(static_cast<net::NodeId>(i));
  // Protocol restart first (installs the stable blob, broadcasts a
  // fetch-state request), then overlay the fuller journal-replayed ledger
  // so commits at or below the durable floor are not re-appended.
  cluster_->replica(i).Restart(rebuilt.app_state);
  return RestoreReplica(i, std::move(rebuilt.ledger), rebuilt.floor);
}

Bytes PbftOrdering::DurableAppState(size_t i) const {
  // The protocol-level stable checkpoint: on restart it re-anchors the
  // replica's low watermark; state transfer covers the executions past it.
  return cluster_->replica(i).stable_checkpoint_blob();
}

// ----------------------------------------------------- ShardedPbftOrdering

ShardedPbftOrdering::ShardedPbftOrdering(size_t num_shards,
                                         size_t replicas_per_shard,
                                         net::SimNetConfig net_config,
                                         OrderingPipelineConfig pipeline) {
  for (size_t i = 0; i < num_shards; ++i) {
    net::SimNetConfig cfg = net_config;
    cfg.seed = net_config.seed + i;  // Independent shard networks.
    shards_.push_back(std::make_unique<PbftOrdering>(
        replicas_per_shard, cfg, "pbft-sharded", pipeline));
  }
}

size_t ShardedPbftOrdering::ShardOf(const std::string& routing_key) const {
  // FNV-1a over the routing key.
  uint64_t h = 1469598103934665603ULL;
  for (char c : routing_key) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h % shards_.size();
}

Status ShardedPbftOrdering::AppendRouted(const std::string& routing_key,
                                         const Bytes& payload,
                                         SimTime timestamp) {
  return shards_[ShardOf(routing_key)]->Append(payload, timestamp);
}

Status ShardedPbftOrdering::Append(const Bytes& payload, SimTime timestamp) {
  return AppendRouted(ToString(payload), payload, timestamp);
}

Result<OrderingService::Ticket> ShardedPbftOrdering::SubmitRoutedAsync(
    const std::string& routing_key, const Bytes& payload, SimTime timestamp) {
  PREVER_RETURN_IF_ERROR(
      shards_[ShardOf(routing_key)]->SubmitAsync(payload, timestamp).status());
  return next_ticket_++;
}

Result<OrderingService::Ticket> ShardedPbftOrdering::SubmitAsync(
    const Bytes& payload, SimTime timestamp) {
  return SubmitRoutedAsync(ToString(payload), payload, timestamp);
}

Status ShardedPbftOrdering::Flush() {
  Status first = Status::Ok();
  for (auto& shard : shards_) {
    Status s = shard->Flush();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

uint64_t ShardedPbftOrdering::CommittedCount() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->CommittedCount();
  return total;
}

SimTime ShardedPbftOrdering::MaxShardTime() const {
  SimTime max_time = 0;
  for (const auto& shard : shards_) {
    max_time = std::max(max_time, shard->network().Now());
  }
  return max_time;
}

// ------------------------------------------------------------ RaftOrdering

RaftOrdering::RaftOrdering(size_t num_replicas, net::SimNetConfig net_config,
                           OrderingPipelineConfig pipeline,
                           OrderingRecoveryConfig recovery)
    : ReplicatedOrdering(num_replicas, net_config, recovery, "Raft"),
      applied_batches_(num_replicas),
      applied_floor_(num_replicas, 0) {
  consensus::RaftConfig config;
  config.num_replicas = num_replicas;
  cluster_ = std::make_unique<consensus::RaftCluster>(config, net_.get());
  pipeline_ = std::make_unique<GroupCommitPipeline>(
      net_.get(), pipeline, "raft",
      [this](const Bytes& envelope) { return cluster_->Submit(envelope); });
  for (size_t i = 0; i < num_replicas; ++i) {
    cluster_->replica(i).SetApplyCallback(
        [this, i](uint64_t index, const Bytes& cmd) {
          applied_floor_[i] = index;
          auto envelope = DecodeBatchEnvelope(cmd);
          if (!envelope.ok()) return;  // Not an envelope: skip.
          // A batch re-submitted after a leader change can land at a second
          // log index; every replica applies the same log, so skipping by
          // batch id keeps the ledgers identical AND duplicate-free.
          if (!applied_batches_[i].insert(envelope->batch_id).second) return;
          AppendCommitted(i, index, envelope->batch_id, envelope->payloads);
          // Every durable checkpoint also compacts the log below the
          // applied floor, with the checkpointed image as its snapshot.
          Bytes image;
          if (JournalCommit(i, index, envelope->batch_id,
                            envelope->payloads.size(), &image)) {
            (void)cluster_->replica(i).CompactTo(applied_floor_[i], image);
          }
        });
    cluster_->replica(i).SetSnapshotInstaller(
        [this, i](uint64_t /*snap_index*/, const Bytes& blob) {
          if (blob.empty() || !RestoreReplicaState(i, blob).ok()) return;
          PersistInstalledState(i, applied_floor_[i]);
        });
  }
  // Elect an initial leader.
  SimTime deadline = net_->Now() + 30 * kSecond;
  while (!cluster_->Leader().ok() && net_->Now() < deadline) {
    if (!net_->Step()) break;
  }
}

Bytes RaftOrdering::EncodeReplicaState(size_t i) const {
  BinaryWriter w;
  w.WriteU64(applied_floor_[i]);
  w.WriteU64(applied_batches_[i].size());
  for (uint64_t id : applied_batches_[i]) w.WriteU64(id);
  std::vector<Bytes> entries = ledgers_[i].EncodeEntries();
  w.WriteU64(entries.size());
  for (const Bytes& e : entries) w.WriteBytes(e);
  return w.Take();
}

Status RaftOrdering::RestoreReplicaState(size_t i, const Bytes& blob) {
  PREVER_ASSIGN_OR_RETURN(RaftReplicaImage image, DecodeRaftReplicaState(blob));
  PREVER_ASSIGN_OR_RETURN(ledger::LedgerDb restored,
                          ledger::LedgerDb::FromRecords(image.records));
  if (i >= ledgers_.size()) return Status::InvalidArgument("bad replica");
  ledgers_[i] = std::move(restored);
  applied_batches_[i] =
      std::set<uint64_t>(image.batch_ids.begin(), image.batch_ids.end());
  applied_floor_[i] = image.floor;
  if (i == 0) committed_ = ledgers_[0].size();
  return Status::Ok();
}

Status RaftOrdering::RestartReplica(size_t i) {
  if (i >= durable_.size()) {
    return Status::NotSupported("Raft replica has no durable state");
  }
  PREVER_ASSIGN_OR_RETURN(recovery::RebuiltReplica rebuilt,
                          durable_[i]->Rebuild());
  // The dedup set: batches the checkpoint image had applied plus the
  // replayed journal events.
  std::set<uint64_t> batch_ids(rebuilt.batch_ids.begin(),
                               rebuilt.batch_ids.end());
  if (!rebuilt.app_state.empty()) {
    PREVER_ASSIGN_OR_RETURN(RaftReplicaImage image,
                            DecodeRaftReplicaState(rebuilt.app_state));
    batch_ids.insert(image.batch_ids.begin(), image.batch_ids.end());
  }
  net_->RestartNode(static_cast<net::NodeId>(i));
  consensus::RaftReplica& replica = cluster_->replica(i);
  if (replica.snapshot_index() > rebuilt.floor &&
      !replica.snapshot_blob().empty()) {
    // The durable log was compacted past the journal's coverage: entries
    // below the snapshot are gone, so a rewind to the durable floor could
    // never re-deliver them. Install the snapshot the log carries, then
    // persist it so the on-disk chain is anchored again.
    PREVER_RETURN_IF_ERROR(RestoreReplicaState(i, replica.snapshot_blob()));
    replica.Recover(applied_floor_[i]);
    PersistInstalledState(i, applied_floor_[i]);
    return Status::Ok();
  }
  ledgers_[i] = std::move(rebuilt.ledger);
  applied_batches_[i] = std::move(batch_ids);
  applied_floor_[i] = rebuilt.floor;
  if (i == 0) committed_ = ledgers_[0].size();
  // Rewind to the durable floor and re-deliver the committed suffix
  // (batch-id dedup absorbs anything the ledger already holds).
  replica.Recover(rebuilt.floor);
  return Status::Ok();
}

}  // namespace prever::core
