#include "aodb/txn.h"

#include "actor/retry_async.h"

namespace aodb {

Status TransactionalActor::TxnPrepare(std::string txn_id, std::string op,
                                      std::string arg) {
  Micros now = ctx().Now();
  if (!lock_txn_.empty() && lock_txn_ != txn_id) {
    if (now - lock_since_ < kLockTimeoutUs) {
      return Status::Aborted("lock held by " + lock_txn_);
    }
    // Stale lock from a failed coordinator: break it.
    for (const StagedOp& s : staged_) UnstageOp(s.op, s.arg);
    staged_.clear();
    lock_txn_.clear();
  }
  Status st = ValidateOp(op, arg);
  if (!st.ok()) return st;
  if (lock_txn_.empty()) {
    lock_txn_ = txn_id;
    lock_since_ = now;
  }
  staged_.push_back(StagedOp{std::move(op), std::move(arg)});
  return Status::OK();
}

void TransactionalActor::TxnCommit(std::string txn_id) {
  if (lock_txn_ != txn_id) return;  // Already broken or never prepared.
  for (const StagedOp& s : staged_) ApplyOp(s.op, s.arg);
  staged_.clear();
  lock_txn_.clear();
}

void TransactionalActor::TxnAbort(std::string txn_id) {
  if (lock_txn_ != txn_id) return;
  for (const StagedOp& s : staged_) UnstageOp(s.op, s.arg);
  staged_.clear();
  lock_txn_.clear();
}

Status TransactionalActor::ExecuteOp(std::string op, std::string arg) {
  if (!lock_txn_.empty()) {
    if (ctx().Now() - lock_since_ < kLockTimeoutUs) {
      return Status::Aborted("actor locked by transaction " + lock_txn_);
    }
    // Stale lock: break it, releasing any reservations.
    for (const StagedOp& s : staged_) UnstageOp(s.op, s.arg);
    staged_.clear();
    lock_txn_.clear();
  }
  Status st = ValidateOp(op, arg);
  if (!st.ok()) return st;
  ApplyOp(op, arg);
  return Status::OK();
}

bool TransactionalActor::TxnLocked() { return !lock_txn_.empty(); }

TxnManager::TxnManager(Cluster* cluster, TxnOptions options)
    : cluster_(cluster), options_(options) {
  attempts_ = cluster->metrics().GetCounter("txn.attempts");
  aborts_ = cluster->metrics().GetCounter("txn.aborts");
}

std::string TxnManager::NextTxnId() {
  return "txn-" + std::to_string(seq_.fetch_add(1) + 1);
}

Future<Status> TxnManager::RunOnce(std::vector<TxnOp> ops) {
  if (ops.empty()) return Future<Status>::FromValue(Status::OK());
  attempts_->Add();
  std::string txn_id = NextTxnId();
  // Trace: each attempt is one "txn" span; prepares and the phase-2 tells
  // all send under it, so participant turns parent under the attempt.
  TraceContext txn_ctx = CurrentTraceContext();
  Tracer& tracer = cluster_->tracer();
  if (!txn_ctx.valid() && tracer.enabled()) {
    txn_ctx = tracer.MaybeStartTrace();
  }
  uint64_t parent_span = txn_ctx.span_id;
  if (txn_ctx.sampled) txn_ctx.span_id = tracer.NewSpanId();
  std::vector<Future<Status>> prepares;
  prepares.reserve(ops.size());
  // 2PC steps are control traffic: the load shedder never rejects them —
  // shedding a prepare or phase-2 decision would strand participant locks.
  CallOptions txn_opts;
  txn_opts.priority = MessagePriority::kControl;
  {
    ScopedTraceContext scope(txn_ctx);
    for (const TxnOp& op : ops) {
      prepares.push_back(
          cluster_->RefAs<TransactionalActor>(op.actor_type, op.actor_key)
              .CallWith(txn_opts, &TransactionalActor::TxnPrepare, txn_id,
                        op.op, op.arg));
    }
  }
  Promise<Status> done;
  Cluster* cluster = cluster_;
  Counter* aborts = aborts_;
  Micros start_us = cluster_->client_executor()->clock()->Now();
  AllOk(prepares).OnReady([cluster, ops = std::move(ops), txn_id, done, aborts,
                           txn_ctx, parent_span,
                           start_us](Result<Status>&& r) {
    const Status& outcome = r.value();
    // Phase 2: commit everywhere on success, abort everywhere otherwise.
    // Abort is also sent to participants whose prepare failed; they ignore
    // it (lock not held by this txn), which keeps the protocol simple.
    {
      ScopedTraceContext scope(txn_ctx);
      CallOptions phase2_opts;
      phase2_opts.priority = MessagePriority::kControl;
      for (const TxnOp& op : ops) {
        auto ref =
            cluster->RefAs<TransactionalActor>(op.actor_type, op.actor_key);
        if (outcome.ok()) {
          ref.TellWith(phase2_opts, &TransactionalActor::TxnCommit, txn_id);
        } else {
          ref.TellWith(phase2_opts, &TransactionalActor::TxnAbort, txn_id);
        }
      }
    }
    if (!outcome.ok()) aborts->Add();
    if (txn_ctx.sampled) {
      SpanRecord rec;
      rec.trace_id = txn_ctx.trace_id;
      rec.span_id = txn_ctx.span_id;
      rec.parent_span_id = parent_span;
      rec.name = txn_id;
      rec.kind = "txn";
      rec.silo = kClientSiloId;
      rec.start_us = start_us;
      rec.end_us = cluster->client_executor()->clock()->Now();
      cluster->tracer().Record(std::move(rec));
    }
    done.SetValue(outcome);
  });
  return done.GetFuture();
}

Future<Status> TxnManager::Run(std::vector<TxnOp> ops) {
  uint64_t seed =
      cluster_->options().seed ^ (0x74786e5aULL + seed_seq_.fetch_add(1));
  TxnManager* self = this;
  auto shared_ops = std::make_shared<std::vector<TxnOp>>(std::move(ops));
  return RetryAsync<Status>(
      cluster_->client_executor(), options_.retry, seed,
      [self, shared_ops] { return self->RunOnce(*shared_ops); },
      // Lock conflicts (Aborted) and crashed/unreachable participants
      // (Unavailable) are worth another round; everything else — including
      // validation failures — is final.
      [](const Status& st) { return st.IsAborted() || st.IsUnavailable(); });
}

}  // namespace aodb
