#include "aodb/workflow.h"

#include "actor/retry_async.h"
#include "common/logging.h"

namespace aodb {

WorkflowEngine::WorkflowEngine(Cluster* cluster, WorkflowOptions options)
    : cluster_(cluster), options_(options) {
  MetricsRegistry& reg = cluster->metrics();
  steps_executed_ = reg.GetCounter("workflow.steps_executed");
  retries_ = reg.GetCounter("workflow.retries");
  compensations_ = reg.GetCounter("workflow.compensations");
  compensation_failures_ = reg.GetCounter("workflow.compensation_failures");
}

Future<Status> WorkflowEngine::Run(std::vector<WorkflowStep> steps) {
  auto state = std::make_shared<RunState>();
  state->steps = std::move(steps);
  if (state->steps.empty()) {
    return Future<Status>::FromValue(Status::OK());
  }
  Future<Status> out = state->done.GetFuture();
  // Trace: inherit the caller's context (the workflow becomes a child span)
  // or, at an untraced root, take the tracer's sampling decision.
  state->trace = CurrentTraceContext();
  Tracer& tracer = cluster_->tracer();
  if (!state->trace.valid() && tracer.enabled()) {
    state->trace = tracer.MaybeStartTrace();
  }
  if (state->trace.sampled) {
    uint64_t parent = state->trace.span_id;
    state->trace.span_id = tracer.NewSpanId();
    Clock* clk = cluster_->client_executor()->clock();
    Micros start_us = clk->Now();
    Tracer* tp = &tracer;
    TraceContext tc = state->trace;
    out.OnReady([tp, clk, tc, parent, start_us](Result<Status>&&) {
      SpanRecord rec;
      rec.trace_id = tc.trace_id;
      rec.span_id = tc.span_id;
      rec.parent_span_id = parent;
      rec.name = "workflow";
      rec.kind = "workflow";
      rec.silo = kClientSiloId;
      rec.start_us = start_us;
      rec.end_us = clk->Now();
      tp->Record(std::move(rec));
    });
  }
  RunStep(state);
  return out;
}

uint64_t WorkflowEngine::NextSeed() {
  return cluster_->options().seed ^
         (0x77666c6f77ULL + seed_seq_.fetch_add(1));
}

void WorkflowEngine::RunStep(std::shared_ptr<RunState> state) {
  if (state->next >= state->steps.size()) {
    state->done.SetValue(Status::OK());
    return;
  }
  Cluster* cluster = cluster_;
  WorkflowStep step = state->steps[state->next];
  // Install the workflow's context so the retry loop (and through it every
  // step send, including retried ones) parents under the workflow span.
  ScopedTraceContext scope(state->trace);
  RetryAsync<Status>(
      cluster_->client_executor(), options_.retry, NextSeed(),
      [cluster, step] {
        // Workflow steps are control traffic: never load-shed.
        CallOptions opts;
        opts.priority = MessagePriority::kControl;
        return cluster
            ->RefAs<TransactionalActor>(step.actor_type, step.actor_key)
            .CallWith(opts, &TransactionalActor::ExecuteOp, step.op,
                      step.arg);
      },
      IsTransient, [this](const Status&) { retries_->Add(); })
      .OnReady([this, state](Result<Status>&& r) {
        Status st = FailureOf(r);
        if (st.ok()) {
          steps_executed_->Add();
          ++state->next;
          RunStep(state);
          return;
        }
        // Permanent failure: compensate what already ran, then report.
        Compensate(state, state->next);
        state->done.SetValue(st);
      });
}

void WorkflowEngine::Compensate(const std::shared_ptr<RunState>& state,
                                size_t completed) {
  for (size_t i = completed; i-- > 0;) {
    const WorkflowStep& step = state->steps[i];
    if (step.compensate_op.empty()) continue;
    compensations_->Add();
    Cluster* cluster = cluster_;
    WorkflowStep comp = step;
    ScopedTraceContext scope(state->trace);
    RetryAsync<Status>(
        cluster_->client_executor(), options_.retry, NextSeed(),
        [cluster, comp] {
          CallOptions opts;
          opts.priority = MessagePriority::kControl;
          return cluster
              ->RefAs<TransactionalActor>(comp.actor_type, comp.actor_key)
              .CallWith(opts, &TransactionalActor::ExecuteOp,
                        comp.compensate_op, comp.compensate_arg);
        },
        IsTransient, [this](const Status&) { retries_->Add(); })
        .OnReady([this, comp](Result<Status>&& r) {
          Status st = FailureOf(r);
          if (!st.ok()) {
            compensation_failures_->Add();
            AODB_LOG(Error, "compensation %s on %s/%s failed permanently: %s",
                     comp.compensate_op.c_str(), comp.actor_type.c_str(),
                     comp.actor_key.c_str(), st.ToString().c_str());
          }
        });
  }
}

}  // namespace aodb
