#include "actor/actor.h"

#include "actor/cluster.h"

namespace aodb {

ActorContext::ActorContext(ActorId self, SiloId silo, Cluster* cluster,
                           Executor* executor)
    : self_(std::move(self)),
      silo_(silo),
      cluster_(cluster),
      executor_(executor),
      rng_(ActorIdHash()(self_) ^ cluster->options().seed) {}

Micros ActorContext::Now() const { return executor_->clock()->Now(); }

void ActorContext::SetTimer(const std::string& name, Micros period_us,
                            Micros tick_cost_us) {
  CancelTimer(name);
  auto alive = std::make_shared<bool>(true);
  timers_[name] = alive;
  Cluster* cluster = cluster_;
  Executor* exec = executor_;
  ActorId self = self_;
  SiloId silo = silo_;
  auto fire = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_fire = fire;
  *fire = [cluster, exec, self, silo, name, period_us, tick_cost_us, alive,
           weak_fire]() {
    if (!*alive) return;
    Envelope env;
    env.target = self;
    env.caller_silo = silo;
    env.cost_us = tick_cost_us;
    env.activation_scoped = true;
    env.fn = [name](ActorBase& a) { a.OnTimer(name); };
    cluster->Send(std::move(env));
    if (auto next = weak_fire.lock()) {
      exec->PostAfter(period_us, [next] { (*next)(); });
    }
  };
  exec->PostAfter(period_us, [fire] { (*fire)(); });
}

void ActorContext::CancelTimer(const std::string& name) {
  auto it = timers_.find(name);
  if (it == timers_.end()) return;
  *it->second = false;
  timers_.erase(it);
}

void ActorContext::CancelAllTimers() {
  for (auto& [name, alive] : timers_) *alive = false;
  timers_.clear();
}

Status ActorContext::RegisterReminder(const std::string& name,
                                      Micros period_us) {
  return cluster_->RegisterReminder(self_, name, period_us);
}

Status ActorContext::UnregisterReminder(const std::string& name) {
  return cluster_->UnregisterReminder(self_, name);
}

StateStorage* ActorContext::storage(const std::string& provider) const {
  return cluster_->GetStateStorage(provider);
}

}  // namespace aodb
