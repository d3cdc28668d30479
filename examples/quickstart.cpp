// Quickstart: define a virtual actor, run a real (thread-pool) cluster,
// and exchange messages with it.
//
//   $ ./build/examples/quickstart
//
// Demonstrates the core API surface: ActorBase, kTypeName, Cluster
// registration, wire-method registration, ActorRef::Call / Tell, futures,
// and virtual-actor perpetuity (actors are addressed by name and activated
// on demand).

#include <cstdio>

#include "actor/actor_ref.h"
#include "actor/method_registry.h"
#include "actor/runtime.h"

using namespace aodb;

/// A device shadow: the latest reported measurement of one IoT device.
/// Virtual actors are perfect device shadows — always addressable, living
/// in memory only while traffic flows.
class DeviceShadow : public ActorBase {
 public:
  static constexpr char kTypeName[] = "DeviceShadow";

  /// Devices report asynchronously (fire-and-forget from the gateway).
  void Report(double value) {
    last_value_ = value;
    ++reports_;
  }

  /// Dashboards read the shadow (request/response).
  double LastValue() { return last_value_; }
  int64_t Reports() { return reports_; }

  /// Actors can introspect their identity and environment.
  std::string Describe() {
    return ctx().self().ToString() + " on silo " +
           std::to_string(ctx().silo());
  }

 private:
  double last_value_ = 0;
  int64_t reports_ = 0;
};

/// Registers the methods that are called from outside the actor's silo. A
/// call that crosses a node boundary travels serialized (the wire lane), so
/// each such method needs a stable name in the MethodRegistry.
Status RegisterWireMethods() {
  MethodRegistry& wire = MethodRegistry::Global();
  AODB_RETURN_NOT_OK(wire.Register(DeviceShadow::kTypeName,
                                   &DeviceShadow::Report,
                                   "DeviceShadow.Report"));
  AODB_RETURN_NOT_OK(wire.Register(DeviceShadow::kTypeName,
                                   &DeviceShadow::LastValue,
                                   "DeviceShadow.LastValue",
                                   /*idempotent=*/true));
  AODB_RETURN_NOT_OK(wire.Register(DeviceShadow::kTypeName,
                                   &DeviceShadow::Reports,
                                   "DeviceShadow.Reports",
                                   /*idempotent=*/true));
  return wire.Register(DeviceShadow::kTypeName, &DeviceShadow::Describe,
                       "DeviceShadow.Describe", /*idempotent=*/true);
}

int main() {
  Status registered = RegisterWireMethods();
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }

  // A 2-silo cluster on real thread pools (2 worker threads per silo).
  RuntimeOptions options;
  options.num_silos = 2;
  options.workers_per_silo = 2;
  RealClusterHandle handle(options);
  handle->RegisterActorType<DeviceShadow>();

  // Virtual actors need no explicit creation: referencing "thermometer-1"
  // activates it on first message.
  auto device = handle->Ref<DeviceShadow>("thermometer-1");

  // Fire-and-forget reports, like an IoT gateway would send.
  for (int i = 1; i <= 10; ++i) {
    device.Tell(&DeviceShadow::Report, 20.0 + 0.1 * i);
  }

  // Request/response: Call returns a Future.
  // (Blocking Get() is fine here — we are an external client, not an actor.)
  while (device.Call(&DeviceShadow::Reports).Get().value() < 10) {
  }
  auto value = device.Call(&DeviceShadow::LastValue).Get();
  auto where = device.Call(&DeviceShadow::Describe).Get();
  std::printf("latest value : %.1f\n", value.value());
  std::printf("activation   : %s\n", where.value().c_str());

  // A different key is a different actor with its own state.
  auto other = handle->Ref<DeviceShadow>("thermometer-2");
  std::printf("other device : %lld reports (fresh actor)\n",
              static_cast<long long>(
                  other.Call(&DeviceShadow::Reports).Get().value()));

  std::printf("activations  : %zu\n", handle->TotalActivations());
  std::printf("OK\n");
  return 0;
}
