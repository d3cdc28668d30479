// Type registry: partitioned registry actors tracking which keys of an
// application actor type exist. This is the AODB metadata that makes
// type-wide declarative queries possible (the Bernstein et al. vision the
// paper builds on): actors register on creation, and the query engine
// enumerates them without a table scan over storage.

#ifndef AODB_AODB_REGISTRY_H_
#define AODB_AODB_REGISTRY_H_

#include <set>
#include <string>
#include <vector>

#include "actor/actor_ref.h"
#include "actor/runtime.h"

namespace aodb {

/// Number of registry partitions per actor type. Partitioning avoids a
/// single registry actor becoming a hotspot under concurrent creation.
constexpr int kRegistryPartitions = 8;

/// One registry partition: a set of registered actor keys.
class RegistryActor : public ActorBase {
 public:
  static constexpr char kTypeName[] = "aodb.Registry";

  void Add(std::string actor_key) { keys_.insert(std::move(actor_key)); }
  void Remove(std::string actor_key) { keys_.erase(actor_key); }
  bool Contains(std::string actor_key) { return keys_.count(actor_key) > 0; }
  std::vector<std::string> List() {
    return std::vector<std::string>(keys_.begin(), keys_.end());
  }
  int64_t Size() { return static_cast<int64_t>(keys_.size()); }

 private:
  std::set<std::string> keys_;
};

/// Client/actor-side helper for a type's partitioned registry.
class TypeRegistry {
 public:
  /// Partition key for an instance of `type` with key `actor_key`.
  static std::string PartitionKey(const std::string& type,
                                  const std::string& actor_key) {
    size_t h = ActorIdHash()(ActorId{type, actor_key});
    return type + "#" + std::to_string(h % kRegistryPartitions);
  }

  /// Registers an instance (call on first activation or on creation).
  template <typename Sender>
  static void Add(Sender&& sender, const std::string& type,
                  const std::string& actor_key) {
    sender.template Ref<RegistryActor>(PartitionKey(type, actor_key))
        .Tell(&RegistryActor::Add, actor_key);
  }

  /// Removes an instance (on logical deletion).
  template <typename Sender>
  static void Remove(Sender&& sender, const std::string& type,
                     const std::string& actor_key) {
    sender.template Ref<RegistryActor>(PartitionKey(type, actor_key))
        .Tell(&RegistryActor::Remove, actor_key);
  }

  /// Lists all registered keys of `type` (fans out over all partitions).
  static Future<std::vector<std::string>> ListAll(Cluster& cluster,
                                                  const std::string& type) {
    std::vector<Future<std::vector<std::string>>> parts;
    parts.reserve(kRegistryPartitions);
    for (int p = 0; p < kRegistryPartitions; ++p) {
      parts.push_back(
          cluster.Ref<RegistryActor>(type + "#" + std::to_string(p))
              .Call(&RegistryActor::List));
    }
    return AllValues(parts).Then(
        [](std::vector<std::vector<std::string>>&& lists) {
          std::vector<std::string> all;
          for (auto& list : lists) {
            for (auto& k : list) all.push_back(std::move(k));
          }
          return all;
        });
  }
};

}  // namespace aodb

#endif  // AODB_AODB_REGISTRY_H_
