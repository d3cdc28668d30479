#include "actor/method_registry.h"

#include <algorithm>
#include <cassert>

namespace aodb {

namespace internal {

std::mutex& SigTableMutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace internal

MethodRegistry& MethodRegistry::Global() {
  static MethodRegistry registry;
  return registry;
}

MethodRegistry::MethodRegistry() {
  // Reminder ticks come from the runtime, not from an actor, so they
  // travel the wire lane under one method that every actor type answers.
  [[maybe_unused]] Status st =
      Register(kRuntimeMethodsType, &ActorBase::ReceiveReminder,
               "ActorBase.ReceiveReminder");
  assert(st.ok());
}

uint64_t MethodRegistry::MethodId(const std::string& method_name) {
  uint64_t h = 14695981039346656037ULL;
  for (char c : method_name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Status MethodRegistry::AddEntry(const std::string& type_name,
                                std::unique_ptr<WireMethodEntry> entry,
                                const WireMethodEntry** installed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const Node* existing = FindNode(type_name, entry->info.id)) {
    WireMethodEntry* prior = existing->entry.get();
    if (prior->info.name != entry->info.name) {
      return Status::AlreadyExists(
          "wire method id collision in type " + type_name + ": \"" +
          prior->info.name + "\" vs \"" + entry->info.name + "\"");
    }
    // Idempotent re-registration; a later declaration of idempotency
    // upgrades the existing entry (registration happens at startup).
    prior->info.idempotent |= entry->info.idempotent;
    *installed = prior;
    return Status::OK();
  }
  auto node = std::make_unique<Node>();
  node->type = type_name;
  node->entry = std::move(entry);
  *installed = node->entry.get();
  std::atomic<const Node*>& bucket =
      buckets_[BucketOf(type_name, node->entry->info.id)];
  node->next = bucket.load(std::memory_order_relaxed);
  bucket.store(node.get(), std::memory_order_release);
  nodes_.push_back(std::move(node));
  return Status::OK();
}

size_t MethodRegistry::BucketOf(std::string_view type, uint64_t method_id) {
  uint64_t h = 14695981039346656037ULL;
  for (char c : type) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  h ^= method_id;
  return static_cast<size_t>((h >> 32) ^ h) % kBuckets;
}

const MethodRegistry::Node* MethodRegistry::FindNode(
    std::string_view type, uint64_t method_id) const {
  for (const Node* n =
           buckets_[BucketOf(type, method_id)].load(std::memory_order_acquire);
       n != nullptr; n = n->next) {
    if (n->entry->info.id == method_id && n->type == type) return n;
  }
  return nullptr;
}

const WireMethodEntry* MethodRegistry::FindEntry(const std::string& type_name,
                                                 uint64_t method_id) const {
  const Node* node = FindNode(type_name, method_id);
  if (node == nullptr) node = FindNode(kRuntimeMethodsType, method_id);
  return node == nullptr ? nullptr : node->entry.get();
}

size_t MethodRegistry::MethodCount(const std::string& type_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [&](const auto& n) { return n->type == type_name; }));
}

Status MethodRegistry::SelfCheckAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& node : nodes_) {
    const WireMethodInfo& info = node->entry->info;
    if (!info.self_check) continue;
    Status st = info.self_check();
    if (!st.ok()) {
      return Status::Internal("wire self-check failed for " + node->type +
                              "." + info.name + ": " + st.ToString());
    }
  }
  return Status::OK();
}

size_t MethodRegistry::TotalMethods() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.size();
}

}  // namespace aodb
