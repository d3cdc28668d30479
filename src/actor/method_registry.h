// Per-actor-type registry of wire-invokable methods — the receiving half of
// the serialized invocation boundary (the moral equivalent of Orleans'
// generated grain invokers).
//
// Registration happens once per process, keyed by (actor type name, method
// id). The method id is a stable FNV-1a hash of the registered method name;
// see DESIGN.md "Invocation boundary & wire format" for the stability rules.
// The send side resolves a member-function pointer to its WireMethodInfo via
// per-signature tables; the receive side resolves (type, id) to an invoker
// that decodes the argument tuple, runs the method on the activation, and
// encodes the Result<T> reply.

#ifndef AODB_ACTOR_METHOD_REGISTRY_H_
#define AODB_ACTOR_METHOD_REGISTRY_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "actor/actor.h"
#include "actor/future.h"
#include "common/small_function.h"
#include "common/wire.h"

namespace aodb {

/// Unit results travel as zero bytes.
template <>
struct WireCodec<Unit> {
  static void Encode(BufWriter*, const Unit&) {}
  static Status Decode(BufReader*, Unit*) { return Status::OK(); }
};

/// Identity of one registered wire method. Stable for the process lifetime;
/// envelopes hold pointers into the registry.
struct WireMethodInfo {
  std::string name;
  uint64_t id = 0;
  /// Declared safe to execute more than once (reads, set-style writes).
  /// In-flight failover re-submits only idempotent calls after a silo
  /// eviction; everything else completes with Unavailable.
  bool idempotent = false;
  /// Codec self-check: round-trips a default argument tuple and result and
  /// verifies byte-exact re-encoding. Run by tests over every registration.
  std::function<Status()> self_check;
};

/// Receive-side reply hook: takes the encoded Result<T> payload (unsealed).
/// Empty for fire-and-forget tells. Inline-sized for the dispatch's reply
/// route (shared call object + replying silo), so a request allocates no
/// hook.
using WireReplyFn = SmallFunction<void(std::string), 24>;

/// Decodes arguments from the reader, invokes the method on the activation,
/// and (if a reply hook is present) encodes the result.
using WireInvoker =
    std::function<void(ActorBase&, BufReader&, const WireReplyFn&)>;

struct WireMethodEntry {
  WireMethodInfo info;
  WireInvoker invoke;
};

namespace internal {

/// Maps an actor method's return type R to the value type of the Future
/// returned by Call (shared with ActorRef).
template <typename R>
struct CallResult {
  using type = R;
};
template <>
struct CallResult<void> {
  using type = Unit;
};
template <typename U>
struct CallResult<Future<U>> {
  using type = U;
};

/// Serializes registrations into the per-signature send-side tables
/// (defined in the .cc). Lookups never take it.
std::mutex& SigTableMutex();

/// Send-side lookup table for one member-function-pointer signature,
/// keyed on the member pointer itself: member pointers cannot be hashed, so
/// each signature gets its own short list (a handful of methods per
/// signature in practice). The list is prepend-only and its rows are
/// immutable and never freed, so Find walks it with acquire loads and no
/// lock, and still sees a row registered after an earlier lookup — also one
/// for another method of the same signature.
template <typename R, typename C, typename... MArgs>
struct SigTable {
  using MPtr = R (C::*)(MArgs...);
  struct Row {
    MPtr ptr;
    const WireMethodInfo* info;
    const Row* next;
  };
  /// Newest row first.
  static inline std::atomic<const Row*> head{nullptr};
};

/// Codec self-check for one method signature: encode a default argument
/// tuple, decode it, re-encode, and require byte equality; same for a
/// default and an error Result<RT>.
template <typename RT, typename... DArgs>
Status WireSelfCheck(const std::string& name) {
  std::tuple<DArgs...> args{};
  BufWriter w;
  WireEncodeTuple(&w, args);
  std::string encoded = w.Release();
  std::tuple<DArgs...> decoded{};
  BufReader r(encoded);
  Status st = WireDecodeTuple(&r, &decoded);
  if (!st.ok()) {
    return Status::Internal(name + ": arg decode failed: " + st.ToString());
  }
  if (!r.AtEnd()) return Status::Internal(name + ": trailing arg bytes");
  BufWriter w2;
  WireEncodeTuple(&w2, decoded);
  if (w2.data() != encoded) {
    return Status::Internal(name + ": arg re-encode mismatch");
  }
  BufWriter rw;
  WireEncodeResult<RT>(&rw, Result<RT>(RT{}));
  std::string rbuf = rw.Release();
  BufReader rr(rbuf);
  Result<RT> rres = WireDecodeResult<RT>(&rr);
  if (!rres.ok() || !rr.AtEnd()) {
    return Status::Internal(name + ": result round-trip failed");
  }
  BufWriter ew;
  WireEncodeResult<RT>(&ew, Result<RT>::FromError(Status::Aborted("probe")));
  BufReader er(ew.data());
  Result<RT> eres = WireDecodeResult<RT>(&er);
  if (eres.ok() || eres.status().code() != StatusCode::kAborted) {
    return Status::Internal(name + ": error result round-trip failed");
  }
  return Status::OK();
}

/// Runs `method` on `obj` with the unpacked argument tuple and hands its
/// outcome, as a Result<RT>, to `done` — for a Future-returning method, once
/// that future settles. Shared by both lanes' dispatch.
template <typename RT, typename Obj, typename R, typename C,
          typename... MArgs, typename Tuple, typename Done>
void InvokeThen(Obj& obj, R (C::*method)(MArgs...), Tuple& args, Done done) {
  auto call = [&] {
    return std::apply([&](auto&... a) { return (obj.*method)(a...); }, args);
  };
  if constexpr (IsFuture<R>::value) {
    call().OnReady(std::move(done));
  } else if constexpr (std::is_void_v<R>) {
    call();
    done(Result<RT>(Unit{}));
  } else {
    done(Result<RT>(call()));
  }
}

/// Builds the receive-side invoker for one method.
template <typename R, typename C, typename... MArgs>
WireInvoker MakeWireInvoker(R (C::*method)(MArgs...)) {
  using RT = typename CallResult<R>::type;
  return [method](ActorBase& base, BufReader& r, const WireReplyFn& reply) {
    std::tuple<std::decay_t<MArgs>...> args{};
    Status st = WireDecodeTuple(&r, &args);
    if (st.ok() && !r.AtEnd()) {
      st = Status::Corruption("trailing bytes after wire arguments");
    }
    if (!st.ok()) {
      if (reply) {
        BufWriter w;
        WireEncodeResult<RT>(
            &w, Result<RT>::FromError(
                    st.IsCorruption() ? st : Status::Corruption(st.ToString())));
        reply(w.Release());
      }
      return;
    }
    C& obj = static_cast<C&>(base);
    if (!reply) {
      std::apply([&](auto&... a) { (void)(obj.*method)(a...); }, args);
      return;
    }
    InvokeThen<RT>(obj, method, args, [reply](Result<RT>&& res) {
      BufWriter w;
      WireEncodeResult<RT>(&w, res);
      reply(w.Release());
    });
  };
}

}  // namespace internal

/// Registry key of the runtime-owned methods: methods every actor type
/// answers, found for any target type. The only one is the reminder tick,
/// ActorBase::ReceiveReminder, registered by the registry itself.
inline constexpr char kRuntimeMethodsType[] = "aodb.runtime";

/// Process-wide registry of wire-invokable actor methods.
class MethodRegistry {
 public:
  static MethodRegistry& Global();

  /// Stable method id: FNV-1a over the registered method name.
  static uint64_t MethodId(const std::string& method_name);

  /// Registers `method` of actor type `type_name` under `method_name`.
  /// Idempotent for repeated identical registrations; fails on a method-id
  /// collision within the type. The method's full signature (arguments and
  /// result) must be wire-encodable — enforced at compile time. Pass
  /// `idempotent = true` to declare the method safe to run more than once
  /// (enables transparent re-submission by in-flight failover).
  template <typename R, typename C, typename... MArgs>
  Status Register(const std::string& type_name, R (C::*method)(MArgs...),
                  const std::string& method_name, bool idempotent = false) {
    using RT = typename internal::CallResult<R>::type;
    static_assert(WireSupported<RT, std::decay_t<MArgs>...>::value,
                  "method signature is not wire-encodable; add a WireCodec "
                  "specialization (or Encode/Decode members) for every "
                  "argument and the result type");
    auto entry = std::make_unique<WireMethodEntry>();
    entry->info.name = method_name;
    entry->info.id = MethodId(method_name);
    entry->info.idempotent = idempotent;
    entry->info.self_check = [method_name] {
      return internal::WireSelfCheck<RT, std::decay_t<MArgs>...>(method_name);
    };
    entry->invoke = internal::MakeWireInvoker<R, C, MArgs...>(method);
    const WireMethodEntry* installed = nullptr;
    AODB_RETURN_NOT_OK(AddEntry(type_name, std::move(entry), &installed));
    using Table = internal::SigTable<R, C, MArgs...>;
    std::lock_guard<std::mutex> lock(internal::SigTableMutex());
    const typename Table::Row* head =
        Table::head.load(std::memory_order_relaxed);
    for (auto* row = head; row != nullptr; row = row->next) {
      if (row->ptr == method) return Status::OK();
    }
    Table::head.store(new typename Table::Row{method, &installed->info, head},
                      std::memory_order_release);
    return Status::OK();
  }

  /// Send-side lookup: the registration for a member-function pointer, or
  /// nullptr if the method was never registered (the message can then only
  /// be delivered on the caller's own silo). Takes no lock (see SigTable).
  template <typename R, typename C, typename... MArgs>
  const WireMethodInfo* Find(R (C::*method)(MArgs...)) const {
    for (auto* row = internal::SigTable<R, C, MArgs...>::head.load(
             std::memory_order_acquire);
         row != nullptr; row = row->next) {
      if (row->ptr == method) return row->info;
    }
    return nullptr;
  }

  /// Receive-side lookup (the type's own methods, then the runtime-owned
  /// ones), or nullptr. Takes no lock (see Node).
  const WireMethodEntry* FindEntry(const std::string& type_name,
                                   uint64_t method_id) const;

  /// Number of methods registered for a type (0 for unknown types).
  size_t MethodCount(const std::string& type_name) const;

  /// Runs every registered method's codec self-check; returns the first
  /// failure, naming the offending method.
  Status SelfCheckAll() const;

  /// Total registrations across all types.
  size_t TotalMethods() const;

 private:
  MethodRegistry();

  Status AddEntry(const std::string& type_name,
                  std::unique_ptr<WireMethodEntry> entry,
                  const WireMethodEntry** installed);

  /// One registered method. Nodes form fixed buckets of prepend-only lists
  /// keyed by (type, method id); a published node is never unlinked or
  /// freed while the registry lives, so FindEntry walks the lists with
  /// acquire loads and no lock.
  struct Node {
    std::string type;
    std::unique_ptr<WireMethodEntry> entry;
    const Node* next = nullptr;
  };
  static constexpr size_t kBuckets = 256;
  static size_t BucketOf(std::string_view type, uint64_t method_id);
  const Node* FindNode(std::string_view type, uint64_t method_id) const;

  /// Serializes registrations and guards nodes_.
  mutable std::mutex mu_;
  std::array<std::atomic<const Node*>, kBuckets> buckets_{};
  /// Owns every node, in registration order.
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// Decodes a sealed wire reply frame into the caller's typed result.
template <typename RT>
Result<RT> DecodeWireReply(Result<std::string>&& frame) {
  if (!frame.ok()) return Result<RT>::FromError(frame.status());
  std::string_view payload;
  Status st = WireOpen(frame.value(), &payload);
  if (!st.ok()) return Result<RT>::FromError(st);
  BufReader r(payload);
  Result<RT> res = WireDecodeResult<RT>(&r);
  if (res.ok() && !r.AtEnd()) {
    return Result<RT>::FromError(
        Status::Corruption("trailing bytes in wire reply"));
  }
  return res;
}

}  // namespace aodb

#endif  // AODB_ACTOR_METHOD_REGISTRY_H_
