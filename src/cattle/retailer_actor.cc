#include "cattle/retailer_actor.h"

namespace aodb {
namespace cattle {

// --- MeatProductActor --------------------------------------------------------

Status MeatProductActor::Create(std::string retailer_key,
                                std::vector<std::string> cut_keys) {
  if (created_) return Status::AlreadyExists("product exists");
  if (cut_keys.empty()) {
    return Status::InvalidArgument("product needs at least one cut");
  }
  created_ = true;
  retailer_key_ = std::move(retailer_key);
  cut_keys_ = std::move(cut_keys);
  created_at_ = ctx().Now();
  return Status::OK();
}

Status MeatProductActor::CreateWithRecords(
    std::string retailer_key, std::vector<MeatCutRecord> records) {
  if (created_) return Status::AlreadyExists("product exists");
  if (records.empty()) {
    return Status::InvalidArgument("product needs at least one cut");
  }
  created_ = true;
  retailer_key_ = std::move(retailer_key);
  for (const MeatCutRecord& r : records) cut_keys_.push_back(r.cut_key);
  embedded_records_ = std::move(records);
  created_at_ = ctx().Now();
  return Status::OK();
}

Future<ProductTrace> MeatProductActor::Trace() {
  ProductTrace trace;
  trace.product_key = ctx().self().key;
  trace.retailer_key = retailer_key_;
  trace.created_at = created_at_;
  if (!created_) {
    return Future<ProductTrace>::FromError(
        Status::NotFound("product not created"));
  }
  if (!embedded_records_.empty()) {
    // Object-cut model: answer locally, no messages (the §4.3 win).
    for (const MeatCutRecord& r : embedded_records_) {
      trace.cuts.push_back(CutTrace{r.cut_key, r.cow_key, r.farmer_key,
                                    r.slaughterhouse_key, r.slaughtered_at,
                                    r.itinerary});
    }
    return Future<ProductTrace>::FromValue(std::move(trace));
  }
  // Actor-cut model: gather from the cut actors.
  CallOptions opts;
  opts.cost_us = kCostRemoteRead;
  std::vector<Future<CutTrace>> calls;
  calls.reserve(cut_keys_.size());
  for (const std::string& key : cut_keys_) {
    calls.push_back(
        ctx().Ref<MeatCutActor>(key).CallWith(opts, &MeatCutActor::Trace));
  }
  return AllValues(calls).Then(
      [trace = std::move(trace)](std::vector<CutTrace>&& cuts) mutable {
        trace.cuts = std::move(cuts);
        return std::move(trace);
      });
}

std::vector<std::string> MeatProductActor::CutKeys() { return cut_keys_; }

// --- RetailerActor -----------------------------------------------------------

Status RetailerActor::RegisterCutArrival(std::vector<std::string> cut_keys) {
  for (std::string& key : cut_keys) {
    arrived_cuts_.push_back(std::move(key));
  }
  return Status::OK();
}

Future<std::string> RetailerActor::CreateProduct(
    std::vector<std::string> cut_keys) {
  std::string key = ctx().self().key + ".p" + std::to_string(product_seq_++);
  products_.push_back(key);
  Promise<std::string> done;
  ctx().Ref<MeatProductActor>(key)
      .Call(&MeatProductActor::Create, ctx().self().key, std::move(cut_keys))
      .OnReady([done, key](Result<Status>&& r) {
        Status st = FailureOf(r);
        if (st.ok()) {
          done.SetValue(key);
        } else {
          done.SetError(st);
        }
      });
  return done.GetFuture();
}

Status RetailerActor::ReceiveCuts(std::vector<MeatCutRecord> cuts) {
  for (MeatCutRecord& cut : cuts) {
    arrived_cuts_.push_back(cut.cut_key);
    local_cuts_[cut.cut_key] = std::move(cut);
  }
  return Status::OK();
}

Future<std::string> RetailerActor::CreateProductLocal(
    std::vector<std::string> cut_keys) {
  std::vector<MeatCutRecord> records;
  for (const std::string& key : cut_keys) {
    auto it = local_cuts_.find(key);
    if (it == local_cuts_.end()) {
      return Future<std::string>::FromError(
          Status::NotFound("cut not held here: " + key));
    }
    MeatCutRecord copy = it->second;
    ++copy.version;
    records.push_back(std::move(copy));
  }
  std::string key = ctx().self().key + ".p" + std::to_string(product_seq_++);
  products_.push_back(key);
  Promise<std::string> done;
  ctx().Ref<MeatProductActor>(key)
      .Call(&MeatProductActor::CreateWithRecords, ctx().self().key,
            std::move(records))
      .OnReady([done, key](Result<Status>&& r) {
        Status st = FailureOf(r);
        if (st.ok()) {
          done.SetValue(key);
        } else {
          done.SetError(st);
        }
      });
  return done.GetFuture();
}

MeatCutRecord RetailerActor::ReadCutLocal(std::string cut_key) {
  auto it = local_cuts_.find(cut_key);
  if (it == local_cuts_.end()) return MeatCutRecord{};
  return it->second;
}

int64_t RetailerActor::LocalCutCount() {
  return static_cast<int64_t>(local_cuts_.size());
}

Future<int64_t> RetailerActor::AuditCutsRemote(
    std::vector<std::string> cut_keys, int rounds) {
  CallOptions opts;
  opts.cost_us = kCostRemoteRead;
  std::vector<Future<CutTrace>> calls;
  calls.reserve(cut_keys.size() * static_cast<size_t>(rounds));
  for (int round = 0; round < rounds; ++round) {
    for (const std::string& key : cut_keys) {
      calls.push_back(
          ctx().Ref<MeatCutActor>(key).CallWith(opts, &MeatCutActor::Trace));
    }
  }
  return AllValues(calls).Then([](std::vector<CutTrace>&& cuts) {
    int64_t hops = 0;
    for (const CutTrace& c : cuts) {
      hops += static_cast<int64_t>(c.itinerary.size());
    }
    return hops;
  });
}

int64_t RetailerActor::AuditCutsLocal(std::vector<std::string> cut_keys,
                                      int rounds) {
  int64_t hops = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const std::string& key : cut_keys) {
      auto it = local_cuts_.find(key);
      if (it != local_cuts_.end()) {
        hops += static_cast<int64_t>(it->second.itinerary.size());
      }
    }
  }
  return hops;
}

std::vector<std::string> RetailerActor::Products() { return products_; }

std::vector<std::string> RetailerActor::AvailableCuts() {
  return arrived_cuts_;
}

Status RetailerActor::ValidateOp(const std::string& op, const std::string&) {
  return Status::InvalidArgument("unknown retailer op: " + op);
}

void RetailerActor::ApplyOp(const std::string&, const std::string&) {}

}  // namespace cattle
}  // namespace aodb
