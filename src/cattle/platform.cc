#include "cattle/platform.h"

#include <cstdlib>
#include <memory>

#include "actor/method_registry.h"
#include "actor/retry_async.h"
#include "aodb/wire.h"
#include "common/logging.h"

namespace aodb {
namespace cattle {

namespace {

// Registers every cross-silo-callable cattle method with the process-global
// MethodRegistry. The transactional protocol methods are registered once per
// concrete type name because receive-side dispatch is per (type, method id).
void RegisterCattleWireMethods() {
  MethodRegistry& reg = MethodRegistry::Global();
  Status st = Status::OK();
  auto add = [&st](Status s) {
    if (st.ok()) st = std::move(s);
  };
  add(reg.Register(CowActor::kTypeName, &CowActor::Register, "Register"));
  add(reg.Register(CowActor::kTypeName, &CowActor::ReportCollar,
                   "ReportCollar"));
  add(reg.Register(CowActor::kTypeName, &CowActor::ReportBolus,
                   "ReportBolus"));
  add(reg.Register(CowActor::kTypeName, &CowActor::SetPasture, "SetPasture"));
  add(reg.Register(CowActor::kTypeName, &CowActor::Trajectory, "Trajectory"));
  add(reg.Register(CowActor::kTypeName, &CowActor::Info, "Info"));
  add(reg.Register(CowActor::kTypeName, &CowActor::MeanRumenTemperature,
                   "MeanRumenTemperature"));
  add(reg.Register(CowActor::kTypeName, &CowActor::GeofenceBreaches,
                   "GeofenceBreaches"));
  add(reg.Register(FarmerActor::kTypeName, &FarmerActor::RegisterCow,
                   "RegisterCow"));
  add(reg.Register(FarmerActor::kTypeName, &FarmerActor::Herd, "Herd"));
  add(reg.Register(FarmerActor::kTypeName, &FarmerActor::HerdSize,
                   "HerdSize"));
  add(reg.Register(FarmerActor::kTypeName, &FarmerActor::Owns, "Owns"));
  add(reg.Register(FarmerActor::kTypeName,
                   &FarmerActor::GeofenceAlertReceived,
                   "GeofenceAlertReceived"));
  add(reg.Register(FarmerActor::kTypeName, &FarmerActor::DrainAlerts,
                   "DrainAlerts"));
  add(reg.Register(FarmerActor::kTypeName, &FarmerActor::TotalAlerts,
                   "TotalAlerts"));
  add(reg.Register(SlaughterhouseActor::kTypeName,
                   &SlaughterhouseActor::Slaughter, "Slaughter"));
  add(reg.Register(SlaughterhouseActor::kTypeName,
                   &SlaughterhouseActor::ProcessedCows, "ProcessedCows"));
  add(reg.Register(SlaughterhouseActor::kTypeName,
                   &SlaughterhouseActor::CreateCuts, "CreateCuts"));
  add(reg.Register(SlaughterhouseActor::kTypeName,
                   &SlaughterhouseActor::CreateCutsLocal, "CreateCutsLocal"));
  add(reg.Register(SlaughterhouseActor::kTypeName,
                   &SlaughterhouseActor::TransferCutsTo, "TransferCutsTo"));
  add(reg.Register(SlaughterhouseActor::kTypeName,
                   &SlaughterhouseActor::ReadCutLocal, "ReadCutLocal"));
  add(reg.Register(SlaughterhouseActor::kTypeName,
                   &SlaughterhouseActor::LocalCutCount, "LocalCutCount"));
  add(reg.Register(MeatCutActor::kTypeName, &MeatCutActor::Create, "Create"));
  add(reg.Register(MeatCutActor::kTypeName, &MeatCutActor::AddItinerary,
                   "AddItinerary"));
  add(reg.Register(MeatCutActor::kTypeName, &MeatCutActor::Trace, "Trace"));
  add(reg.Register(MeatCutActor::kTypeName, &MeatCutActor::Holder, "Holder"));
  add(reg.Register(DeliveryActor::kTypeName, &DeliveryActor::Plan, "Plan"));
  add(reg.Register(DeliveryActor::kTypeName, &DeliveryActor::Depart,
                   "Depart"));
  add(reg.Register(DeliveryActor::kTypeName, &DeliveryActor::Arrive,
                   "Arrive"));
  add(reg.Register(DeliveryActor::kTypeName, &DeliveryActor::InTransit,
                   "InTransit"));
  add(reg.Register(DeliveryActor::kTypeName, &DeliveryActor::CutKeys,
                   "CutKeys"));
  add(reg.Register(DistributorActor::kTypeName,
                   &DistributorActor::PlanDelivery, "PlanDelivery"));
  add(reg.Register(DistributorActor::kTypeName, &DistributorActor::Deliveries,
                   "Deliveries"));
  add(reg.Register(DistributorActor::kTypeName, &DistributorActor::ReceiveCuts,
                   "ReceiveCuts"));
  add(reg.Register(DistributorActor::kTypeName,
                   &DistributorActor::TransferCutsToRetailer,
                   "TransferCutsToRetailer"));
  add(reg.Register(DistributorActor::kTypeName,
                   &DistributorActor::ReadCutLocal, "ReadCutLocal"));
  add(reg.Register(DistributorActor::kTypeName,
                   &DistributorActor::LocalCutCount, "LocalCutCount"));
  add(reg.Register(RetailerActor::kTypeName,
                   &RetailerActor::RegisterCutArrival, "RegisterCutArrival"));
  add(reg.Register(RetailerActor::kTypeName, &RetailerActor::CreateProduct,
                   "CreateProduct"));
  add(reg.Register(RetailerActor::kTypeName, &RetailerActor::ReceiveCuts,
                   "ReceiveCuts"));
  add(reg.Register(RetailerActor::kTypeName,
                   &RetailerActor::CreateProductLocal, "CreateProductLocal"));
  add(reg.Register(RetailerActor::kTypeName, &RetailerActor::ReadCutLocal,
                   "ReadCutLocal"));
  add(reg.Register(RetailerActor::kTypeName, &RetailerActor::LocalCutCount,
                   "LocalCutCount"));
  add(reg.Register(RetailerActor::kTypeName, &RetailerActor::AuditCutsRemote,
                   "AuditCutsRemote"));
  add(reg.Register(RetailerActor::kTypeName, &RetailerActor::AuditCutsLocal,
                   "AuditCutsLocal"));
  add(reg.Register(RetailerActor::kTypeName, &RetailerActor::Products,
                   "Products"));
  add(reg.Register(RetailerActor::kTypeName, &RetailerActor::AvailableCuts,
                   "AvailableCuts"));
  add(reg.Register(MeatProductActor::kTypeName, &MeatProductActor::Create,
                   "Create"));
  add(reg.Register(MeatProductActor::kTypeName,
                   &MeatProductActor::CreateWithRecords, "CreateWithRecords"));
  add(reg.Register(MeatProductActor::kTypeName, &MeatProductActor::Trace,
                   "Trace"));
  add(reg.Register(MeatProductActor::kTypeName, &MeatProductActor::CutKeys,
                   "CutKeys"));
  // Transactional protocol under every transactional cattle type.
  add(RegisterTransactionalWireMethods(CowActor::kTypeName));
  add(RegisterTransactionalWireMethods(FarmerActor::kTypeName));
  add(RegisterTransactionalWireMethods(SlaughterhouseActor::kTypeName));
  add(RegisterTransactionalWireMethods(MeatCutActor::kTypeName));
  add(RegisterTransactionalWireMethods(DistributorActor::kTypeName));
  add(RegisterTransactionalWireMethods(RetailerActor::kTypeName));
  if (!st.ok()) {
    AODB_LOG(Error, "cattle wire registration failed: %s",
             st.ToString().c_str());
    std::abort();
  }
}

}  // namespace

void CattlePlatform::RegisterTypes(Cluster& cluster) {
  RegisterCattleWireMethods();
  cluster.RegisterActorType<CowActor>();
  cluster.RegisterActorType<FarmerActor>();
  cluster.RegisterActorType<SlaughterhouseActor>();
  cluster.RegisterActorType<MeatCutActor>();
  cluster.RegisterActorType<DistributorActor>();
  cluster.RegisterActorType<DeliveryActor>();
  cluster.RegisterActorType<RetailerActor>();
  cluster.RegisterActorType<MeatProductActor>();
}

Future<Status> CattlePlatform::RegisterCow(const std::string& cow_key,
                                           const std::string& farmer_key,
                                           const std::string& breed) {
  Cluster* cluster = cluster_;
  Micros now = cluster_->clock()->Now();
  // Each side retried independently. Registration is not idempotent at the
  // actor (re-execution answers AlreadyExists), so when a retried attempt
  // reports AlreadyExists the earlier attempt actually applied and only its
  // ack was lost — treat that as success.
  auto side = [this](std::function<Future<Status>()> op) {
    auto retried = std::make_shared<std::atomic<bool>>(false);
    Promise<Status> settled;
    RetryAsync<Status>(cluster_->client_executor(), options_.client_retry,
                       NextSeed(), std::move(op), IsTransient,
                       [retried](const Status&) { retried->store(true); })
        .OnReady([retried, settled](Result<Status>&& r) {
          Status st = FailureOf(r);
          if (st.code() == StatusCode::kAlreadyExists && retried->load()) {
            st = Status::OK();
          }
          settled.SetValue(st);
        });
    return settled.GetFuture();
  };
  auto cow_ack = side([cluster, cow_key, farmer_key, breed, now] {
    return cluster->Ref<CowActor>(cow_key).Call(&CowActor::Register,
                                                farmer_key, breed, now);
  });
  auto farmer_ack = side([cluster, cow_key, farmer_key] {
    return cluster->Ref<FarmerActor>(farmer_key)
        .Call(&FarmerActor::RegisterCow, cow_key);
  });
  return AllOk({cow_ack, farmer_ack});
}

Future<Status> CattlePlatform::TransferOwnershipTxn(
    const std::string& cow_key, const std::string& from_farmer,
    const std::string& to_farmer) {
  return txn_.Run({
      TxnOp{CowActor::kTypeName, cow_key, CowActor::kOpSetOwner, to_farmer},
      TxnOp{FarmerActor::kTypeName, from_farmer, FarmerActor::kOpRemoveCow,
            cow_key},
      TxnOp{FarmerActor::kTypeName, to_farmer, FarmerActor::kOpAddCow,
            cow_key},
  });
}

Future<Status> CattlePlatform::TransferOwnershipWorkflow(
    const std::string& cow_key, const std::string& from_farmer,
    const std::string& to_farmer) {
  return workflows_.Run({
      WorkflowStep{FarmerActor::kTypeName, from_farmer,
                   FarmerActor::kOpRemoveCow, cow_key,
                   FarmerActor::kOpAddCow, cow_key},
      WorkflowStep{FarmerActor::kTypeName, to_farmer, FarmerActor::kOpAddCow,
                   cow_key, FarmerActor::kOpRemoveCow, cow_key},
      WorkflowStep{CowActor::kTypeName, cow_key, CowActor::kOpSetOwner,
                   to_farmer, CowActor::kOpSetOwner, from_farmer},
  });
}

Future<std::vector<std::string>> CattlePlatform::SlaughterAndCut(
    const std::string& slaughterhouse_key, const std::string& cow_key,
    const std::string& farmer_key, int num_cuts) {
  auto sh = cluster_->Ref<SlaughterhouseActor>(slaughterhouse_key);
  Promise<std::vector<std::string>> done;
  sh.Call(&SlaughterhouseActor::Slaughter, cow_key)
      .OnReady([sh, cow_key, farmer_key, num_cuts,
                done](Result<Status>&& r) {
        Status st = FailureOf(r);
        if (!st.ok()) {
          done.SetError(st);
          return;
        }
        sh.Call(&SlaughterhouseActor::CreateCuts, cow_key, farmer_key,
                num_cuts)
            .OnReady([done](Result<std::vector<std::string>>&& keys) {
              if (!keys.ok()) {
                done.SetError(keys.status());
                return;
              }
              done.SetValue(std::move(keys).value());
            });
      });
  return done.GetFuture();
}

Future<Status> CattlePlatform::ShipCuts(const std::string& distributor_key,
                                        const std::string& retailer_key,
                                        std::vector<std::string> cut_keys,
                                        const std::string& source,
                                        const std::string& destination) {
  auto dist = cluster_->Ref<DistributorActor>(distributor_key);
  Cluster* cluster = cluster_;
  Promise<Status> done;
  dist.Call(&DistributorActor::PlanDelivery, cut_keys, source, destination,
            std::string("truck-1"))
      .OnReady([cluster, retailer_key, cut_keys,
                done](Result<std::string>&& delivery_key) {
        if (!delivery_key.ok()) {
          done.SetValue(delivery_key.status());
          return;
        }
        auto delivery =
            cluster->Ref<DeliveryActor>(delivery_key.value());
        delivery.Call(&DeliveryActor::Depart)
            .OnReady([cluster, delivery, retailer_key, cut_keys,
                      done](Result<Status>&& dep) {
              Status st = FailureOf(dep);
              if (!st.ok()) {
                done.SetValue(st);
                return;
              }
              delivery
                  .Call(&DeliveryActor::Arrive, std::string("Retailer"),
                        retailer_key)
                  .OnReady([cluster, retailer_key, cut_keys,
                            done](Result<Status>&& arr) {
                    Status st = FailureOf(arr);
                    if (!st.ok()) {
                      done.SetValue(st);
                      return;
                    }
                    cluster->Ref<RetailerActor>(retailer_key)
                        .Call(&RetailerActor::RegisterCutArrival, cut_keys)
                        .OnReady([done](Result<Status>&& reg) {
                          done.SetValue(reg.ok() ? reg.value()
                                                 : reg.status());
                        });
                  });
            });
      });
  return done.GetFuture();
}

Future<ProductTrace> CattlePlatform::TraceProduct(
    const std::string& product_key) {
  Cluster* cluster = cluster_;
  return RetryAsync<ProductTrace>(
      cluster_->client_executor(), options_.client_retry, NextSeed(),
      [cluster, product_key] {
        return cluster->Ref<MeatProductActor>(product_key)
            .Call(&MeatProductActor::Trace);
      });
}

}  // namespace cattle
}  // namespace aodb
