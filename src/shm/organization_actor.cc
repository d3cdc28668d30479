#include "shm/organization_actor.h"

namespace aodb {
namespace shm {

void Project::Encode(BufWriter* w) const {
  w->PutString(id);
  w->PutString(name);
  w->PutVector(sensor_keys,
               [](BufWriter& bw, const std::string& s) { bw.PutString(s); });
}

Status Project::Decode(BufReader* r) {
  AODB_RETURN_NOT_OK(r->GetString(&id));
  AODB_RETURN_NOT_OK(r->GetString(&name));
  return r->GetVector(
      &sensor_keys,
      [](BufReader& br, std::string* s) { return br.GetString(s); });
}

void OrganizationState::Encode(BufWriter* w) const {
  w->PutString(name);
  w->PutVector(projects,
               [](BufWriter& bw, const Project& p) { p.Encode(&bw); });
  w->PutVector(user_keys,
               [](BufWriter& bw, const std::string& s) { bw.PutString(s); });
  w->PutVector(channel_keys,
               [](BufWriter& bw, const std::string& s) { bw.PutString(s); });
}

Status OrganizationState::Decode(BufReader* r) {
  AODB_RETURN_NOT_OK(r->GetString(&name));
  AODB_RETURN_NOT_OK(r->GetVector(
      &projects, [](BufReader& br, Project* p) { return p->Decode(&br); }));
  AODB_RETURN_NOT_OK(r->GetVector(
      &user_keys,
      [](BufReader& br, std::string* s) { return br.GetString(s); }));
  return r->GetVector(
      &channel_keys,
      [](BufReader& br, std::string* s) { return br.GetString(s); });
}

Status OrganizationActor::SetName(std::string name) {
  state().name = std::move(name);
  MarkDirty();
  return Status::OK();
}

Status OrganizationActor::AddProject(std::string id, std::string name) {
  for (const Project& p : state().projects) {
    if (p.id == id) return Status::AlreadyExists("project " + id);
  }
  state().projects.push_back(Project{std::move(id), std::move(name), {}});
  MarkDirty();
  return Status::OK();
}

Status OrganizationActor::AddSensor(std::string project_id,
                                    std::string sensor_key,
                                    std::vector<std::string> channel_keys) {
  Project* project = nullptr;
  for (Project& p : state().projects) {
    if (p.id == project_id) {
      project = &p;
      break;
    }
  }
  if (project == nullptr) return Status::NotFound("project " + project_id);
  project->sensor_keys.push_back(std::move(sensor_key));
  for (std::string& c : channel_keys) {
    state().channel_keys.push_back(std::move(c));
  }
  MarkDirty();
  return Status::OK();
}

Status OrganizationActor::AddUser(std::string user_key) {
  state().user_keys.push_back(std::move(user_key));
  MarkDirty();
  return Status::OK();
}

bool OrganizationActor::CallerMayRead() const {
  const Principal& p = ctx().caller();
  if (p.tenant.empty()) return true;  // Internal caller.
  return p.tenant == ctx().self().key || p.role == "admin";
}

Future<std::vector<LiveDataEntry>> OrganizationActor::LiveData() {
  if (!CallerMayRead()) {
    return Future<std::vector<LiveDataEntry>>::FromError(
        Status::Unauthorized("tenant " + ctx().caller().tenant +
                             " cannot read " + ctx().self().key));
  }
  std::vector<Future<LiveDataEntry>> calls;
  calls.reserve(state().channel_keys.size());
  CallOptions opts;
  opts.cost_us = kCostChannelLatest;
  for (const std::string& key : state().channel_keys) {
    // The flat key list does not distinguish physical from virtual
    // channels; both expose Latest with the same semantics, and virtual
    // channel keys are tagged with a ".v" suffix by the platform.
    if (key.size() > 2 && key.compare(key.size() - 2, 2, ".v") == 0) {
      calls.push_back(ctx().Ref<VirtualChannelActor>(key).CallWith(
          opts, &VirtualChannelActor::Latest));
    } else {
      calls.push_back(ctx().Ref<PhysicalChannelActor>(key).CallWith(
          opts, &PhysicalChannelActor::Latest));
    }
  }
  return AllValues(calls);
}

std::vector<std::string> OrganizationActor::ChannelKeys() {
  return state().channel_keys;
}

std::vector<Project> OrganizationActor::Projects() {
  return state().projects;
}

int64_t OrganizationActor::SensorCount() {
  int64_t n = 0;
  for (const Project& p : state().projects) {
    n += static_cast<int64_t>(p.sensor_keys.size());
  }
  return n;
}

}  // namespace shm
}  // namespace aodb
