#include "apps/spec.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace appx::apps {

ValueSpec ValueSpec::constant(std::string value) {
  ValueSpec v;
  v.kind = Kind::kConst;
  v.text = std::move(value);
  return v;
}

ValueSpec ValueSpec::env(std::string name) {
  ValueSpec v;
  v.kind = Kind::kEnv;
  v.text = std::move(name);
  return v;
}

ValueSpec ValueSpec::dep(std::string endpoint, std::string path) {
  ValueSpec v;
  v.kind = Kind::kDep;
  v.dep_endpoint = std::move(endpoint);
  v.dep_path = std::move(path);
  return v;
}

ValueSpec ValueSpec::nonce() {
  ValueSpec v;
  v.kind = Kind::kNonce;
  return v;
}

bool EndpointSpec::has_dep_fields() const {
  return std::any_of(fields.begin(), fields.end(),
                     [](const FieldSpec& f) { return f.value.kind == ValueSpec::Kind::kDep; });
}

std::vector<const FieldSpec*> EndpointSpec::dep_fields() const {
  std::vector<const FieldSpec*> out;
  for (const FieldSpec& f : fields) {
    if (f.value.kind == ValueSpec::Kind::kDep) out.push_back(&f);
  }
  return out;
}

const EndpointSpec& AppSpec::endpoint(std::string_view label) const {
  const EndpointSpec* ep = find_endpoint(label);
  if (ep == nullptr) {
    throw NotFoundError("AppSpec " + name + ": no endpoint " + std::string(label));
  }
  return *ep;
}

const EndpointSpec* AppSpec::find_endpoint(std::string_view label) const {
  for (const EndpointSpec& ep : endpoints) {
    if (ep.label == label) return &ep;
  }
  return nullptr;
}

const Interaction& AppSpec::interaction(std::string_view name_) const {
  for (const Interaction& it : interactions) {
    if (it.name == name_) return it;
  }
  throw NotFoundError("AppSpec " + name + ": no interaction " + std::string(name_));
}

Duration AppSpec::rtt_for_host(const std::string& host) const {
  const auto it = host_rtt.find(host);
  return it == host_rtt.end() ? default_rtt : it->second;
}

double AppSpec::bw_for_host(const std::string& host) const {
  const auto it = host_bw.find(host);
  return it == host_bw.end() ? origin_bw : it->second;
}

std::vector<const EndpointSpec*> AppSpec::successors_of(std::string_view label) const {
  std::vector<const EndpointSpec*> out;
  for (const EndpointSpec& ep : endpoints) {
    const auto deps = ep.dep_fields();
    if (std::any_of(deps.begin(), deps.end(),
                    [&](const FieldSpec* f) { return f->value.dep_endpoint == label; })) {
      out.push_back(&ep);
    }
  }
  return out;
}

std::vector<const EndpointSpec*> AppSpec::roots() const {
  std::vector<const EndpointSpec*> out;
  for (const EndpointSpec& ep : endpoints) {
    if (!ep.has_dep_fields()) out.push_back(&ep);
  }
  return out;
}

void AppSpec::validate() const {
  // Label index, built once: find_endpoint scans every endpoint.
  std::map<std::string_view, const EndpointSpec*> by_label;
  for (const EndpointSpec& ep : endpoints) {
    if (!by_label.emplace(ep.label, &ep).second) {
      throw InvalidArgumentError("AppSpec " + name + ": duplicate endpoint label " + ep.label);
    }
    if (ep.path.empty() || ep.path[0] != '/') {
      throw InvalidArgumentError("AppSpec " + name + ": endpoint " + ep.label +
                                 " path must start with '/'");
    }
    if (ep.host.empty() || ep.host_env.empty()) {
      throw InvalidArgumentError("AppSpec " + name + ": endpoint " + ep.label +
                                 " needs host and host_env");
    }
  }
  // Paths each predecessor produces, indexed on first use: one successor
  // can read hundreds of them.
  std::map<const EndpointSpec*, std::set<std::string_view>> produced;
  for (const EndpointSpec& ep : endpoints) {
    std::set<std::string> preds;
    for (const FieldSpec* f : ep.dep_fields()) {
      const auto found = by_label.find(f->value.dep_endpoint);
      if (found == by_label.end()) {
        throw InvalidArgumentError("AppSpec " + name + ": endpoint " + ep.label +
                                   " depends on unknown endpoint " + f->value.dep_endpoint);
      }
      json::Path::validate(f->value.dep_path);
      preds.insert(f->value.dep_endpoint);
      // The predecessor must actually produce the referenced path.
      const EndpointSpec& pred = *found->second;
      std::set<std::string_view>& paths = produced[&pred];
      if (paths.empty()) {
        for (const ProducesSpec& p : pred.produces) paths.insert(p.path);
      }
      if (!paths.contains(f->value.dep_path)) {
        throw InvalidArgumentError("AppSpec " + name + ": " + ep.label + " reads path '" +
                                   f->value.dep_path + "' that " + pred.label +
                                   " does not produce");
      }
    }
    if (preds.size() > 1 && ep.route != DepRoute::kIntent) {
      throw InvalidArgumentError("AppSpec " + name + ": endpoint " + ep.label +
                                 " has multiple predecessors; it must use DepRoute::kIntent");
    }
    if (ep.route == DepRoute::kRxFlatMap) {
      const auto deps = ep.dep_fields();
      std::string prefix, remainder;
      if (deps.size() != 1 || !split_wildcard_path(deps[0]->value.dep_path, prefix, remainder)) {
        throw InvalidArgumentError("AppSpec " + name + ": endpoint " + ep.label +
                                   " with RxFlatMap route needs exactly one [*] dep field");
      }
    }
  }
  std::set<std::string> interaction_names;
  for (const Interaction& it : interactions) {
    if (!interaction_names.insert(it.name).second) {
      throw InvalidArgumentError("AppSpec " + name + ": duplicate interaction " + it.name);
    }
    for (const auto& wave : it.waves) {
      for (const WaveStep& step : wave) {
        if (!by_label.contains(step.endpoint)) {
          throw InvalidArgumentError("AppSpec " + name + ": interaction " + it.name +
                                     " references unknown endpoint " + step.endpoint);
        }
      }
    }
  }
  if (!main_interaction.empty()) interaction(main_interaction);
}

bool split_wildcard_path(std::string_view path, std::string& prefix, std::string& remainder) {
  const std::size_t pos = path.find("[*]");
  if (pos == std::string_view::npos) return false;
  prefix = std::string(path.substr(0, pos));
  std::string_view rest = path.substr(pos + 3);
  if (!rest.empty() && rest.front() == '.') rest.remove_prefix(1);
  remainder = std::string(rest);
  return true;
}

}  // namespace appx::apps
