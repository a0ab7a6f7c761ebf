#include "core/learning.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"

namespace appx::core {

// --- RequestInstance -----------------------------------------------------------

namespace {

std::string make_fingerprint(const Bindings& bindings) {
  std::string out;
  for (const auto& [k, v] : bindings) {  // std::map: already sorted by key
    out += k;
    out += '=';
    out += v;
    out += '\x1f';
  }
  return out;
}

}  // namespace

RequestInstance::RequestInstance(const TransactionSignature* sig, Bindings dependency_bindings)
    : sig_(sig),
      bindings_(dependency_bindings),
      dependency_bindings_(std::move(dependency_bindings)),
      fingerprint_(make_fingerprint(dependency_bindings_)) {}

void RequestInstance::bind(const Bindings& more) {
  for (const auto& [k, v] : more) bindings_[k] = v;
}

void RequestInstance::set_absent_optional(const std::vector<std::string>& absent) {
  absent_optional_.clear();
  absent_optional_.insert(absent.begin(), absent.end());
}

bool RequestInstance::field_present(const RequestField& field) const {
  return !field.optional || !absent_optional_.contains(field_key(field));
}

std::vector<std::string> RequestInstance::missing_holes() const {
  std::vector<std::string> missing;
  const auto check = [&](const FieldTemplate& t) {
    for (const std::string& hole : t.hole_names()) {
      if (!bindings_.contains(hole) &&
          std::find(missing.begin(), missing.end(), hole) == missing.end()) {
        missing.push_back(hole);
      }
    }
  };
  check(sig_->request.scheme);
  check(sig_->request.host);
  check(sig_->request.path);
  for (const auto* group : {&sig_->request.query, &sig_->request.headers, &sig_->request.body}) {
    for (const RequestField& f : *group) {
      if (field_present(f)) check(f.value);
    }
  }
  return missing;
}

bool RequestInstance::ready() const { return missing_holes().empty(); }

http::Request RequestInstance::materialize() const {
  if (!ready()) {
    throw InvalidStateError("RequestInstance: materialize before all holes are bound (" +
                            sig_->label + ")");
  }
  http::Request req;
  req.method = sig_->request.method;
  const auto scheme = sig_->request.scheme.fill(bindings_);
  req.uri.scheme = (scheme && !scheme->empty()) ? *scheme : "https";
  req.uri.host = *sig_->request.host.fill(bindings_);
  req.uri.path = *sig_->request.path.fill(bindings_);
  for (const RequestField& f : sig_->request.query) {
    if (field_present(f)) req.uri.add_query_param(f.name, *f.value.fill(bindings_));
  }
  for (const RequestField& f : sig_->request.headers) {
    if (field_present(f)) req.headers.add(f.name, *f.value.fill(bindings_));
  }
  if (sig_->request.body_kind == BodyKind::kForm) {
    http::FormFields fields;
    for (const RequestField& f : sig_->request.body) {
      if (field_present(f)) fields.emplace_back(f.name, *f.value.fill(bindings_));
    }
    req.set_form_fields(fields);
  }
  return req;
}

// --- LearningEngine --------------------------------------------------------------

LearningEngine::LearningEngine(const SignatureSet* signatures,
                               const std::map<std::string, std::string>* host_apps,
                               DispatchCounters* counters)
    : signatures_(signatures), host_apps_(host_apps), counters_(counters) {
  if (signatures == nullptr) throw InvalidArgumentError("LearningEngine: null signature set");
}

std::vector<ReadyPrefetch> LearningEngine::observe(const http::Request& request,
                                                   const http::Response& response) {
  ++stats_.transactions_observed;
  std::vector<ReadyPrefetch> ready;

  // Fig. 6: identify the learning target by matching the incoming
  // transaction against the signatures. Signatures with no dependency in
  // either direction are filtered out implicitly (neither branch fires).
  std::string app_hint;
  if (host_apps_ != nullptr) {
    const auto it = host_apps_->find(request.uri.host);
    if (it != host_apps_->end()) app_hint = it->second;
  }
  const TransactionSignature* sig = signatures_->match_request(request, app_hint, counters_);
  if (sig == nullptr) return ready;
  ++stats_.signature_matches;

  const bool successor = signatures_->is_successor(sig->id);
  const bool predecessor = signatures_->is_predecessor(sig->id);

  if (successor) {
    // Learning target is a successor: the observed request is itself an
    // example instance; learn run-time values and the current instance class.
    const auto match = sig->match_ex(request);
    if (match) {
      ++stats_.successor_events;
      learn_from_successor(*sig, *match);
      collect_ready(*sig, json::Value(json::Object{}), ready);
    }
  }
  if (predecessor && response.ok()) {
    ++stats_.predecessor_events;
    learn_from_predecessor(*sig, response, ready);
  }
  return ready;
}

void LearningEngine::learn_from_successor(const TransactionSignature& succ,
                                          const TransactionSignature::MatchResult& match) {
  SignatureState& state = states_[succ.id];
  state.observed = true;
  state.recent_absent = match.absent_optional;

  // Only run-time holes are learned here; dependency holes are bound per
  // instance from predecessor responses (their values differ per target).
  for (const std::string& hole : signatures_->runtime_holes(succ.id)) {
    const auto it = match.bindings.find(hole);
    if (it != match.bindings.end()) state.runtime_bindings[hole] = it->second;
  }

  // Adapt pending instances to the most recent condition (Fig. 7 case 2).
  for (auto& [_, instance] : state.instances) {
    instance->bind(state.runtime_bindings);
    instance->set_absent_optional(state.recent_absent);
  }
}

void LearningEngine::learn_from_predecessor(const TransactionSignature& pred,
                                            const http::Response& response,
                                            std::vector<ReadyPrefetch>& out) {
  if (pred.response.body_kind != ResponseBodyKind::kJson) return;
  json::Value body;
  try {
    body = json::parse(response.body);
  } catch (const ParseError& e) {
    log_warn("learning") << "predecessor " << pred.label << ": unparsable response body: "
                         << e.what();
    return;
  }

  // Group outgoing edges by successor; each group yields one or more
  // instances of that successor.
  std::map<std::string, std::vector<const DependencyEdge*>> by_succ;
  for (const DependencyEdge* e : signatures_->edges_from(pred.id)) {
    by_succ[e->succ_id].push_back(e);
  }

  for (const auto& [succ_id, edges] : by_succ) {
    const TransactionSignature* succ = signatures_->find(succ_id);
    if (succ == nullptr) continue;
    SignatureState& state = states_[succ_id];

    for (Bindings& bindings : binding_sets_for(edges, body)) {
      if (bindings.empty()) continue;
      auto it = state.instances.find(make_fingerprint(bindings));
      if (it == state.instances.end()) {
        auto instance = std::make_unique<RequestInstance>(succ, std::move(bindings));
        // Seed with whatever run-time knowledge we already have.
        instance->bind(state.runtime_bindings);
        instance->set_absent_optional(state.recent_absent);
        const std::string fp = instance->fingerprint();
        it = state.instances.emplace(fp, std::move(instance)).first;
        ++stats_.instances_created;
      } else {
        it->second->bind(bindings);
      }
    }
    collect_ready(*succ, body, out);

    // Bound memory: drop issued instances once the pool gets large.
    if (state.instances.size() > 2048) {
      std::erase_if(state.instances, [](const auto& kv) { return kv.second->issued(); });
    }
  }
}

void LearningEngine::collect_ready(const TransactionSignature& sig,
                                   const json::Value& predecessor_body,
                                   std::vector<ReadyPrefetch>& out) {
  const auto it = states_.find(sig.id);
  if (it == states_.end()) return;
  for (auto& [_, instance] : it->second.instances) {
    if (!instance->ready()) continue;
    // Note: ready instances are re-emitted on every relevant observation;
    // the proxy deduplicates against its cache and in-flight set. This is
    // what allows re-prefetching after a cached response expires.
    ReadyPrefetch rp;
    rp.signature = &sig;
    rp.instance = instance.get();
    rp.request = instance->materialize();
    rp.predecessor_body = predecessor_body;
    instance->mark_issued();
    ++stats_.instances_ready;
    out.push_back(std::move(rp));
  }
}

std::vector<const RequestInstance*> LearningEngine::instances_of(std::string_view sig_id) const {
  std::vector<const RequestInstance*> out;
  const auto it = states_.find(sig_id);
  if (it == states_.end()) return out;
  for (const auto& [_, instance] : it->second.instances) out.push_back(instance.get());
  return out;
}

// --- persistence -------------------------------------------------------------------

namespace {

void write_bindings(ByteWriter& out, const Bindings& bindings) {
  out.u32(static_cast<std::uint32_t>(bindings.size()));
  for (const auto& [k, v] : bindings) {
    out.str(k);
    out.str(v);
  }
}

Bindings read_bindings(ByteReader& in) {
  Bindings bindings;
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string k = in.str();
    bindings[std::move(k)] = in.str();
  }
  return bindings;
}

void write_string_list(ByteWriter& out, const std::vector<std::string>& items) {
  out.u32(static_cast<std::uint32_t>(items.size()));
  for (const std::string& s : items) out.str(s);
}

std::vector<std::string> read_string_list(ByteReader& in) {
  std::vector<std::string> items;
  const std::uint32_t count = in.u32();
  items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) items.push_back(in.str());
  return items;
}

}  // namespace

void LearningEngine::persist_wildcards(ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(states_.size()));
  for (const auto& [sig_id, state] : states_) {
    out.str(sig_id);
    out.u8(state.observed ? 1 : 0);
    write_bindings(out, state.runtime_bindings);
    write_string_list(out, state.recent_absent);
  }
}

void LearningEngine::restore_wildcards(ByteReader& in, std::uint32_t version) {
  (void)version;  // v1 is the only layout so far
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string sig_id = in.str();
    const bool observed = in.u8() != 0;
    Bindings runtime = read_bindings(in);
    std::vector<std::string> absent = read_string_list(in);
    // A signature the current set no longer carries: consume and drop.
    if (signatures_->find(sig_id) == nullptr) continue;
    SignatureState& state = states_[sig_id];
    state.observed = state.observed || observed;
    for (auto& [k, v] : runtime) state.runtime_bindings[k] = std::move(v);
    state.recent_absent = std::move(absent);
  }
}

void LearningEngine::persist_flows(ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(states_.size()));
  for (const auto& [sig_id, state] : states_) {
    out.str(sig_id);
    out.u32(static_cast<std::uint32_t>(state.instances.size()));
    for (const auto& [_, instance] : state.instances) {
      write_bindings(out, instance->dependency_bindings());
      write_bindings(out, instance->bindings());
      std::vector<std::string> absent(instance->absent_optional().begin(),
                                      instance->absent_optional().end());
      write_string_list(out, absent);
      // No issued flag: a snapshot outlives the cache, so restored instances
      // always come back un-issued (collect_ready + proxy dedup re-issue
      // them exactly once). Keeping the flag out of the format makes
      // persist(restore(x)) byte-identical to x.
    }
  }
}

void LearningEngine::restore_flows(ByteReader& in, std::uint32_t version) {
  (void)version;  // v1 is the only layout so far
  const std::uint32_t sig_count = in.u32();
  for (std::uint32_t s = 0; s < sig_count; ++s) {
    const std::string sig_id = in.str();
    const TransactionSignature* sig = signatures_->find(sig_id);
    const std::uint32_t instance_count = in.u32();
    for (std::uint32_t i = 0; i < instance_count; ++i) {
      Bindings dep = read_bindings(in);
      Bindings merged = read_bindings(in);
      std::vector<std::string> absent = read_string_list(in);
      if (sig == nullptr) continue;  // dropped signature: consume and skip
      auto instance = std::make_unique<RequestInstance>(sig, std::move(dep));
      instance->bind(merged);
      instance->set_absent_optional(absent);
      const std::string fp = instance->fingerprint();
      SignatureState& state = states_[sig_id];
      if (!state.instances.contains(fp)) {
        state.instances.emplace(fp, std::move(instance));
        ++stats_.instances_created;
      }
    }
  }
}

// --- dependency value extraction ---------------------------------------------------

namespace {

// Resolve a span of path steps against a value (same semantics as
// json::Path::resolve but usable on sub-paths).
std::vector<const json::Value*> resolve_steps(const json::Value& root,
                                              const json::PathStep* steps, std::size_t count) {
  std::vector<const json::Value*> frontier{&root};
  for (std::size_t s = 0; s < count; ++s) {
    const json::PathStep& step = steps[s];
    std::vector<const json::Value*> next;
    for (const json::Value* v : frontier) {
      const json::Value* target = v;
      if (!step.key.empty()) {
        target = v->find(step.key);
        if (target == nullptr) continue;
      }
      if (!step.indexed) {
        next.push_back(target);
        continue;
      }
      if (!target->is_array()) continue;
      const json::Array& arr = target->as_array();
      if (step.wildcard) {
        for (const json::Value& elem : arr) next.push_back(&elem);
      } else if (step.index < arr.size()) {
        next.push_back(&arr[step.index]);
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return frontier;
}

std::optional<std::string> scalar_at(const json::Value* v) {
  if (v == nullptr || v->is_array() || v->is_object()) return std::nullopt;
  return v->scalar_to_string();
}

}  // namespace

std::vector<Bindings> LearningEngine::binding_sets_for(
    const std::vector<const DependencyEdge*>& edges, const json::Value& body) {
  // Split edges into scalar paths and array-replicating ([*]) paths.
  Bindings shared;
  struct MultiGroup {
    std::string prefix_text;
    std::vector<json::PathStep> prefix;  // steps up to and including the [*] step,
                                         // with the wildcard stripped (yields the array)
    std::vector<std::pair<const DependencyEdge*, std::vector<json::PathStep>>> members;
  };
  std::vector<MultiGroup> groups;

  for (const DependencyEdge* edge : edges) {
    const json::Path path(edge->pred_path);
    const auto& steps = path.steps();
    std::size_t wild = steps.size();
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (steps[i].wildcard) {
        wild = i;
        break;
      }
    }
    if (wild == steps.size()) {
      // Scalar path: one value shared by every instance.
      const auto values = resolve_steps(body, steps.data(), steps.size());
      const auto value = scalar_at(values.empty() ? nullptr : values.front());
      if (value) shared[edge->hole] = *value;
      continue;
    }
    // Array path: group by the textual prefix so edges reading different
    // fields of the same array element land in the same instance.
    std::string prefix_text;
    for (std::size_t i = 0; i <= wild; ++i) {
      if (i != 0) prefix_text += '.';
      prefix_text += steps[i].key;
    }
    auto group = std::find_if(groups.begin(), groups.end(), [&](const MultiGroup& g) {
      return g.prefix_text == prefix_text;
    });
    if (group == groups.end()) {
      MultiGroup g;
      g.prefix_text = prefix_text;
      g.prefix.assign(steps.begin(), steps.begin() + static_cast<std::ptrdiff_t>(wild + 1));
      g.prefix.back().indexed = false;  // stop at the array itself
      g.prefix.back().wildcard = false;
      groups.push_back(std::move(g));
      group = groups.end() - 1;
    }
    group->members.emplace_back(
        edge, std::vector<json::PathStep>(steps.begin() + static_cast<std::ptrdiff_t>(wild + 1),
                                          steps.end()));
  }

  if (groups.empty()) {
    if (shared.empty()) return {};
    return {shared};
  }

  // One instance per element of the first group's array; further groups are
  // zipped by index when their arrays align, otherwise only their first
  // element contributes (distinct arrays rarely feed one request in
  // practice; when they do, element pairing by position is the best
  // information available statically).
  std::vector<Bindings> sets;
  const MultiGroup& first = groups.front();
  const auto arrays = resolve_steps(body, first.prefix.data(), first.prefix.size());
  if (arrays.empty() || !arrays.front()->is_array()) return shared.empty() ? std::vector<Bindings>{} : std::vector<Bindings>{shared};
  const json::Array& lead = arrays.front()->as_array();

  for (std::size_t i = 0; i < lead.size(); ++i) {
    Bindings bindings = shared;
    bool complete = true;
    for (const MultiGroup& group : groups) {
      const auto group_arrays = resolve_steps(body, group.prefix.data(), group.prefix.size());
      if (group_arrays.empty() || !group_arrays.front()->is_array()) {
        complete = false;
        break;
      }
      const json::Array& arr = group_arrays.front()->as_array();
      const std::size_t index = (arr.size() == lead.size()) ? i : 0;
      if (index >= arr.size()) {
        complete = false;
        break;
      }
      for (const auto& [edge, remainder] : group.members) {
        const auto values = resolve_steps(arr[index], remainder.data(), remainder.size());
        const auto value = scalar_at(values.empty() ? nullptr : values.front());
        if (!value) {
          complete = false;
          break;
        }
        bindings[edge->hole] = *value;
      }
      if (!complete) break;
    }
    if (complete) sets.push_back(std::move(bindings));
  }
  return sets;
}

}  // namespace appx::core
