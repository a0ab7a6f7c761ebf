#include "core/sharded_proxy.hpp"

#include <thread>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace appx::core {

ShardedProxyEngine::ShardedProxyEngine(const SignatureSet* signatures,
                                       const ProxyConfig* config, EngineOptions options) {
  if (signatures == nullptr) {
    throw InvalidArgumentError("ShardedProxyEngine: null signature set");
  }
  if (config == nullptr) throw InvalidArgumentError("ShardedProxyEngine: null config");
  options.validate().throw_if_error();
  std::size_t count = options.shards;
  if (count == 0) {
    count = std::max(1u, std::thread::hardware_concurrency());
  }
  // Every shard matches against the caller's set: matching writes nothing in
  // a built set, so the shards share it without copies or locks.
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    EngineOptions shard_options = options;
    // Independent probability-coin streams per shard; a user's coin is still
    // deterministic because its shard assignment is a pure hash.
    shard_options.seed = options.seed ^ static_cast<std::uint64_t>(i);
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<ProxyEngine>(signatures, config,
                                                  std::move(shard_options), &registry_,
                                                  static_cast<std::uint32_t>(i), &sig_model_);
    shards_.push_back(std::move(shard));
  }
  // Each shard's engine registered the sigindex gauge callbacks against its
  // own counters (last registration wins); replace them with fleet-wide sums
  // so /appx/metrics reports dispatch-index totals across all shards. Each
  // counter is a relaxed atomic, so a scrape thread may read them any time.
  const auto sum_over_shards = [this](std::atomic<std::int64_t> DispatchCounters::*field) {
    return [this, field]() {
      std::int64_t total = 0;
      for (const auto& shard : shards_) {
        total += (shard->engine->dispatch_counters().*field).load(std::memory_order_relaxed);
      }
      return total;
    };
  };
  registry_.gauge_callback("appx_sigindex_lookups_total",
                           sum_over_shards(&DispatchCounters::lookups));
  registry_.gauge_callback("appx_sigindex_candidates_total",
                           sum_over_shards(&DispatchCounters::candidates));
  registry_.gauge_callback("appx_sigindex_confirmed_total",
                           sum_over_shards(&DispatchCounters::confirmed));
}

std::size_t ShardedProxyEngine::shard_index_for(std::string_view user) const {
  return static_cast<std::size_t>(fnv1a(user) % shards_.size());
}

ShardedProxyEngine::Shard& ShardedProxyEngine::shard_for(const UserId& id) const {
  if (!id.valid()) throw InvalidArgumentError("ShardedProxyEngine: unresolved UserId");
  if (id.shard() >= shards_.size()) {
    throw InvalidArgumentError("ShardedProxyEngine: UserId from a different shard layout");
  }
  return *shards_[id.shard()];
}

UserId ShardedProxyEngine::resolve_user(std::string_view user, SimTime now) {
  Shard& shard = *shards_[shard_index_for(user)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.engine->resolve_user(user, now);
}

void ShardedProxyEngine::on_request(UserId& user, const http::Request& request, SimTime now,
                                    Decision* out) {
  Shard& shard = shard_for(user);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.engine->on_request(user, request, now, out);
}

void ShardedProxyEngine::on_response(UserId& user, const http::Request& request,
                                     const http::Response& response, SimTime now,
                                     Decision* out) {
  Shard& shard = shard_for(user);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.engine->on_response(user, request, response, now, out);
}

void ShardedProxyEngine::on_prefetch_response(UserId& user, const PrefetchJob& job,
                                              const http::Response& response, SimTime now,
                                              double response_time_ms, Decision* out) {
  Shard& shard = shard_for(user);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.engine->on_prefetch_response(user, job, response, now, response_time_ms, out);
}

void ShardedProxyEngine::on_prefetch_dropped(UserId& user, const PrefetchJob& job,
                                             SimTime now) {
  Shard& shard = shard_for(user);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.engine->on_prefetch_dropped(user, job, now);
}

void ShardedProxyEngine::pump(UserId& user, SimTime now, Decision* out) {
  Shard& shard = shard_for(user);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.engine->pump(user, now, out);
}

// --- durable learned state (DESIGN.md §5k) -----------------------------------

void ShardedProxyEngine::snapshot_to(SnapshotBuilder& builder) const {
  // Merge every shard's user entries into ONE section so restore can route
  // users by hash under any shard layout. Entries are collected per shard
  // under that shard's lock; the fleet keeps serving while one shard dumps.
  ByteWriter users;
  std::vector<ByteWriter> entries(shards_.size());
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::lock_guard<std::mutex> lock(shards_[i]->mutex);
    total += static_cast<std::uint32_t>(shards_[i]->engine->user_count());
    shards_[i]->engine->persist_user_entries(entries[i]);
  }
  users.u32(total);
  for (const ByteWriter& w : entries) users.raw(w.data().data(), w.size());
  builder.add_raw("users", ProxyEngine::kUsersSectionVersion, users);

  ByteWriter model;
  sig_model_.persist(model);
  builder.add_raw("policy.model", policy::SignatureModel::kPersistVersion, model);

  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->engine->persist_sig_stats_to(builder);
  }
}

std::size_t ShardedProxyEngine::restore_from(const SnapshotView& view, SimTime now) {
  std::size_t restored = 0;
  const SnapshotView::Section* users = view.find("users");
  if (users != nullptr && users->version <= ProxyEngine::kUsersSectionVersion) {
    ByteReader in(users->data, users->size);
    const std::uint32_t count = in.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string name = in.str();
      const std::uint64_t len = in.u64();
      const std::uint8_t* data = in.cursor();
      in.skip(len);
      ByteReader entry(data, len);
      Shard& shard = *shards_[shard_index_for(name)];
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.engine->restore_user_entry(name, entry, users->version, now);
      ++restored;
    }
  }
  const SnapshotView::Section* model = view.find("policy.model");
  if (model != nullptr && model->version <= policy::SignatureModel::kPersistVersion) {
    ByteReader in(model->data, model->size);
    sig_model_.restore(in, model->version, now);
  }
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->engine->restore_sig_stats_from(view);
  }
  return restored;
}

std::vector<std::uint8_t> ShardedProxyEngine::export_user(std::string_view user) const {
  const Shard& shard = *shards_[shard_index_for(user)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.engine->export_user(user);
}

bool ShardedProxyEngine::import_user(const std::vector<std::uint8_t>& blob, SimTime now) {
  // Parse once here to learn the user's name, then route to the owning shard
  // (which re-validates under its own lock).
  const SnapshotView view(blob);
  const SnapshotView::Section* section = view.find("user");
  if (section == nullptr || section->version > ProxyEngine::kUsersSectionVersion) return false;
  ByteReader in(section->data, section->size);
  const std::string name = in.str();
  Shard& shard = *shards_[shard_index_for(name)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.engine->import_user(blob, now);
}

std::size_t ShardedProxyEngine::user_count() const {
  return static_cast<std::size_t>(registry_.gauge_value("appx_proxy_users"));
}

const LearningEngine* ShardedProxyEngine::learning_for(const std::string& user) const {
  const Shard& shard = *shards_[shard_index_for(user)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.engine->learning_for(user);
}

const PrefetchCache* ShardedProxyEngine::cache_for(const std::string& user) const {
  const Shard& shard = *shards_[shard_index_for(user)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.engine->cache_for(user);
}

}  // namespace appx::core
