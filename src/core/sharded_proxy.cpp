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
    shard->engine.reset(new ProxyEngine(signatures, config, std::move(shard_options), registry_,
                                        static_cast<std::uint32_t>(i), sig_model_));
    shards_.push_back(std::move(shard));
  }
  // /appx/metrics reports dispatch-index totals summed over the shards' own
  // counters. Each counter is a relaxed atomic, so a scrape thread may read
  // them any time.
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

namespace {

void write_entry(ByteWriter& out, std::string_view name, const ByteWriter& payload) {
  out.str(name);
  out.u64(payload.size());
  out.raw(payload.data().data(), payload.size());
}

std::string sig_stats_section(std::size_t shard) {
  return "scheduler.sig_stats/" + std::to_string(shard);
}

}  // namespace

void ShardedProxyEngine::snapshot_to(SnapshotBuilder& builder) const {
  // Entries are collected per shard under that shard's lock; the fleet keeps
  // serving while one shard dumps.
  std::vector<ByteWriter> entries(shards_.size());
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::lock_guard<std::mutex> lock(shards_[i]->mutex);
    shards_[i]->engine->persist_users([&](std::string_view name, const ByteWriter& payload) {
      write_entry(entries[i], name, payload);
      ++total;
    });
  }
  ByteWriter users;
  users.u32(total);
  for (const ByteWriter& w : entries) users.raw(w.data().data(), w.size());
  builder.add_raw("users", kUsersSectionVersion, users);

  ByteWriter model;
  sig_model_.persist(model);
  builder.add_raw("policy.model", policy::SignatureModel::kPersistVersion, model);

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ByteWriter stats;
    {
      const std::lock_guard<std::mutex> lock(shards_[i]->mutex);
      shards_[i]->engine->persist_sig_stats(stats);
    }
    builder.add_raw(sig_stats_section(i), SignatureStats::kPersistVersion, stats);
  }
}

std::optional<std::string> ShardedProxyEngine::restore_entry(ByteReader& in, SimTime now) {
  std::string name = in.str();
  const std::uint64_t len = in.u64();
  const std::uint8_t* data = in.cursor();
  in.skip(len);
  ByteReader payload(data, len);
  Shard& shard = *shards_[shard_index_for(name)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  if (!shard.engine->restore_user(name, payload, now)) return std::nullopt;
  return name;
}

std::size_t ShardedProxyEngine::restore_from(const SnapshotView& view, SimTime now) {
  std::size_t restored = 0;
  std::vector<std::string> created;
  try {
    view.decode("users", kUsersSectionVersion, [&](ByteReader& in, std::uint32_t) {
      const std::uint32_t count = in.u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        if (auto name = restore_entry(in, now)) created.push_back(std::move(*name));
        ++restored;
      }
    });
    view.decode("policy.model", policy::SignatureModel::kPersistVersion,
                [&](ByteReader& in, std::uint32_t version) {
                  sig_model_.restore(in, version, now);
                });
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::lock_guard<std::mutex> lock(shards_[i]->mutex);
      view.decode(sig_stats_section(i), SignatureStats::kPersistVersion,
                  [&](ByteReader& in, std::uint32_t version) {
                    shards_[i]->engine->restore_sig_stats(in, version);
                  });
    }
  } catch (...) {
    for (const std::string& name : created) {
      Shard& shard = *shards_[shard_index_for(name)];
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.engine->forget_user(name);
    }
    throw;
  }
  return restored;
}

std::vector<std::uint8_t> ShardedProxyEngine::export_user(std::string_view user) const {
  ByteWriter payload;
  {
    const Shard& shard = *shards_[shard_index_for(user)];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (!shard.engine->persist_user(user, payload)) return {};
  }
  ByteWriter entry;
  write_entry(entry, user, payload);
  SnapshotBuilder builder;
  builder.add_raw("user", kUsersSectionVersion, entry);
  return builder.finish();
}

bool ShardedProxyEngine::import_user(const std::vector<std::uint8_t>& blob, SimTime now) {
  return SnapshotView(blob).decode("user", kUsersSectionVersion,
                                   [&](ByteReader& in, std::uint32_t) { restore_entry(in, now); });
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
