// Durable learned state (DESIGN.md §5k): snapshot container robustness and
// engine-level warm restart / user handoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "core/persist.hpp"
#include "core/sharded_proxy.hpp"
#include "util/hash.hpp"
#include "wish_fixture.hpp"

namespace appx::core {
namespace {

using testfix::make_feed_request;
using testfix::make_feed_response;
using testfix::make_product_request;
using testfix::make_product_response;
using testfix::make_wish_set;
using testfix::one_shard;

ByteWriter payload_of(std::string_view text) {
  ByteWriter w;
  w.raw(text.data(), text.size());
  return w;
}

std::vector<std::uint8_t> two_section_blob() {
  SnapshotBuilder builder;
  builder.add_raw("alpha", 1, payload_of("aaaa"));
  builder.add_raw("beta", 3, payload_of("bb"));
  return builder.finish();
}

// Re-stamp the trailing checksum after test-side surgery on the blob, so the
// corruption under test (and only it) is what the parser sees.
void refresh_checksum(std::vector<std::uint8_t>& blob) {
  const std::uint64_t sum = fnv1a(blob.data(), blob.size() - 8);
  for (int i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

// --- container robustness --------------------------------------------------------

TEST(SnapshotContainer, RoundTripsSectionsAndVersions) {
  const auto blob = two_section_blob();
  const SnapshotView view(blob);
  EXPECT_EQ(view.container_version(), kSnapshotFormatVersion);
  ASSERT_EQ(view.section_count(), 2u);
  const SnapshotView::Section* alpha = view.find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->version, 1u);
  EXPECT_EQ(std::string_view(reinterpret_cast<const char*>(alpha->data), alpha->size), "aaaa");
  const SnapshotView::Section* beta = view.find("beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->version, 3u);
  EXPECT_EQ(view.find("gamma"), nullptr);
}

TEST(SnapshotContainer, EmptySnapshotParses) {
  const auto blob = SnapshotBuilder().finish();
  EXPECT_EQ(SnapshotView(blob).section_count(), 0u);
}

TEST(SnapshotContainer, TruncationIsCorruptNotACrash) {
  const auto blob = two_section_blob();
  // Every proper prefix must be rejected cleanly — a torn write can stop at
  // any byte.
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, blob.size() / 2, blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + static_cast<long>(len));
    EXPECT_THROW(SnapshotView{cut}, SnapshotCorruptError) << "prefix of " << len;
  }
}

TEST(SnapshotContainer, BitFlipFailsTheChecksum) {
  auto blob = two_section_blob();
  blob[blob.size() / 2] ^= 0x40;
  EXPECT_THROW(SnapshotView{blob}, SnapshotCorruptError);
}

TEST(SnapshotContainer, BadMagicIsCorrupt) {
  auto blob = two_section_blob();
  blob[0] = 'Z';
  EXPECT_THROW(SnapshotView{blob}, SnapshotCorruptError);
}

TEST(SnapshotContainer, FutureContainerVersionIsAnExplicitError) {
  auto blob = two_section_blob();
  // Container version is the LE u32 right after the 8-byte magic.
  blob[8] = static_cast<std::uint8_t>(kSnapshotFormatVersion + 1);
  refresh_checksum(blob);
  EXPECT_THROW(SnapshotView{blob}, SnapshotVersionError);
}

TEST(SnapshotContainer, LyingSectionLengthIsCorrupt) {
  SnapshotBuilder builder;
  builder.add_raw("alpha", 1, payload_of("aaaa"));
  auto blob = builder.finish();
  // Grow the section's declared length past the end of the file.
  const char* name = "alpha";
  auto it = std::search(blob.begin(), blob.end(), name, name + 5);
  ASSERT_NE(it, blob.end());
  // str is u32 length + bytes; the section version (u32) follows, then the
  // u64 payload length.
  const std::size_t len_at = static_cast<std::size_t>(it - blob.begin()) + 5 + 4;
  blob[len_at] = 0xff;
  refresh_checksum(blob);
  EXPECT_THROW(SnapshotView{blob}, SnapshotCorruptError);
}

TEST(SnapshotContainer, UnknownAndFutureSectionsLeaveComponentsCold) {
  SnapshotBuilder builder;
  builder.add_raw("known", 1, payload_of("data"));
  builder.add_raw("from.the.future", 9, payload_of("????"));
  const auto blob = builder.finish();
  const SnapshotView view(blob);

  std::string seen;
  EXPECT_TRUE(view.decode("known", 2, [&seen](ByteReader& in, std::uint32_t version) {
    EXPECT_EQ(version, 1u);  // the version it was written with
    seen = std::string(reinterpret_cast<const char*>(in.cursor()), in.remaining());
  }));
  EXPECT_EQ(seen, "data");

  // Same name, but the payload was written by a newer component revision.
  EXPECT_FALSE(view.decode("from.the.future", 2, [](ByteReader&, std::uint32_t) {
    FAIL() << "must stay cold";
  }));
  // Absent name: cold, not an error.
  EXPECT_FALSE(view.decode("never.written", 1, [](ByteReader&, std::uint32_t) {
    FAIL() << "nothing to decode";
  }));
}

TEST(SnapshotContainer, DecodeErrorInsideSectionIsCorrupt) {
  SnapshotBuilder builder;
  builder.add_raw("tiny", 1, payload_of("ab"));
  const auto blob = builder.finish();
  const SnapshotView view(blob);
  EXPECT_THROW(view.decode("tiny", 1, [](ByteReader& in, std::uint32_t) { in.u64(); }),
               SnapshotCorruptError);
}

// --- engine snapshot / restore ---------------------------------------------------

class PersistEngineTest : public ::testing::Test {
 protected:
  PersistEngineTest() : set_(make_wish_set()), restored_set_(make_wish_set()) {
    config_.default_expiration = seconds(3600);
    engine_ = std::make_unique<ShardedProxyEngine>(&set_, &config_, layout(1));
  }

  // Feed + first product: resolves wildcards, learns the dependency flows and
  // feeds the value model — the state a warm restart must preserve.
  void teach(ProxyLike& engine, const std::string& user) {
    run(engine, user, make_feed_request(), make_feed_response({"09cf", "3gf3"}), 0);
    run(engine, user, make_product_request("09cf"), make_product_response("Silk", 1), 1000);
  }

  // After a feed re-arms the instances, the sibling product must be a hit —
  // i.e. the engine acts on learned state instead of relearning it.
  bool serves_sibling_from_cache(ProxyLike& engine, const std::string& user, SimTime base) {
    run(engine, user, make_feed_request(), make_feed_response({"09cf", "3gf3"}), base);
    bool hit = false;
    run(engine, user, make_product_request("3gf3"), make_product_response("Silk", 1), base + 1,
        &hit);
    return hit;
  }

  void run(ProxyLike& engine, const std::string& user, const http::Request& req,
           const http::Response& origin_response, SimTime now, bool* hit = nullptr) {
    Session session = engine.session(user, now);
    Decision d = session.on_request(req, now);
    if (hit != nullptr) *hit = d.served != nullptr;
    std::vector<PrefetchJob> jobs = std::move(d.prefetches);
    if (!d.served) {
      Decision r = session.on_response(req, origin_response, now);
      for (auto& job : r.prefetches) jobs.push_back(std::move(job));
    }
    while (!jobs.empty()) {
      std::vector<PrefetchJob> next;
      for (const auto& job : jobs) {
        http::Response resp;
        if (job.request.uri.path == "/product/get") {
          resp = make_product_response("m_" + job.request.form_fields()[0].second, 1500);
        } else if (job.request.uri.path == "/img") {
          resp.opaque_payload = kilobytes(300);
        } else {
          resp.body = "{}";
        }
        Decision f = session.on_prefetch_response(job, resp, now, 165.0);
        for (auto& follow : f.prefetches) next.push_back(std::move(follow));
      }
      for (auto& job : session.take_prefetches(now)) next.push_back(std::move(job));
      jobs = std::move(next);
    }
  }

  std::vector<std::uint8_t> snapshot(const ProxyLike& engine) {
    SnapshotBuilder builder;
    engine.snapshot_to(builder);
    return builder.finish();
  }

  // Options for an engine of `shards` shards (the fixture's seed and caps).
  EngineOptions layout(std::size_t shards) const {
    EngineOptions options = one_shard(config_, 7);
    options.shards = shards;
    return options;
  }

  SignatureSet set_;
  SignatureSet restored_set_;  // restored engines match against their own set
  ProxyConfig config_;
  std::unique_ptr<ShardedProxyEngine> engine_;
};

TEST_F(PersistEngineTest, WarmRestartActsOnRestoredLearning) {
  teach(*engine_, "u1");
  const auto blob = snapshot(*engine_);

  ShardedProxyEngine fresh(&restored_set_, &config_, layout(1));
  // Cold control: without the snapshot the sibling product is a miss.
  EXPECT_FALSE(serves_sibling_from_cache(fresh, "u1", minutes(10)));

  ShardedProxyEngine warmed(&restored_set_, &config_, layout(1));
  const SnapshotView view(blob);
  EXPECT_EQ(warmed.restore_from(view, minutes(10)), 1u);
  EXPECT_TRUE(serves_sibling_from_cache(warmed, "u1", minutes(10)));
}

TEST_F(PersistEngineTest, SnapshotRoundTripIsByteIdentical) {
  teach(*engine_, "u1");
  const auto blob = snapshot(*engine_);

  ShardedProxyEngine warmed(&restored_set_, &config_, layout(1));
  warmed.restore_from(SnapshotView(blob), minutes(10));
  // Persist the restored engine: learned sections must reproduce the exact
  // bytes (resolved wildcards, flows, EWMAs, counters — nothing lossy).
  const auto reblob = snapshot(warmed);
  EXPECT_EQ(blob, reblob);
}

TEST_F(PersistEngineTest, RestoreIsMergeNotReplace) {
  teach(*engine_, "u1");
  const auto blob = snapshot(*engine_);
  ShardedProxyEngine warmed(&restored_set_, &config_, layout(1));
  teach(warmed, "u2");  // pre-existing local user
  warmed.restore_from(SnapshotView(blob), minutes(10));
  EXPECT_TRUE(serves_sibling_from_cache(warmed, "u1", minutes(10)));
  EXPECT_TRUE(serves_sibling_from_cache(warmed, "u2", minutes(20)));
}

TEST_F(PersistEngineTest, FutureUsersSectionLeavesUsersCold) {
  teach(*engine_, "u1");
  SnapshotBuilder builder;
  engine_->snapshot_to(builder);
  // Re-render with the users section replaced by a future revision.
  SnapshotBuilder future;
  ByteWriter bogus;
  bogus.u32(1);
  future.add_raw("users", ShardedProxyEngine::kUsersSectionVersion + 1, bogus);
  ShardedProxyEngine warmed(&restored_set_, &config_, layout(1));
  EXPECT_EQ(warmed.restore_from(SnapshotView(future.finish()), minutes(10)), 0u);
}

TEST_F(PersistEngineTest, ExportImportHandsUserToAnotherEngine) {
  teach(*engine_, "mover");
  EXPECT_TRUE(engine_->export_user("never-seen").empty());
  const std::vector<std::uint8_t> shard = engine_->export_user("mover");
  ASSERT_FALSE(shard.empty());

  ShardedProxyEngine successor(&restored_set_, &config_, layout(1));
  EXPECT_TRUE(successor.import_user(shard, minutes(10)));
  EXPECT_TRUE(serves_sibling_from_cache(successor, "mover", minutes(10)));
}

TEST_F(PersistEngineTest, ImportRejectsCorruptBlobsCleanly) {
  teach(*engine_, "mover");
  auto shard = engine_->export_user("mover");
  shard[shard.size() / 2] ^= 0x10;
  ShardedProxyEngine successor(&restored_set_, &config_, layout(1));
  EXPECT_THROW(successor.import_user(shard, 0), SnapshotCorruptError);
  // The failed import left no trace.
  EXPECT_EQ(successor.user_count(), 0u);
}

TEST_F(PersistEngineTest, SingleShardSnapshotRestoresIntoShardedEngine) {
  teach(*engine_, "u1");
  teach(*engine_, "u2");
  const auto blob = snapshot(*engine_);

  ShardedProxyEngine fleet(&restored_set_, &config_, layout(3));
  EXPECT_EQ(fleet.restore_from(SnapshotView(blob), minutes(10)), 2u);
  // Users land on whatever shard the fleet's hash picks; both serve warm.
  EXPECT_TRUE(serves_sibling_from_cache(fleet, "u1", minutes(10)));
  EXPECT_TRUE(serves_sibling_from_cache(fleet, "u2", minutes(20)));
}

TEST_F(PersistEngineTest, ShardedSnapshotRestoresIntoSingleEngine) {
  ShardedProxyEngine fleet(&set_, &config_, layout(3));
  teach(fleet, "u1");
  teach(fleet, "u2");
  teach(fleet, "u3");
  SnapshotBuilder builder;
  fleet.snapshot_to(builder);

  ShardedProxyEngine single(&restored_set_, &config_, layout(1));
  EXPECT_EQ(single.restore_from(SnapshotView(builder.finish()), minutes(10)), 3u);
  EXPECT_TRUE(serves_sibling_from_cache(single, "u2", minutes(10)));
}

TEST_F(PersistEngineTest, SnapshotSurvivesShardLayoutChangeByteForByte) {
  teach(*engine_, "u1");
  teach(*engine_, "u2");
  teach(*engine_, "u3");
  const auto blob = snapshot(*engine_);

  // 1 shard -> 3 shards -> 1 shard: the users spread over the fleet and come
  // back, and nothing learned is lost or reordered on the way.
  ShardedProxyEngine fleet(&restored_set_, &config_, layout(3));
  ASSERT_EQ(fleet.restore_from(SnapshotView(blob), minutes(10)), 3u);
  std::set<std::size_t> shards_used;
  for (const char* user : {"u1", "u2", "u3"}) shards_used.insert(fleet.shard_index_for(user));
  EXPECT_GT(shards_used.size(), 1u) << "the layout change must actually move users";

  ShardedProxyEngine single(&restored_set_, &config_, layout(1));
  ASSERT_EQ(single.restore_from(SnapshotView(snapshot(fleet)), minutes(20)), 3u);
  EXPECT_EQ(snapshot(single), blob);
}

// An entry whose framing (name, length) is intact but whose learned payload
// stops half-way. The blob's checksum is valid: FNV-1a is public, so anyone
// can mint such a blob.
ByteWriter truncated_entry(const std::vector<std::uint8_t>& export_blob) {
  const SnapshotView view(export_blob);
  const SnapshotView::Section* section = view.find("user");
  EXPECT_NE(section, nullptr);
  ByteReader in(section->data, section->size);
  const std::string name = in.str();
  const std::uint64_t half = in.u64() / 2;
  ByteWriter entry;
  entry.str(name);
  entry.u64(half);
  entry.raw(in.cursor(), half);
  return entry;
}

TEST_F(PersistEngineTest, CorruptImportLeavesNoHalfMadeUser) {
  teach(*engine_, "mover");
  SnapshotBuilder builder;
  builder.add_raw("user", ShardedProxyEngine::kUsersSectionVersion,
                  truncated_entry(engine_->export_user("mover")));

  ShardedProxyEngine successor(&restored_set_, &config_, layout(1));
  EXPECT_THROW(successor.import_user(builder.finish(), minutes(10)), SnapshotCorruptError);
  EXPECT_EQ(successor.user_count(), 0u);
  EXPECT_EQ(successor.learning_for("mover"), nullptr);
}

TEST_F(PersistEngineTest, CorruptRestoreLeavesNoHalfMadeUser) {
  teach(*engine_, "u1");
  teach(*engine_, "mover");
  // A users section whose first entry is whole and whose second is cut
  // short: the failed restore must also give back the user it did create.
  const auto whole = engine_->export_user("u1");
  const SnapshotView whole_view(whole);
  const SnapshotView::Section* u1 = whole_view.find("user");
  ASSERT_NE(u1, nullptr);
  const ByteWriter cut = truncated_entry(engine_->export_user("mover"));
  ByteWriter users;
  users.u32(2);
  users.raw(u1->data, u1->size);
  users.raw(cut.data().data(), cut.size());
  SnapshotBuilder builder;
  builder.add_raw("users", ShardedProxyEngine::kUsersSectionVersion, users);
  const auto blob = builder.finish();

  ShardedProxyEngine fleet(&restored_set_, &config_, layout(3));
  teach(fleet, "local");
  EXPECT_THROW(fleet.restore_from(SnapshotView(blob), minutes(10)), SnapshotCorruptError);
  EXPECT_EQ(fleet.user_count(), 1u);
  EXPECT_EQ(fleet.learning_for("u1"), nullptr);
  EXPECT_EQ(fleet.learning_for("mover"), nullptr);
  EXPECT_TRUE(serves_sibling_from_cache(fleet, "local", minutes(10)));
}

}  // namespace
}  // namespace appx::core
