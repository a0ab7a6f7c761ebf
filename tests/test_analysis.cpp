// Tests for the static analysis engine (paper §4.1): signature extraction,
// dependency inference, Intent/Rx/alias extensions and their ablations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "analysis/analyzer.hpp"
#include "apps/catalog.hpp"
#include "apps/compiler.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace appx::analysis {
namespace {

using ir::MethodBuilder;
using ir::Program;
using ir::Reg;

// A miniature Wish app in SAPK IR exercising every analysis feature:
//   feed (entry)      GET  https://{env host}/api/get-feed
//     '-> flatMap over data.products: per-item image request + Intent put
//   detail (entry)    POST https://{env host}/product/get, cid via Intent,
//                     heap-object chain with a post-move alias write,
//                     conditional credit_id field (Fig. 8)
//     '-> merchant name feeds the related request (chain depth 2)
Program make_mini_wish() {
  Program p;
  p.app = "com.wish.mini";

  {
    MethodBuilder b("FeedActivity.onCreate");
    const Reg url =
        b.concat({b.const_str("https://"), b.env("api_host"), b.const_str("/api/get-feed")});
    const Reg req = b.http_new();
    b.http_method(req, "GET");
    b.http_url(req, url);
    b.http_query(req, "offset", b.const_str("0"));
    b.http_header(req, "Cookie", b.env("cookie"));
    b.http_header(req, "User-Agent", b.env("user_agent"));
    const Reg resp = b.http_send(req, "wish.feed", "json");
    const Reg products = b.json_get(resp, "data.products");
    b.rx_flat_map(products, "FeedActivity.onItem");
    b.ret(resp);
    p.methods.push_back(b.build());
  }
  {
    MethodBuilder b("FeedActivity.onItem", 1);
    const Reg id = b.json_get(b.param(0), "product_info.id");
    const Reg url = b.concat({b.const_str("https://"), b.env("img_host"), b.const_str("/img")});
    const Reg req = b.http_new();
    b.http_method(req, "GET");
    b.http_url(req, url);
    b.http_query(req, "cid", id);
    b.http_send(req, "wish.image", "opaque");
    b.intent_put("item_id", id);  // cross-component flow to DetailActivity
    b.ret(id);
    p.methods.push_back(b.build());
  }
  {
    MethodBuilder b("DetailActivity.onCreate");
    const Reg id = b.intent_get("item_id");
    // Heap chain with a write through an alias AFTER the move: only the
    // alias-aware analysis tracks the cid to the request body.
    const Reg opts = b.new_object("RequestOptions");
    b.put_field(opts, "cid", id);
    const Reg wrapper = b.new_object("RequestWrapper");
    const Reg alias = b.move(wrapper);
    b.put_field(wrapper, "opts", opts);           // write through original
    const Reg opts2 = b.get_field(alias, "opts");  // read through alias
    const Reg cid = b.get_field(opts2, "cid");

    const Reg url =
        b.concat({b.const_str("https://"), b.env("api_host"), b.const_str("/product/get")});
    const Reg req = b.http_new();
    b.http_method(req, "POST");
    b.http_url(req, url);
    b.http_body(req, "cid", cid);
    b.http_body(req, "_client", b.env("client"));
    b.http_body(req, "_build", b.const_str("amazon"));
    b.if_env("has_credit");
    b.http_body(req, "credit_id", b.env("credit_id"));
    b.end_if();
    const Reg resp = b.http_send(req, "wish.product", "json");
    const Reg merchant = b.json_get(resp, "data.contest.merchant_name");
    b.invoke("DetailActivity.loadMerchant", {merchant});
    b.ret(resp);
    p.methods.push_back(b.build());
  }
  {
    MethodBuilder b("DetailActivity.loadMerchant", 1);
    const Reg url =
        b.concat({b.const_str("https://"), b.env("api_host"), b.const_str("/related/get")});
    const Reg req = b.http_new();
    b.http_method(req, "POST");
    b.http_url(req, url);
    b.http_body(req, "merchant", b.param(0));
    const Reg resp = b.http_send(req, "wish.related", "json");
    b.ret(resp);
    p.methods.push_back(b.build());
  }
  p.entry_points = {"FeedActivity.onCreate", "DetailActivity.onCreate"};
  return p;
}

const core::TransactionSignature& by_label(const AnalysisResult& r, std::string_view label) {
  const auto* sig = r.signatures.find_by_label(label);
  EXPECT_NE(sig, nullptr) << "missing signature " << label;
  if (sig == nullptr) throw std::runtime_error("missing signature");
  return *sig;
}

TEST(Analyzer, ExtractsAllSendSites) {
  const auto result = analyze(make_mini_wish());
  EXPECT_EQ(result.signatures.size(), 4u);
  EXPECT_EQ(result.report.send_sites, 4u);
  EXPECT_EQ(result.report.unique_signatures, 4u);
  EXPECT_EQ(result.report.methods_analyzed, 4u);
  EXPECT_GT(result.report.instructions_interpreted, 0u);
}

TEST(Analyzer, FeedSignatureShape) {
  const auto result = analyze(make_mini_wish());
  const auto& feed = by_label(result, "wish.feed");
  EXPECT_EQ(feed.request.method, "GET");
  EXPECT_EQ(feed.request.scheme.concrete_value().value(), "https");
  EXPECT_EQ(feed.request.host.hole_count(), 1u);  // env api_host
  EXPECT_EQ(feed.request.path.concrete_value().value(), "/api/get-feed");
  ASSERT_EQ(feed.request.query.size(), 1u);
  EXPECT_EQ(feed.request.query[0].name, "offset");
  EXPECT_EQ(feed.request.query[0].value.concrete_value().value(), "0");
  ASSERT_EQ(feed.request.headers.size(), 2u);
  EXPECT_EQ(feed.request.headers[0].name, "Cookie");
  EXPECT_EQ(feed.request.headers[0].value.hole_count(), 1u);
  // Response schema: the leaf path read through flatMap elements.
  ASSERT_EQ(feed.response.fields.size(), 1u);
  EXPECT_EQ(feed.response.fields[0].path, "data.products[*].product_info.id");
}

TEST(Analyzer, EnvHolesShareNamesAcrossSignatures) {
  const auto result = analyze(make_mini_wish());
  const auto& feed = by_label(result, "wish.feed");
  const auto& product = by_label(result, "wish.product");
  // Both hosts come from env api_host: identical hole names.
  EXPECT_EQ(feed.request.host.hole_names(), product.request.host.hole_names());
}

TEST(Analyzer, DependencyEdges) {
  const auto result = analyze(make_mini_wish());
  const auto& feed = by_label(result, "wish.feed");
  const auto& image = by_label(result, "wish.image");
  const auto& product = by_label(result, "wish.product");
  const auto& related = by_label(result, "wish.related");

  EXPECT_EQ(result.signatures.edges().size(), 3u);

  const auto to_image = result.signatures.edges_to(image.id);
  ASSERT_EQ(to_image.size(), 1u);
  EXPECT_EQ(to_image[0]->pred_id, feed.id);
  EXPECT_EQ(to_image[0]->pred_path, "data.products[*].product_info.id");

  // Intent-mediated: feed -> product.
  const auto to_product = result.signatures.edges_to(product.id);
  ASSERT_EQ(to_product.size(), 1u);
  EXPECT_EQ(to_product[0]->pred_id, feed.id);
  EXPECT_EQ(to_product[0]->pred_path, "data.products[*].product_info.id");

  const auto to_related = result.signatures.edges_to(related.id);
  ASSERT_EQ(to_related.size(), 1u);
  EXPECT_EQ(to_related[0]->pred_id, product.id);
  EXPECT_EQ(to_related[0]->pred_path, "data.contest.merchant_name");

  EXPECT_EQ(result.signatures.max_chain_length(), 2u);
  EXPECT_EQ(result.signatures.prefetchable().size(), 3u);
}

TEST(Analyzer, ConditionalFieldIsOptional) {
  const auto result = analyze(make_mini_wish());
  const auto& product = by_label(result, "wish.product");
  const auto credit =
      std::find_if(product.request.body.begin(), product.request.body.end(),
                   [](const core::RequestField& f) { return f.name == "credit_id"; });
  ASSERT_NE(credit, product.request.body.end());
  EXPECT_TRUE(credit->optional);
  const auto cid = std::find_if(product.request.body.begin(), product.request.body.end(),
                                [](const core::RequestField& f) { return f.name == "cid"; });
  ASSERT_NE(cid, product.request.body.end());
  EXPECT_FALSE(cid->optional);
}

TEST(Analyzer, OpaqueResponseKind) {
  const auto result = analyze(make_mini_wish());
  EXPECT_EQ(by_label(result, "wish.image").response.body_kind, core::ResponseBodyKind::kOpaque);
  EXPECT_EQ(by_label(result, "wish.feed").response.body_kind, core::ResponseBodyKind::kJson);
}

TEST(Analyzer, BackwardSlicesCoverContributingMethods) {
  const auto result = analyze(make_mini_wish());
  const auto& product_slice = result.slices.at("wish.product");
  EXPECT_FALSE(product_slice.empty());
  // The cid flows from FeedActivity.onItem through the intent map: the slice
  // must reach back into that method (inter-component slicing).
  EXPECT_TRUE(std::any_of(product_slice.begin(), product_slice.end(), [](const SliceEntry& e) {
    return e.method == "FeedActivity.onItem";
  }));
  EXPECT_TRUE(std::any_of(product_slice.begin(), product_slice.end(), [](const SliceEntry& e) {
    return e.method == "DetailActivity.onCreate";
  }));
}

TEST(Analyzer, SapkRoundTripMatchesDirectAnalysis) {
  const Program p = make_mini_wish();
  const auto direct = analyze(p);
  const auto via_blob = analyze_sapk(p.serialize());
  EXPECT_EQ(via_blob.signatures.size(), direct.signatures.size());
  EXPECT_EQ(via_blob.signatures.edges().size(), direct.signatures.edges().size());
  for (const auto& sig : direct.signatures.all()) {
    EXPECT_NE(via_blob.signatures.find(sig->id), nullptr);
  }
}

TEST(Analyzer, FormatBuildsTemplatesLikeConcat) {
  // String.format-built URLs must analyze identically to concat-built ones:
  // literal pieces become literals, env args become run-time holes, response
  // args become dependency edges.
  Program p;
  p.app = "x";
  {
    MethodBuilder b("C.main");
    const Reg req = b.http_new();
    b.http_url(req, b.const_str("https://a.example/list"));
    const Reg resp = b.http_send(req, "x.list", "json");
    const Reg id = b.json_get(resp, "items[*].id");
    b.invoke("C.item", {id});
    p.methods.push_back(b.build());
  }
  {
    MethodBuilder b("C.item", 1);
    const Reg url = b.format("https://%s/item/%s/view", {b.env("host"), b.param(0)});
    const Reg req = b.http_new();
    b.http_url(req, url);
    b.http_send(req, "x.item", "json");
    p.methods.push_back(b.build());
  }
  p.entry_points = {"C.main"};

  const auto result = analyze(p);
  const auto* item = result.signatures.find_by_label("x.item");
  ASSERT_NE(item, nullptr);
  // Host is a hole, the path embeds a dependency hole between literals.
  EXPECT_EQ(item->request.host.hole_count(), 1u);
  EXPECT_EQ(item->request.path.hole_count(), 1u);
  EXPECT_EQ(item->request.path.segments().front().text, "/item/");
  EXPECT_EQ(item->request.path.segments().back().text, "/view");
  const auto edges = result.signatures.edges_to(item->id);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0]->pred_path, "items[*].id");
}

// --- ablations (DESIGN.md §6) -------------------------------------------------------

TEST(AnalyzerAblation, WithoutIntentSupportLosesCrossComponentEdge) {
  AnalysisOptions options;
  options.intent_support = false;
  const auto result = analyze(make_mini_wish(), options);
  const auto& product = by_label(result, "wish.product");
  EXPECT_TRUE(result.signatures.edges_to(product.id).empty());
  // image and related edges survive.
  EXPECT_EQ(result.signatures.edges().size(), 2u);
  EXPECT_GT(result.report.unresolved_values, 0u);
}

TEST(AnalyzerAblation, WithoutRxSupportLosesPerItemEdges) {
  AnalysisOptions options;
  options.rx_support = false;
  const auto result = analyze(make_mini_wish(), options);
  // flatMap is opaque: the image request is never discovered (its builder
  // lives in the un-walked callback), and the intent value is unknown.
  EXPECT_EQ(result.signatures.find_by_label("wish.image"), nullptr);
  const auto& product = by_label(result, "wish.product");
  EXPECT_TRUE(result.signatures.edges_to(product.id).empty());
}

TEST(AnalyzerAblation, WithoutAliasAnalysisLosesHeapChainedDependency) {
  AnalysisOptions options;
  options.alias_analysis = false;
  const auto result = analyze(make_mini_wish(), options);
  const auto& product = by_label(result, "wish.product");
  // The cid reached the request through a write-after-move alias; without
  // alias analysis the dependency is lost (cid becomes a run-time hole).
  EXPECT_TRUE(result.signatures.edges_to(product.id).empty());
  // Fully-enabled analysis finds it (guard against fixture rot).
  const auto full = analyze(make_mini_wish());
  EXPECT_FALSE(full.signatures.edges_to(by_label(full, "wish.product").id).empty());
}

TEST(AnalyzerAblation, FullAnalysisFindsStrictlyMore) {
  const auto full = analyze(make_mini_wish());
  for (const bool flag : {true}) {
    (void)flag;
  }
  AnalysisOptions crippled;
  crippled.intent_support = false;
  crippled.rx_support = false;
  crippled.alias_analysis = false;
  const auto min = analyze(make_mini_wish(), crippled);
  EXPECT_GT(full.signatures.edges().size(), min.signatures.edges().size());
  EXPECT_GE(full.signatures.size(), min.signatures.size());
}

// --- robustness ------------------------------------------------------------------------

TEST(Analyzer, UnknownEntryPointThrows) {
  Program p;
  p.app = "x";
  p.entry_points = {"Missing.main"};
  EXPECT_THROW(analyze(p), NotFoundError);
}

TEST(Analyzer, RecursionTerminates) {
  Program p;
  p.app = "x";
  MethodBuilder b("C.loop");
  const Reg v = b.invoke("C.loop", {});
  b.ret(v);
  p.methods.push_back(b.build());
  p.entry_points = {"C.loop"};
  const auto result = analyze(p);  // must not hang or crash
  EXPECT_EQ(result.signatures.size(), 0u);
}

TEST(Analyzer, UrlWithoutSchemeRejected) {
  Program p;
  p.app = "x";
  MethodBuilder b("C.bad");
  const Reg req = b.http_new();
  b.http_url(req, b.const_str("no-scheme/path"));
  b.http_send(req, "bad.sig", "json");
  p.methods.push_back(b.build());
  p.entry_points = {"C.bad"};
  EXPECT_THROW(analyze(p), ParseError);
}

TEST(Analyzer, MergesIdenticalSendSites) {
  // Two call sites issuing byte-identical requests collapse to one signature.
  Program p;
  p.app = "x";
  MethodBuilder helper("C.issue");
  const Reg req = helper.http_new();
  helper.http_url(req, helper.const_str("https://a.com/ping"));
  const Reg resp = helper.http_send(req, "x.ping", "json");
  helper.ret(resp);
  p.methods.push_back(helper.build());

  MethodBuilder direct("C.other");
  const Reg req2 = direct.http_new();
  direct.http_url(req2, direct.const_str("https://a.com/ping"));
  direct.http_send(req2, "x.ping", "json");
  p.methods.push_back(direct.build());

  MethodBuilder main_m("C.main");
  main_m.invoke("C.issue", {});
  main_m.invoke("C.other", {});
  p.methods.push_back(main_m.build());
  p.entry_points = {"C.main"};

  const auto result = analyze(p);
  EXPECT_EQ(result.report.send_sites, 2u);
  EXPECT_EQ(result.signatures.size(), 1u);
}

TEST(Analyzer, PolymorphicCallContextsMergeToOptionalOrUnknown) {
  // One request-building helper invoked with two different constant values:
  // the field's value degrades to a run-time hole, the signature stays one.
  Program p;
  p.app = "x";
  MethodBuilder helper("C.fetch", 1);
  const Reg req = helper.http_new();
  helper.http_url(req, helper.const_str("https://a.com/get"));
  helper.http_query(req, "kind", helper.param(0));
  const Reg resp = helper.http_send(req, "x.get", "json");
  helper.ret(resp);
  p.methods.push_back(helper.build());

  MethodBuilder main_m("C.main");
  main_m.invoke("C.fetch", {main_m.const_str("red")});
  main_m.invoke("C.fetch", {main_m.const_str("blue")});
  p.methods.push_back(main_m.build());
  p.entry_points = {"C.main"};

  const auto result = analyze(p);
  EXPECT_EQ(result.signatures.size(), 1u);
  const auto& sig = *result.signatures.all().front();
  ASSERT_EQ(sig.request.query.size(), 1u);
  EXPECT_EQ(sig.request.query[0].value.hole_count(), 1u);  // merged to hole
}

// --- pinned output of the catalog apps ---------------------------------------------
//
// The analyzer's output for the five catalog apps is pinned byte for byte:
// FNV-1a of the serialized signature set, FNV-1a of the rendered backward
// slices, and every report counter. A change to the analyzer's internals
// must leave all of them as they are.

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string slices_digest(const AnalysisResult& result) {
  std::string text;
  for (const auto& [label, entries] : result.slices) {
    text += label;
    text += '\n';
    for (const SliceEntry& e : entries) {
      text += e.method;
      text += ':';
      text += std::to_string(e.pc);
      text += '\n';
    }
  }
  return hex64(fnv1a(text));
}

struct PinnedApp {
  apps::AppSpec (*make)();
  const char* signatures;  // hex FNV-1a of SignatureSet::serialize()
  const char* slices;      // slices_digest()
  AnalysisReport report;
};

TEST(AnalyzerPinned, CatalogAppsAnalyseToPinnedOutput) {
  const PinnedApp pinned[] = {
      {apps::make_wish, "65c06b742359d2dc", "a33b83712e43ae62", {129, 7598, 120, 120, 794, 0, 2}},
      {apps::make_geek, "c36efc365ece1e10", "978c72e1345f3109", {126, 5786, 118, 118, 388, 0, 2}},
      {apps::make_doordash, "95afe757c17015ee", "86fa87029baf0e6b", {70, 2792, 63, 63, 160, 0, 2}},
      {apps::make_purpleocean, "8ea4d2b298da7d5e", "5dae34c51887405e", {115, 3860, 109, 109, 72, 0, 2}},
      {apps::make_postmates, "535c2165bd43680d", "e8b1ee574652334f", {93, 4528, 83, 83, 272, 0, 2}},
  };
  for (const PinnedApp& app : pinned) {
    const apps::AppSpec spec = app.make();
    SCOPED_TRACE(spec.name);
    const AnalysisResult result = analyze(apps::compile_app(spec));
    const std::vector<std::uint8_t> blob = result.signatures.serialize();
    EXPECT_EQ(hex64(fnv1a(blob.data(), blob.size())), app.signatures);
    EXPECT_EQ(slices_digest(result), app.slices);
    const AnalysisReport& r = result.report;
    EXPECT_EQ(r.methods_analyzed, app.report.methods_analyzed);
    EXPECT_EQ(r.instructions_interpreted, app.report.instructions_interpreted);
    EXPECT_EQ(r.send_sites, app.report.send_sites);
    EXPECT_EQ(r.unique_signatures, app.report.unique_signatures);
    EXPECT_EQ(r.dependency_edges, app.report.dependency_edges);
    EXPECT_EQ(r.unresolved_values, app.report.unresolved_values);
    EXPECT_EQ(r.fixpoint_iterations, app.report.fixpoint_iterations);
  }
}

}  // namespace
}  // namespace appx::analysis
