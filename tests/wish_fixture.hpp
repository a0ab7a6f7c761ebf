// Shared test fixture: a miniature version of the paper's Wish working
// example (Figs. 1, 5, 7) expressed directly as signatures.
//
//   feed    GET  {host}/api/get-feed            -> JSON list of product ids
//   product POST {host}/product/get  cid={id}   <- depends on feed
//   image   GET  {host}/img?cid={id}            <- depends on feed
//   related POST {host}/related/get  cid={id}   <- depends on product
#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/engine_options.hpp"
#include "core/signature.hpp"

namespace appx::testfix {

// Options for a one-shard APPx engine: `config`'s runtime caps and a fixed
// probability-coin seed.
inline core::EngineOptions one_shard(const core::ProxyConfig& config, std::uint64_t seed) {
  core::EngineOptions options = core::EngineOptions::from_config(config);
  options.seed = seed;
  options.shards = 1;
  return options;
}

inline core::TransactionSignature make_feed_signature() {
  core::TransactionSignature sig;
  sig.app = "com.wish.test";
  sig.label = "wish.feed";
  sig.request.method = "GET";
  sig.request.scheme = pattern::FieldTemplate::literal("https");
  sig.request.host = pattern::FieldTemplate::hole("wish.host");
  sig.request.path = pattern::FieldTemplate::literal("/api/get-feed");
  sig.request.query = {
      {core::FieldLocation::kQuery, "offset", pattern::FieldTemplate::parse("{o:(0|-1)}"), false},
      {core::FieldLocation::kQuery, "count", pattern::FieldTemplate::parse("{n:(30|1)}"), false},
  };
  sig.request.headers = {
      {core::FieldLocation::kHeader, "Cookie", pattern::FieldTemplate::hole("wish.cookie"), false},
      {core::FieldLocation::kHeader, "User-Agent", pattern::FieldTemplate::hole("wish.ua"), false},
  };
  sig.response.body_kind = core::ResponseBodyKind::kJson;
  sig.response.fields = {
      {"data.products[*].product_info.id", ".*"},
      {"data.products[*].aspect_rat", ".*"},
  };
  sig.finalize();
  return sig;
}

inline core::TransactionSignature make_product_signature() {
  core::TransactionSignature sig;
  sig.app = "com.wish.test";
  sig.label = "wish.product";
  sig.request.method = "POST";
  sig.request.scheme = pattern::FieldTemplate::literal("https");
  sig.request.host = pattern::FieldTemplate::hole("wish.host");
  sig.request.path = pattern::FieldTemplate::literal("/product/get");
  sig.request.headers = {
      {core::FieldLocation::kHeader, "Cookie", pattern::FieldTemplate::hole("wish.cookie"), false},
      {core::FieldLocation::kHeader, "User-Agent", pattern::FieldTemplate::hole("wish.ua"), false},
  };
  sig.request.body_kind = core::BodyKind::kForm;
  sig.request.body = {
      {core::FieldLocation::kBody, "cid", pattern::FieldTemplate::hole("wish.product.cid"), false},
      {core::FieldLocation::kBody, "_client", pattern::FieldTemplate::hole("wish.client"), false},
      {core::FieldLocation::kBody, "_ver", pattern::FieldTemplate::hole("wish.ver"), false},
      {core::FieldLocation::kBody, "_build", pattern::FieldTemplate::literal("amazon"), false},
      // Branch-dependent field (Fig. 8): present only on some paths.
      {core::FieldLocation::kBody, "credit_id", pattern::FieldTemplate::hole("wish.credit"), true},
  };
  sig.response.body_kind = core::ResponseBodyKind::kJson;
  sig.response.fields = {
      {"data.contest.merchant_name", ".*"},
      {"data.contest.price", ".*"},
  };
  sig.finalize();
  return sig;
}

inline core::TransactionSignature make_image_signature() {
  core::TransactionSignature sig;
  sig.app = "com.wish.test";
  sig.label = "wish.image";
  sig.request.method = "GET";
  sig.request.scheme = pattern::FieldTemplate::literal("https");
  sig.request.host = pattern::FieldTemplate::hole("wish.host");
  sig.request.path = pattern::FieldTemplate::literal("/img");
  sig.request.query = {
      {core::FieldLocation::kQuery, "cid", pattern::FieldTemplate::hole("wish.image.cid"), false},
  };
  sig.response.body_kind = core::ResponseBodyKind::kOpaque;
  sig.finalize();
  return sig;
}

inline core::TransactionSignature make_related_signature() {
  core::TransactionSignature sig;
  sig.app = "com.wish.test";
  sig.label = "wish.related";
  sig.request.method = "POST";
  sig.request.scheme = pattern::FieldTemplate::literal("https");
  sig.request.host = pattern::FieldTemplate::hole("wish.host");
  sig.request.path = pattern::FieldTemplate::literal("/related/get");
  sig.request.body_kind = core::BodyKind::kForm;
  sig.request.body = {
      {core::FieldLocation::kBody, "merchant",
       pattern::FieldTemplate::hole("wish.related.merchant"), false},
  };
  sig.response.body_kind = core::ResponseBodyKind::kJson;
  sig.finalize();
  return sig;
}

// feed -> {product, image}; product -> related.
inline core::SignatureSet make_wish_set() {
  core::SignatureSet set;
  const auto& feed = set.add(make_feed_signature());
  const auto& product = set.add(make_product_signature());
  const auto& image = set.add(make_image_signature());
  const auto& related = set.add(make_related_signature());
  set.add_edge({feed.id, "data.products[*].product_info.id", product.id, "wish.product.cid"});
  set.add_edge({feed.id, "data.products[*].product_info.id", image.id, "wish.image.cid"});
  set.add_edge({product.id, "data.contest.merchant_name", related.id, "wish.related.merchant"});
  return set;
}

// A concrete feed request as the app would send it.
inline http::Request make_feed_request() {
  http::Request req;
  req.method = "GET";
  req.uri = http::Uri::parse("https://wish.com/api/get-feed?offset=0&count=30");
  req.headers.set("Cookie", "e8d5");
  req.headers.set("User-Agent", "Mozilla/5.0");
  return req;
}

// A concrete feed response listing the given product ids.
inline http::Response make_feed_response(const std::vector<std::string>& ids) {
  json::Array products;
  for (const std::string& id : ids) {
    json::Object info;
    info["id"] = id;
    json::Object product;
    product["product_info"] = std::move(info);
    product["aspect_rat"] = 1.5;
    products.emplace_back(std::move(product));
  }
  json::Object data;
  data["products"] = std::move(products);
  json::Object root;
  root["data"] = std::move(data);

  http::Response resp;
  resp.headers.set("Content-Type", "application/json");
  resp.body = json::Value(std::move(root)).dump();
  return resp;
}

// A concrete product request for one id, as the app would send it.
inline http::Request make_product_request(const std::string& cid, bool with_credit = false) {
  http::Request req;
  req.method = "POST";
  req.uri = http::Uri::parse("https://wish.com/product/get");
  req.headers.set("Cookie", "e8d5");
  req.headers.set("User-Agent", "Mozilla/5.0");
  http::FormFields fields{
      {"cid", cid}, {"_client", "android"}, {"_ver", "4.13.0"}, {"_build", "amazon"}};
  if (with_credit) fields.emplace_back("credit_id", "cc01");
  req.set_form_fields(fields);
  return req;
}

inline http::Response make_product_response(const std::string& merchant, int price) {
  json::Object contest;
  contest["merchant_name"] = merchant;
  contest["price"] = price;
  json::Object data;
  data["contest"] = std::move(contest);
  json::Object root;
  root["data"] = std::move(data);
  http::Response resp;
  resp.headers.set("Content-Type", "application/json");
  resp.body = json::Value(std::move(root)).dump();
  return resp;
}

}  // namespace appx::testfix
