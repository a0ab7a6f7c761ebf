#include "apps/catalog.hpp"

#include <string>
#include <utility>

#include "util/error.hpp"

namespace appx::apps {

namespace {

using FL = core::FieldLocation;
using VS = ValueSpec;

// Per-app knobs; defaults are overridden by each make_* function.
struct Params {
  std::string package;
  std::string name;
  std::string category;
  std::string main_desc;
  std::string api_host;
  std::string img_host;
  Duration api_rtt = milliseconds(100);
  Duration img_rtt = milliseconds(15);

  // Payloads.
  Bytes feed_padding = kilobytes(6);
  Bytes detail_padding = kilobytes(14);
  Bytes thumb_size = kilobytes(40);
  Bytes photo_size = kilobytes(315);
  int feed_count = 30;
  int detail_photos = 4;

  // Scale (drives Table 3).
  int tabs = 10;              // UI tab families: root + list successor each
  int chain_length = 10;      // background chain depth (max len driver)
  int chain_deps = 6;         // dep fields per chain link
  int pad_successors = 8;     // extra feed successors (scalar deps)
  int pad_succ_deps = 20;     // dep fields each (aux1..)
  int aux0_deps = 12;         // aux0 is part of the launch tail: keep it light
  int detail_deps = 8;        // dep fields of the detail request (per item)
  int tab_succ_deps = 4;
  int tabs_hidden = 0;        // tabs reachable only behind login etc. (no UI)
  int ui_screens = 0;         // simple UI screens over pairs of bg endpoints
  bool merchant_ui = true;    // merchant page reachable from the UI?
  bool launch_featured = false;  // launch also opens a featured item/store
  int bg_roots = 40;          // push/telemetry endpoints, no interaction

  // Client-side processing (Fig. 13/14 "processing delay").
  Duration main_pre = milliseconds(80);
  Duration main_render = milliseconds(320);
  Duration launch_pre = milliseconds(400);
  Duration launch_render = milliseconds(600);
  Duration server_proc = milliseconds(40);
};

// Adds `n` produces entries "data.items[*].f<i>" (per-element) to `ep` and
// returns the paths.
std::vector<std::string> add_item_fields(EndpointSpec& ep, const std::string& list_path,
                                         int n, const std::string& tag) {
  std::vector<std::string> paths;
  for (int i = 0; i < n; ++i) {
    const std::string path = list_path + "[*]." + tag + std::to_string(i);
    ep.produces.push_back({path, ProducesSpec::Kind::kText});
    paths.push_back(path);
  }
  return paths;
}

std::vector<std::string> add_scalar_fields(EndpointSpec& ep, int n, const std::string& tag) {
  std::vector<std::string> paths;
  for (int i = 0; i < n; ++i) {
    const std::string path = "data.meta." + tag + std::to_string(i);
    ep.produces.push_back({path, ProducesSpec::Kind::kText});
    paths.push_back(path);
  }
  return paths;
}

// Standard device/session fields every API request carries.
void add_session_fields(EndpointSpec& ep) {
  ep.fields.push_back({FL::kHeader, "Cookie", VS::env("cookie"), false, ""});
  ep.fields.push_back({FL::kHeader, "User-Agent", VS::env("user_agent"), false, ""});
}

AppSpec build_app(const Params& p) {
  AppSpec app;
  app.package = p.package;
  app.name = p.name;
  app.category = p.category;
  app.main_interaction_desc = p.main_desc;
  app.main_interaction = kMainInteraction;
  app.default_rtt = p.api_rtt;
  app.host_rtt[p.api_host] = p.api_rtt;
  app.host_rtt[p.img_host] = p.img_rtt;
  // Image CDNs peer close to the proxy with plenty of headroom; the paper's
  // measured 6-16 ms image RTTs imply exactly this.
  app.host_bw[p.img_host] = mbps(100);
  app.env_defaults = {
      {"api_host", p.api_host}, {"img_host", p.img_host},   {"client", "android"},
      {"ver", "4.13.0"},        {"user_agent", "Mozilla/5.0"}, {"cookie", "anon"},
      {"device_id", "dev0"},
  };
  app.accelerated_labels = {"thumb", "detail", "related", "photo", "reviews",
                            "aux0",  "tab0_content"};

  // --- core chain -----------------------------------------------------------

  // boot config: serial launch prelude.
  {
    EndpointSpec ep;
    ep.label = "boot_config";
    ep.host = p.api_host;
    ep.host_env = "api_host";
    ep.path = "/api/boot";
    add_session_fields(ep);
    ep.fields.push_back({FL::kQuery, "device", VS::env("device_id"), false, ""});
    ep.produces.push_back({"data.session.token", ProducesSpec::Kind::kId});
    ep.json_padding = kilobytes(2);
    ep.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(ep));
  }
  // feed: the start-page item list.
  {
    EndpointSpec ep;
    ep.label = "feed";
    ep.host = p.api_host;
    ep.host_env = "api_host";
    ep.path = "/api/get-feed";
    add_session_fields(ep);
    ep.fields.push_back({FL::kQuery, "offset", VS::constant("0"), false, ""});
    ep.fields.push_back({FL::kQuery, "count", VS::constant(std::to_string(p.feed_count)), false, ""});
    ep.fields.push_back({FL::kBody, "_client", VS::env("client"), false, ""});
    ep.fields.push_back({FL::kBody, "_ver", VS::env("ver"), false, ""});
    ep.method = "POST";
    ep.list_count = p.feed_count;
    ep.produces.push_back({"data.items[*].id", ProducesSpec::Kind::kId});
    ep.produces.push_back({"data.items[*].merchant", ProducesSpec::Kind::kName});
    // Real feeds embed absolute thumbnail URLs; URL-scanning prefetchers
    // (the Looxy baseline) can use these, and only these.
    ep.produces.push_back({"data.items[*].thumb_url", ProducesSpec::Kind::kUrl,
                           "https://" + p.img_host + "/thumb?cid="});
    ep.json_padding = p.feed_padding;
    ep.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(ep));
  }
  auto& feed = app.endpoints.back();
  const auto feed_item_fields = add_item_fields(feed, "data.items", p.detail_deps, "f");

  // thumbnails: one per feed item at launch (Rx route, per-element).
  {
    EndpointSpec ep;
    ep.label = "thumb";
    ep.host = p.img_host;
    ep.host_env = "img_host";
    ep.path = "/thumb";
    ep.fields.push_back({FL::kQuery, "cid", VS::dep("feed", "data.items[*].id"), false, ""});
    ep.route = DepRoute::kRxFlatMap;
    ep.seed_field = "cid";
    ep.opaque = true;
    ep.opaque_size = p.thumb_size;
    ep.proc_delay = milliseconds(3);
    app.endpoints.push_back(std::move(ep));
  }
  // item detail: the main interaction (heap-chained deps, conditional field).
  {
    EndpointSpec ep;
    ep.label = "detail";
    ep.method = "POST";
    ep.host = p.api_host;
    ep.host_env = "api_host";
    ep.path = "/product/get";
    add_session_fields(ep);
    ep.fields.push_back({FL::kBody, "cid", VS::dep("feed", "data.items[*].id"), false, ""});
    for (std::size_t i = 0; i < feed_item_fields.size(); ++i) {
      ep.fields.push_back({FL::kBody, "attr" + std::to_string(i),
                           VS::dep("feed", feed_item_fields[i]), false, ""});
    }
    ep.fields.push_back({FL::kBody, "_client", VS::env("client"), false, ""});
    ep.fields.push_back({FL::kBody, "_ver", VS::env("ver"), false, ""});
    ep.fields.push_back({FL::kBody, "_build", VS::constant("amazon"), false, ""});
    ep.fields.push_back({FL::kBody, "credit_id", VS::env("credit_id"), true, "has_credit"});
    ep.route = DepRoute::kHeapChain;
    ep.seed_field = "cid";
    ep.produces.push_back({"data.contest.merchant_name", ProducesSpec::Kind::kName});
    ep.produces.push_back({"data.contest.price", ProducesSpec::Kind::kNumber});
    ep.produces.push_back({"data.contest.photos[*].id", ProducesSpec::Kind::kId});
    ep.produces.push_back({"data.contest.photos[*].url", ProducesSpec::Kind::kUrl,
                           "https://" + p.img_host + "/photo?pid="});
    ep.produces.push_back({"data.contest.reviews_token", ProducesSpec::Kind::kId});
    ep.list_count = p.detail_photos;
    ep.json_padding = p.detail_padding;
    ep.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(ep));
  }
  app.env_defaults["credit_id"] = "cc_none";
  // related items: issued alongside detail, also keyed by the feed item id.
  {
    EndpointSpec ep;
    ep.label = "related";
    ep.method = "POST";
    ep.host = p.api_host;
    ep.host_env = "api_host";
    ep.path = "/related/get";
    add_session_fields(ep);
    ep.fields.push_back({FL::kBody, "cid", VS::dep("feed", "data.items[*].id"), false, ""});
    ep.fields.push_back({FL::kBody, "count", VS::constant("10"), false, ""});
    ep.route = DepRoute::kDirect;
    ep.seed_field = "cid";
    ep.produces.push_back({"data.related[*].id", ProducesSpec::Kind::kId});
    ep.list_count = 10;
    ep.json_padding = kilobytes(4);
    ep.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(ep));
  }
  // detail photos: large product images on the detail page.
  {
    EndpointSpec ep;
    ep.label = "photo";
    ep.host = p.img_host;
    ep.host_env = "img_host";
    ep.path = "/photo";
    ep.fields.push_back(
        {FL::kQuery, "pid", VS::dep("detail", "data.contest.photos[*].id"), false, ""});
    ep.route = DepRoute::kRxFlatMap;
    ep.seed_field = "pid";
    ep.opaque = true;
    ep.opaque_size = p.photo_size;
    ep.proc_delay = milliseconds(3);
    app.endpoints.push_back(std::move(ep));
  }
  // reviews: a further serial round trip on the detail page.
  {
    EndpointSpec ep;
    ep.label = "reviews";
    ep.host = p.api_host;
    ep.host_env = "api_host";
    ep.path = "/reviews/get";
    add_session_fields(ep);
    ep.fields.push_back(
        {FL::kQuery, "token", VS::dep("detail", "data.contest.reviews_token"), false, ""});
    ep.fields.push_back({FL::kQuery, "count", VS::constant("20"), false, ""});
    ep.route = DepRoute::kDirect;
    ep.seed_field = "token";
    ep.produces.push_back({"data.reviews[*].id", ProducesSpec::Kind::kId});
    ep.list_count = 20;
    ep.json_padding = kilobytes(6);
    ep.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(ep));
  }
  // merchant page chain (Fig. 2/3c): name -> merchant -> ratings/items/image.
  {
    EndpointSpec ep;
    ep.label = "merchant";
    ep.host = p.api_host;
    ep.host_env = "api_host";
    ep.path = "/api/merchant";
    add_session_fields(ep);
    ep.fields.push_back(
        {FL::kQuery, "m", VS::dep("detail", "data.contest.merchant_name"), false, ""});
    ep.route = DepRoute::kIntent;
    ep.seed_field = "m";
    ep.produces.push_back({"data.merchant.id", ProducesSpec::Kind::kId});
    ep.produces.push_back({"data.merchant.image_id", ProducesSpec::Kind::kId});
    ep.produces.push_back({"data.merchant.items[*].id", ProducesSpec::Kind::kId});
    ep.list_count = 12;
    ep.json_padding = kilobytes(5);
    ep.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(ep));
  }
  {
    EndpointSpec ep;
    ep.label = "merchant_ratings";
    ep.host = p.api_host;
    ep.host_env = "api_host";
    ep.path = "/api/ratings/get";
    add_session_fields(ep);
    ep.fields.push_back({FL::kQuery, "id", VS::dep("merchant", "data.merchant.id"), false, ""});
    ep.route = DepRoute::kDirect;
    ep.seed_field = "id";
    ep.produces.push_back({"data.ratings.avg", ProducesSpec::Kind::kNumber});
    ep.json_padding = kilobytes(3);
    ep.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(ep));
  }
  {
    EndpointSpec ep;
    ep.label = "merchant_image";
    ep.host = p.img_host;
    ep.host_env = "img_host";
    ep.path = "/merchant-img";
    ep.fields.push_back(
        {FL::kQuery, "id", VS::dep("merchant", "data.merchant.image_id"), false, ""});
    ep.route = DepRoute::kDirect;
    ep.seed_field = "id";
    ep.opaque = true;
    ep.opaque_size = p.thumb_size;
    ep.proc_delay = milliseconds(3);
    app.endpoints.push_back(std::move(ep));
  }
  {
    EndpointSpec ep;
    ep.label = "merchant_item";
    ep.method = "POST";
    ep.host = p.api_host;
    ep.host_env = "api_host";
    ep.path = "/merchant/item";
    add_session_fields(ep);
    ep.fields.push_back(
        {FL::kBody, "cid", VS::dep("merchant", "data.merchant.items[*].id"), false, ""});
    ep.route = DepRoute::kRxFlatMap;
    ep.seed_field = "cid";
    ep.produces.push_back({"data.item.photo_id", ProducesSpec::Kind::kId});
    ep.json_padding = kilobytes(6);
    ep.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(ep));
  }
  {
    EndpointSpec ep;
    ep.label = "merchant_item_photo";
    ep.host = p.img_host;
    ep.host_env = "img_host";
    ep.path = "/mi-photo";
    ep.fields.push_back(
        {FL::kQuery, "pid", VS::dep("merchant_item", "data.item.photo_id"), false, ""});
    ep.route = DepRoute::kDirect;
    ep.seed_field = "pid";
    ep.opaque = true;
    ep.opaque_size = p.photo_size;
    ep.proc_delay = milliseconds(3);
    app.endpoints.push_back(std::move(ep));
  }

  // add-to-cart: a side-effectful request carrying a fresh anti-replay nonce.
  // Static analysis finds it (it depends on the feed item id), but replayed
  // nonces get 403s, so the verification phase must disable its prefetching.
  {
    EndpointSpec ep;
    ep.label = "cart_add";
    ep.method = "POST";
    ep.host = p.api_host;
    ep.host_env = "api_host";
    ep.path = "/cart/add";
    add_session_fields(ep);
    ep.fields.push_back({FL::kBody, "cid", VS::dep("feed", "data.items[*].id"), false, ""});
    ep.fields.push_back({FL::kBody, "nonce", VS::nonce(), false, ""});
    ep.route = DepRoute::kDirect;
    ep.seed_field = "cid";
    ep.requires_nonce = true;
    ep.produces.push_back({"data.cart.count", ProducesSpec::Kind::kNumber});
    ep.json_padding = 256;
    ep.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(ep));
  }

  // --- UI tab families -------------------------------------------------------

  for (int t = 0; t < p.tabs; ++t) {
    const std::string id = std::to_string(t);
    EndpointSpec root;
    root.label = "tab" + id;
    root.host = p.api_host;
    root.host_env = "api_host";
    root.path = "/api/tab/" + id;
    add_session_fields(root);
    root.fields.push_back({FL::kQuery, "page", VS::constant("0"), false, ""});
    const auto paths = add_scalar_fields(root, p.tab_succ_deps, "k");
    root.json_padding = kilobytes(4);
    root.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(root));

    EndpointSpec list;
    list.label = "tab" + id + "_content";
    list.method = "POST";
    list.host = p.api_host;
    list.host_env = "api_host";
    list.path = "/api/tab/" + id + "/content";
    add_session_fields(list);
    for (std::size_t i = 0; i < paths.size(); ++i) {
      list.fields.push_back(
          {FL::kBody, "k" + std::to_string(i), VS::dep("tab" + id, paths[i]), false, ""});
    }
    list.route = (t % 2 == 0) ? DepRoute::kDirect : DepRoute::kHeapChain;
    list.seed_field = "k0";
    list.produces.push_back({"data.content.rows", ProducesSpec::Kind::kNumber});
    list.json_padding = kilobytes(8);
    list.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(list));
  }

  // --- deep background chain (Table 3 max len) ---------------------------------

  {
    EndpointSpec root;
    root.label = "sync0";
    root.host = p.api_host;
    root.host_env = "api_host";
    root.path = "/api/sync/0";
    add_session_fields(root);
    root.fields.push_back({FL::kQuery, "cursor", VS::constant("init"), false, ""});
    add_scalar_fields(root, p.chain_deps, "c");
    root.json_padding = kilobytes(2);
    root.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(root));
  }
  for (int link = 1; link <= p.chain_length; ++link) {
    const std::string pred = "sync" + std::to_string(link - 1);
    EndpointSpec ep;
    ep.label = "sync" + std::to_string(link);
    ep.method = "POST";
    ep.host = p.api_host;
    ep.host_env = "api_host";
    ep.path = "/api/sync/" + std::to_string(link);
    add_session_fields(ep);
    for (int i = 0; i < p.chain_deps; ++i) {
      ep.fields.push_back({FL::kBody, "c" + std::to_string(i),
                           VS::dep(pred, "data.meta.c" + std::to_string(i)), false, ""});
    }
    ep.route = (link % 3 == 0) ? DepRoute::kIntent
                               : (link % 3 == 1 ? DepRoute::kDirect : DepRoute::kHeapChain);
    ep.seed_field = "c0";
    add_scalar_fields(ep, p.chain_deps, "c");
    ep.json_padding = kilobytes(2);
    ep.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(ep));
  }

  // --- padding successors (bulk of the dependency-edge count) -------------------

  {
    // They read scalar summary fields of the feed (badge counts, trackers).
    auto& feed_ep = app.endpoints[1];
    if (feed_ep.label != "feed") throw InvalidStateError("catalog: feed index drifted");
    const int max_deps = std::max(p.aux0_deps, p.pad_succ_deps);
    const auto scalar_paths = add_scalar_fields(feed_ep, max_deps, "s");
    for (int s = 0; s < p.pad_successors; ++s) {
      EndpointSpec ep;
      ep.label = "aux" + std::to_string(s);
      ep.method = "POST";
      ep.host = p.api_host;
      ep.host_env = "api_host";
      ep.path = "/api/aux/" + std::to_string(s);
      add_session_fields(ep);
      const std::size_t ndeps = static_cast<std::size_t>(s == 0 ? p.aux0_deps : p.pad_succ_deps);
      for (std::size_t i = 0; i < ndeps; ++i) {
        ep.fields.push_back(
            {FL::kBody, "s" + std::to_string(i), VS::dep("feed", scalar_paths[i]), false, ""});
      }
      ep.route = DepRoute::kDirect;
      ep.seed_field = "s0";
      ep.produces.push_back({"data.ok", ProducesSpec::Kind::kNumber});
      ep.json_padding = kilobytes(1);
      ep.proc_delay = p.server_proc;
      app.endpoints.push_back(std::move(ep));
    }
  }

  // --- background/push-only endpoints (no interaction reaches them) -------------

  for (int b = 0; b < p.bg_roots; ++b) {
    EndpointSpec ep;
    ep.label = "bg" + std::to_string(b);
    ep.host = p.api_host;
    ep.host_env = "api_host";
    ep.path = "/api/bg/" + std::to_string(b);
    add_session_fields(ep);
    ep.fields.push_back({FL::kQuery, "seq", VS::constant(std::to_string(b)), false, ""});
    ep.produces.push_back({"data.ack", ProducesSpec::Kind::kNumber});
    ep.json_padding = 256;
    ep.proc_delay = p.server_proc;
    app.endpoints.push_back(std::move(ep));
  }

  // --- interactions ---------------------------------------------------------------

  {
    Interaction launch;
    launch.name = kLaunchInteraction;
    launch.trigger = Interaction::Trigger::kUi;
    launch.fuzz_weight = 0;  // launch happens once per session, not per event
    launch.user_weight = 0;
    launch.pre_delay = p.launch_pre;
    launch.render_delay = p.launch_render;
    launch.waves = {
        {{"boot_config", false, 0}},
        {{"feed", false, 0}},
        {{"thumb", true, p.feed_count}},
        // Serial dependent API calls finish the start page; these are
        // prefetchable, which is where launch acceleration comes from.
        {{"aux0", false, 0}},
        {{"tab0", false, 0}},
        {{"tab0_content", false, 0}},
    };
    if (p.launch_featured) {
      // The start page auto-expands a featured item (Postmates-style
      // featured restaurant): two further serial, prefetchable transactions.
      launch.waves.push_back({{"detail", false, 0}});
      launch.waves.push_back({{"reviews", false, 0}});
    }
    app.interactions.push_back(std::move(launch));
  }
  {
    Interaction main;
    main.name = kMainInteraction;
    main.trigger = Interaction::Trigger::kUi;
    main.fuzz_weight = 3.0;
    main.user_weight = 10.0;
    main.pre_delay = p.main_pre;
    main.render_delay = p.main_render;
    main.waves = {
        {{"detail", false, 0}, {"related", false, 0}},
        {{"photo", true, 0}},
        {{"reviews", false, 0}},
    };
    app.interactions.push_back(std::move(main));
  }
  if (p.merchant_ui) {
    Interaction merchant;
    merchant.name = kMerchantInteraction;
    merchant.trigger = Interaction::Trigger::kUi;
    merchant.fuzz_weight = 1.5;
    merchant.user_weight = 1.5;
    merchant.pre_delay = p.main_pre;
    merchant.render_delay = p.main_render;
    merchant.waves = {
        {{"merchant", false, 0}},
        {{"merchant_ratings", false, 0}, {"merchant_image", false, 0}},
        {{"merchant_item", true, 4}},
        {{"merchant_item_photo", false, 0}},
    };
    app.interactions.push_back(std::move(merchant));
  }
  // The last `tabs_hidden` tab families sit behind flows Monkey cannot
  // drive (login walls, deep settings): no interaction reaches them, so only
  // static analysis discovers their signatures.
  {
    Interaction cart;
    cart.name = "add_to_cart";
    cart.trigger = Interaction::Trigger::kUi;
    cart.fuzz_weight = 0.8;
    cart.user_weight = 0.3;
    cart.pre_delay = p.main_pre;
    cart.render_delay = milliseconds(80);
    cart.waves = {{{"cart_add", false, 0}}};
    app.interactions.push_back(std::move(cart));
  }
  for (int t = 0; t < p.tabs - p.tabs_hidden; ++t) {
    Interaction tab;
    tab.name = "tab" + std::to_string(t);
    tab.trigger = Interaction::Trigger::kUi;
    tab.fuzz_weight = 1.0;
    tab.user_weight = (t < 2) ? 0.6 : 0.002;  // users stick to a couple of tabs
    tab.pre_delay = p.main_pre;
    tab.render_delay = p.main_render;
    tab.waves = {
        {{"tab" + std::to_string(t), false, 0}},
        {{"tab" + std::to_string(t) + "_content", false, 0}},
    };
    app.interactions.push_back(std::move(tab));
  }
  for (int u = 0; u < p.ui_screens; ++u) {
    // Simple screens (settings, notifications, ...) backed by two of the
    // otherwise-background endpoints; fuzzing can stumble into these.
    Interaction screen;
    screen.name = "screen" + std::to_string(u);
    screen.trigger = Interaction::Trigger::kUi;
    screen.fuzz_weight = 0.6;
    screen.user_weight = 0.002;
    screen.pre_delay = p.main_pre;
    screen.render_delay = p.main_render;
    screen.waves = {{{"bg" + std::to_string(2 * u), false, 0},
                     {"bg" + std::to_string(2 * u + 1), false, 0}}};
    app.interactions.push_back(std::move(screen));
  }
  {
    // Periodic background sync: walks part of the deep chain; never fired by
    // UI fuzzing (Monkey cannot trigger it) and rarely present in short user
    // sessions — exactly the coverage gap Table 3 shows.
    Interaction sync;
    sync.name = "background_sync";
    sync.trigger = Interaction::Trigger::kBackground;
    sync.fuzz_weight = 0;
    sync.user_weight = 0;  // 3-minute sessions don't hit the periodic sync
    sync.pre_delay = milliseconds(5);
    sync.render_delay = milliseconds(5);
    sync.waves.push_back({{"sync0", false, 0}});
    const int visible_depth = std::min(p.chain_length, 4);
    for (int link = 1; link <= visible_depth; ++link) {
      sync.waves.push_back({{"sync" + std::to_string(link), false, 0}});
    }
    app.interactions.push_back(std::move(sync));
  }

  // Not validated here: compile_app validates every spec it compiles, and
  // callers edit some specs after this returns (see make_postmates).
  return app;
}

}  // namespace

AppSpec make_wish() {
  Params p;
  p.package = "com.wish.app";
  p.name = "Wish";
  p.category = "Shopping";
  p.main_desc = "Loads an item detail";
  p.api_host = "api.wish.example";
  p.img_host = "img.wish.example";
  p.api_rtt = milliseconds(165);
  p.img_rtt = milliseconds(16);
  p.photo_size = kilobytes(315);
  p.detail_padding = kilobytes(14);
  p.server_proc = milliseconds(120);
  p.tabs = 6;
  p.chain_length = 12;
  p.chain_deps = 7;
  p.pad_successors = 4;
  p.pad_succ_deps = 212;
  p.detail_deps = 15;
  p.tab_succ_deps = 6;
  p.ui_screens = 11;
  p.bg_roots = 78;
  p.main_render = milliseconds(360);
  p.launch_pre = milliseconds(800);
  p.launch_render = milliseconds(1200);
  return build_app(p);
}

AppSpec make_geek() {
  Params p;
  p.package = "com.geek.app";
  p.name = "Geek";
  p.category = "Shopping";
  p.main_desc = "Loads an item detail";
  p.api_host = "api.geek.example";
  p.img_host = "img.geek.example";
  p.api_rtt = milliseconds(165);
  p.img_rtt = milliseconds(6);
  p.photo_size = kilobytes(315);
  p.detail_padding = kilobytes(14);
  p.server_proc = milliseconds(200);
  p.detail_photos = 6;
  p.tabs = 16;
  p.chain_length = 10;
  p.chain_deps = 6;
  p.pad_successors = 8;
  p.pad_succ_deps = 31;
  p.detail_deps = 8;
  p.tab_succ_deps = 5;
  p.ui_screens = 3;
  p.bg_roots = 54;
  p.main_render = milliseconds(200);
  p.launch_pre = milliseconds(1200);
  p.launch_render = milliseconds(2100);
  return build_app(p);
}

AppSpec make_doordash() {
  Params p;
  p.package = "com.doordash.app";
  p.name = "DoorDash";
  p.category = "Food delivery";
  p.main_desc = "Loads a restaurant info";
  p.api_host = "api.doordash.example";
  p.img_host = "img.doordash.example";
  p.api_rtt = milliseconds(145);
  p.img_rtt = milliseconds(15);
  p.photo_size = kilobytes(120);
  p.thumb_size = kilobytes(60);
  p.detail_padding = kilobytes(18);
  p.feed_count = 20;
  p.server_proc = milliseconds(350);
  p.tabs = 6;
  p.chain_length = 7;
  p.chain_deps = 4;
  p.pad_successors = 7;
  p.pad_succ_deps = 13;
  p.detail_deps = 7;
  p.tab_succ_deps = 4;
  p.ui_screens = 2;
  p.bg_roots = 23;
  p.main_render = milliseconds(580);
  p.launch_pre = milliseconds(2000);
  p.launch_render = milliseconds(2300);
  return build_app(p);
}

AppSpec make_purpleocean() {
  Params p;
  p.package = "com.purpleocean.app";
  p.name = "Purple Ocean";
  p.category = "Psychic reading";
  p.main_desc = "Loads an advisor page";
  p.api_host = "api.purpleocean.example";
  p.img_host = "img.purpleocean.example";
  p.api_rtt = milliseconds(230);
  p.img_rtt = milliseconds(15);
  p.photo_size = kilobytes(90);
  p.thumb_size = kilobytes(35);
  p.detail_padding = kilobytes(10);
  p.feed_count = 24;
  p.server_proc = milliseconds(300);
  p.tabs = 14;
  p.tabs_hidden = 11;
  p.chain_length = 4;
  p.chain_deps = 3;
  p.pad_successors = 8;
  p.pad_succ_deps = 1;
  p.detail_deps = 2;
  p.merchant_ui = false;  // no merchant page in a psychic-reading app UI
  p.tab_succ_deps = 2;
  p.ui_screens = 3;
  p.bg_roots = 55;
  // Paper: Purple Ocean's processing delay is large (~0.8 s).
  p.main_pre = milliseconds(150);
  p.main_render = milliseconds(550);
  p.launch_pre = milliseconds(700);
  p.launch_render = milliseconds(900);
  return build_app(p);
}

AppSpec make_postmates() {
  Params p;
  p.package = "com.postmates.app";
  p.name = "Postmates";
  p.category = "Food delivery";
  p.main_desc = "Loads a restaurant info";
  p.api_host = "api.postmates.example";
  p.img_host = "img.postmates.example";
  p.api_rtt = milliseconds(5);
  p.img_rtt = milliseconds(5);
  p.photo_size = kilobytes(40);   // menu photos are small
  p.thumb_size = kilobytes(168);  // restaurant images load at launch
  p.detail_padding = kilobytes(7);  // menu + info
  p.feed_count = 18;
  p.server_proc = milliseconds(300);  // the "slow origin" case (§2)
  p.detail_photos = 2;
  p.launch_featured = true;
  p.tabs = 8;
  p.tabs_hidden = 6;
  p.chain_length = 15;
  p.chain_deps = 12;
  p.pad_successors = 1;
  p.aux0_deps = 43;
  p.detail_deps = 6;
  p.merchant_ui = false;  // deep store chains are background-only here
  p.tab_succ_deps = 4;
  p.ui_screens = 1;
  p.bg_roots = 37;
  p.main_render = milliseconds(180);
  p.launch_pre = milliseconds(900);
  p.launch_render = milliseconds(1100);
  AppSpec app = build_app(p);
  // Postmates' origin path is bandwidth-constrained (large restaurant images
  // over a congested CDN path): the launch-time image fan-out is where the
  // paper reports its biggest launch win.
  app.origin_bw = mbps(12);
  app.host_bw[p.img_host] = mbps(12);
  // Restaurant images dwarf the menus (168 KB vs 7 KB): the provider opts
  // out of image prefetching — the paper's explanation of Postmates' low
  // data-usage overhead.
  app.accelerated_labels.erase("thumb");
  app.accelerated_labels.erase("photo");
  return app;
}

std::vector<AppSpec> make_all_apps() {
  return {make_wish(), make_geek(), make_doordash(), make_purpleocean(), make_postmates()};
}

}  // namespace appx::apps
