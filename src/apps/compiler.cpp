#include "apps/compiler.hpp"

#include <map>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace appx::apps {

namespace {

using ir::MethodBuilder;
using ir::Program;
using ir::Reg;

std::string intent_key(const EndpointSpec& succ, const FieldSpec& field) {
  return "dep." + succ.label + "." + field.name;
}

// Emit the request-building body of an endpoint. Dependency values arrive as
// parameters in dep-field order.
void emit_builder_body(MethodBuilder& b, const EndpointSpec& ep) {
  // Exercise both common URL-building idioms: StringBuilder-style concat on
  // GETs, String.format on POSTs. The analysis must handle either.
  const Reg url =
      ep.method == "POST"
          ? b.format("https://%s" + ep.path, {b.env(ep.host_env)})
          : b.concat({b.const_str("https://"), b.env(ep.host_env), b.const_str(ep.path)});
  const Reg req = b.http_new();
  b.http_method(req, ep.method);
  b.http_url(req, url);

  std::int32_t dep_index = 0;
  for (const FieldSpec& f : ep.fields) {
    if (f.conditional) b.if_env(f.cond_env);
    Reg value = ir::kNoReg;
    switch (f.value.kind) {
      case ValueSpec::Kind::kConst: value = b.const_str(f.value.text); break;
      case ValueSpec::Kind::kEnv: value = b.env(f.value.text); break;
      case ValueSpec::Kind::kDep: value = b.param(dep_index++); break;
      case ValueSpec::Kind::kNonce: value = b.env("nonce"); break;
    }
    switch (f.loc) {
      case core::FieldLocation::kQuery: b.http_query(req, f.name, value); break;
      case core::FieldLocation::kHeader: b.http_header(req, f.name, value); break;
      case core::FieldLocation::kBody: b.http_body(req, f.name, value); break;
    }
    if (f.conditional) b.end_if();
  }
  const Reg resp = b.http_send(req, ep.label, ep.opaque ? "opaque" : "json");
  b.ret(resp);
}

}  // namespace

std::string build_method_name(const AppSpec& spec, const EndpointSpec& ep) {
  return spec.package + "." + ep.label + ".build";
}

std::string open_method_name(const AppSpec& spec, const EndpointSpec& ep) {
  return spec.package + "." + ep.label + ".open";
}

std::string on_item_method_name(const AppSpec& spec, const EndpointSpec& ep) {
  return spec.package + "." + ep.label + ".onItem";
}

std::string main_method_name(const AppSpec& spec) { return spec.package + ".main"; }

ir::Program compile_app(const AppSpec& spec) {
  spec.validate();
  Program program;
  program.app = spec.package;

  // Successor lists in one pass (AppSpec::successors_of rescans every
  // endpoint per call): each endpoint once per predecessor it reads from, in
  // endpoint order.
  std::map<std::string_view, std::vector<const EndpointSpec*>> successors;
  for (const EndpointSpec& ep : spec.endpoints) {
    for (const FieldSpec& f : ep.fields) {
      if (f.value.kind != ValueSpec::Kind::kDep) continue;
      std::vector<const EndpointSpec*>& list = successors[f.value.dep_endpoint];
      if (list.empty() || list.back() != &ep) list.push_back(&ep);
    }
  }

  for (const EndpointSpec& ep : spec.endpoints) {
    // The builder itself: one parameter per dependency field.
    const auto deps = ep.dep_fields();
    MethodBuilder builder(build_method_name(spec, ep),
                          static_cast<std::int32_t>(deps.size()));
    emit_builder_body(builder, ep);
    ir::Method method = builder.build();

    // emit_builder_body ends with `ret resp`; drop the ret, add the
    // successor glue against the response register, then re-add the ret.
    const ir::Instruction ret_instr = method.code.back();
    method.code.pop_back();
    const Reg resp = ret_instr.a;

    // Re-open a MethodBuilder-like context: we append instructions manually
    // through a throwaway builder is awkward, so extend the method in place
    // with a small emitter.
    std::int32_t next_reg = method.reg_count;
    const auto fresh = [&next_reg]() { return next_reg++; };
    const auto emit = [&method](ir::Instruction instr) { method.code.push_back(std::move(instr)); };
    const auto emit_json_get = [&](Reg src, const std::string& path) {
      const Reg dst = fresh();
      emit({ir::OpCode::kJsonGet, dst, src, ir::kNoReg, path, "", {}});
      return dst;
    };

    const auto succs = successors.find(ep.label);
    if (!ep.opaque && succs != successors.end()) {
      for (const EndpointSpec* succ : succs->second) {
        std::vector<const FieldSpec*> fields_from_here;
        for (const FieldSpec& f : succ->fields) {
          if (f.value.kind == ValueSpec::Kind::kDep && f.value.dep_endpoint == ep.label) {
            fields_from_here.push_back(&f);
          }
        }
        switch (succ->route) {
          case DepRoute::kDirect: {
            std::vector<Reg> args;
            for (const FieldSpec* f : fields_from_here) {
              args.push_back(emit_json_get(resp, f->value.dep_path));
            }
            const Reg dst = fresh();
            emit({ir::OpCode::kInvoke, dst, ir::kNoReg, ir::kNoReg,
                  build_method_name(spec, *succ), "", std::move(args)});
            break;
          }
          case DepRoute::kIntent: {
            for (const FieldSpec* f : fields_from_here) {
              const Reg v = emit_json_get(resp, f->value.dep_path);
              emit({ir::OpCode::kIntentPut, ir::kNoReg, v, ir::kNoReg, intent_key(*succ, *f),
                    "", {}});
            }
            break;
          }
          case DepRoute::kRxFlatMap: {
            const FieldSpec* f = fields_from_here.front();
            std::string prefix, remainder;
            split_wildcard_path(f->value.dep_path, prefix, remainder);
            const Reg elems = emit_json_get(resp, prefix);
            const Reg dst = fresh();
            emit({ir::OpCode::kRxFlatMap, dst, elems, ir::kNoReg,
                  on_item_method_name(spec, *succ), "", {}});
            break;
          }
          case DepRoute::kHeapChain: {
            std::vector<Reg> args;
            for (const FieldSpec* f : fields_from_here) {
              // Post-move alias write: only alias-aware analysis tracks it.
              const Reg holder = fresh();
              emit({ir::OpCode::kNewObject, holder, ir::kNoReg, ir::kNoReg, "Holder", "", {}});
              const Reg alias = fresh();
              emit({ir::OpCode::kMove, alias, holder, ir::kNoReg, "", "", {}});
              const Reg v = emit_json_get(resp, f->value.dep_path);
              emit({ir::OpCode::kPutField, ir::kNoReg, holder, v, "v", "", {}});
              const Reg out = fresh();
              emit({ir::OpCode::kGetField, out, alias, ir::kNoReg, "v", "", {}});
              args.push_back(out);
            }
            const Reg dst = fresh();
            emit({ir::OpCode::kInvoke, dst, ir::kNoReg, ir::kNoReg,
                  build_method_name(spec, *succ), "", std::move(args)});
            break;
          }
        }
      }
    }

    method.code.push_back(ret_instr);
    method.reg_count = next_reg;
    program.methods.push_back(std::move(method));

    // Companion methods depending on the endpoint's own route.
    if (ep.route == DepRoute::kRxFlatMap && !deps.empty()) {
      std::string prefix, remainder;
      split_wildcard_path(deps.front()->value.dep_path, prefix, remainder);
      MethodBuilder on_item(on_item_method_name(spec, ep), 1);
      Reg v = on_item.param(0);
      if (!remainder.empty()) v = on_item.json_get(v, remainder);
      on_item.invoke(build_method_name(spec, ep), {v});
      program.methods.push_back(on_item.build());
    }
    if (ep.route == DepRoute::kIntent && !deps.empty()) {
      MethodBuilder opener(open_method_name(spec, ep));
      std::vector<Reg> args;
      for (const FieldSpec* f : deps) args.push_back(opener.intent_get(intent_key(ep, *f)));
      opener.invoke(build_method_name(spec, ep), std::move(args));
      program.methods.push_back(opener.build());
    }
  }

  // Entry points: the app main (launch path roots) plus every Intent opener
  // (activities started by the framework).
  MethodBuilder main_builder(main_method_name(spec));
  for (const EndpointSpec* root : spec.roots()) {
    main_builder.invoke(build_method_name(spec, *root), {});
  }
  program.methods.push_back(main_builder.build());
  program.entry_points.push_back(main_method_name(spec));
  for (const EndpointSpec& ep : spec.endpoints) {
    if (ep.route == DepRoute::kIntent && ep.has_dep_fields()) {
      program.entry_points.push_back(open_method_name(spec, ep));
    }
  }
  return program;
}

}  // namespace appx::apps
