#include "analysis/analyzer.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace appx::analysis {

namespace {

using core::BodyKind;
using core::DependencyEdge;
using core::FieldLocation;
using core::RequestField;
using core::ResponseBodyKind;
using core::TransactionSignature;
using ir::Instruction;
using ir::Method;
using ir::OpCode;
using ir::Program;
using ir::Reg;
using pattern::FieldTemplate;

// --- abstract value domain --------------------------------------------------------

struct ObjectData;
struct Node;
using ValuePtr = std::shared_ptr<const Node>;
using ObjectPtr = std::shared_ptr<ObjectData>;

// A defining instruction. The method name is borrowed from the program, which
// outlives the analysis, so recording an origin copies no string; SliceEntry
// values are built from origins only when the result's slices are filled.
// A send site is identified by the origin of its send instruction.
struct Origin {
  const std::string* method = nullptr;
  std::size_t pc = 0;

  bool operator==(const Origin&) const = default;
};

// Identity order (method object, then pc): cheap, and stable within one run.
struct OriginLess {
  bool operator()(const Origin& a, const Origin& b) const {
    if (a.method != b.method) return std::less<const std::string*>()(a.method, b.method);
    return a.pc < b.pc;
  }
};

// Appends the send-site key "method:pc" that names a site in hole names.
void append_site_key(std::string& out, const Origin& site) {
  out += *site.method;
  out += ':';
  out += std::to_string(site.pc);
}

struct Node {
  enum class Kind { kConst, kEnv, kConcat, kResp, kRespField, kObject, kUnknown };
  Kind kind = Kind::kUnknown;
  std::string text;            // const text / env name / resp-field JSON path
  std::vector<ValuePtr> parts; // concat parts
  ValuePtr from;               // resp-field: the value it was read from
  Origin site;                 // resp / resp-field: the send instruction
  ObjectPtr object;            // heap reference
  Origin origin;               // defining instruction
};

ValuePtr make_unknown(Origin origin) {
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kUnknown;
  n->origin = origin;
  return n;
}

ValuePtr make_const(std::string text, Origin origin) {
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kConst;
  n->text = std::move(text);
  n->origin = origin;
  return n;
}

ValuePtr make_env(std::string name, Origin origin) {
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kEnv;
  n->text = std::move(name);
  n->origin = origin;
  return n;
}

// Structural equality (objects by identity).
bool values_equal(const ValuePtr& a, const ValuePtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case Node::Kind::kConst:
    case Node::Kind::kEnv:
      return a->text == b->text;
    case Node::Kind::kConcat:
      if (a->parts.size() != b->parts.size()) return false;
      for (std::size_t i = 0; i < a->parts.size(); ++i) {
        if (!values_equal(a->parts[i], b->parts[i])) return false;
      }
      return true;
    case Node::Kind::kResp:
      return a->site == b->site;
    case Node::Kind::kRespField:
      return a->site == b->site && a->text == b->text;
    case Node::Kind::kObject:
      return a->object == b->object;
    case Node::Kind::kUnknown:
      return false;  // unknowns never merge to equal
  }
  return false;
}

// Appends the origins of `v` and of everything it was built from; duplicates
// are removed when the slice is finished.
void collect_origins(const ValuePtr& v, std::vector<Origin>& out) {
  if (!v) return;
  out.push_back(v->origin);
  for (const ValuePtr& part : v->parts) collect_origins(part, out);
  collect_origins(v->from, out);
}

// --- builders and heap ---------------------------------------------------------------

struct BuilderField {
  std::string name;
  ValuePtr value;
  bool optional = false;
  Origin origin;
};

struct BuilderData {
  std::string verb = "GET";
  ValuePtr url;
  std::vector<BuilderField> query;
  std::vector<BuilderField> headers;
  std::vector<BuilderField> body;
  std::vector<Origin> op_origins;  // builder-mutating instructions
};

struct ObjectData {
  std::string class_name;
  std::map<std::string, ValuePtr> fields;
  std::unique_ptr<BuilderData> builder;  // non-null for HTTP builders
};

struct SendSite {
  std::string label;
  std::string body_kind;
  BuilderData builder;
  std::vector<std::string> response_paths;  // unsorted, may repeat
  std::vector<Origin> slice;  // unsorted, may repeat
};

ValuePtr make_object(std::string class_name, bool is_builder, Origin origin) {
  auto obj = std::make_shared<ObjectData>();
  obj->class_name = std::move(class_name);
  if (is_builder) obj->builder = std::make_unique<BuilderData>();
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kObject;
  n->object = std::move(obj);
  n->origin = origin;
  return n;
}

// Deep-ish copy used when alias analysis is disabled: the copy shares no
// mutable state with the original, so later writes are invisible through it.
ValuePtr copy_object(const ValuePtr& v, Origin origin) {
  auto obj = std::make_shared<ObjectData>();
  obj->class_name = v->object->class_name;
  obj->fields = v->object->fields;
  if (v->object->builder) obj->builder = std::make_unique<BuilderData>(*v->object->builder);
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kObject;
  n->object = std::move(obj);
  n->origin = origin;
  return n;
}

// BuilderData needs a copy constructor for the above; the default one copies
// the unique_ptr-free members, which is what we get since it has none.

// --- interpreter ------------------------------------------------------------------------

class Interpreter {
 public:
  Interpreter(const Program& program, const AnalysisOptions& options)
      : program_(program), options_(options) {
    // Program::find_method scans linearly; calls resolve through this index
    // instead (first definition of a name wins, as in find_method).
    methods_by_name_.reserve(program.methods.size());
    for (const Method& m : program.methods) methods_by_name_.emplace(m.name, &m);
  }

  void run() {
    for (std::size_t iteration = 0; iteration < options_.max_fixpoint_iterations; ++iteration) {
      ++report_.fixpoint_iterations;
      // Sites are rebuilt each fixpoint pass so values that arrived through
      // the intent map in later passes replace early Unknowns rather than
      // merging with them.
      sites_.clear();
      site_order_.clear();
      methods_seen_.assign(program_.methods.size(), false);
      intent_changed_ = false;
      for (const std::string& entry : program_.entry_points) {
        const Method& method = program_.get_method(entry);
        std::vector<const Method*> stack;
        interpret(method, {}, 0, stack);
      }
      if (!intent_changed_) break;
    }
    report_.methods_analyzed = static_cast<std::size_t>(
        std::count(methods_seen_.begin(), methods_seen_.end(), true));
    report_.send_sites = site_order_.size();
  }

  AnalysisResult finish();

 private:
  static Origin here(const Method& method, std::size_t pc) { return Origin{&method.name, pc}; }

  ValuePtr interpret(const Method& method, std::vector<ValuePtr> args, std::size_t depth,
                     std::vector<const Method*>& stack);

  ValuePtr rx_element_of(const ValuePtr& v, Origin origin) const {
    // flatMap iterates the elements of an observable built from `v`; when v
    // names a JSON array, the element is the per-element ([*]) path.
    if (v->kind == Node::Kind::kRespField) {
      auto n = std::make_shared<Node>();
      n->kind = Node::Kind::kRespField;
      n->site = v->site;
      n->text = v->text + "[*]";
      n->origin = origin;
      n->from = v;
      return n;
    }
    if (v->kind == Node::Kind::kResp) return v;
    return v;
  }

  ValuePtr call_ref(std::string_view ref, std::vector<ValuePtr> args, std::size_t depth,
                    std::vector<const Method*>& stack, Origin origin) {
    const auto callee = methods_by_name_.find(ref);
    if (callee == methods_by_name_.end()) {
      log_warn("analysis") << "unresolved method reference " << ref;
      return make_unknown(origin);
    }
    return interpret(*callee->second, std::move(args), depth + 1, stack);
  }

  void merge_builder_field(std::vector<BuilderField>& existing,
                           const std::vector<BuilderField>& incoming);
  void record_send(const Method& method, std::size_t pc, const Instruction& instr,
                   const ObjectData& builder_obj);

  const Program& program_;
  AnalysisOptions options_;
  std::unordered_map<std::string_view, const Method*> methods_by_name_;
  std::map<std::string, ValuePtr> intent_map_;
  bool intent_changed_ = false;
  std::map<Origin, SendSite, OriginLess> sites_;
  std::vector<Origin> site_order_;
  std::vector<bool> methods_seen_;  // parallel to program_.methods
  AnalysisReport report_;
};

ValuePtr Interpreter::interpret(const Method& method, std::vector<ValuePtr> args,
                                std::size_t depth, std::vector<const Method*>& stack) {
  methods_seen_[static_cast<std::size_t>(&method - program_.methods.data())] = true;
  const Origin entry_origin = here(method, 0);
  if (depth > options_.max_call_depth) return make_unknown(entry_origin);
  if (std::find(stack.begin(), stack.end(), &method) != stack.end()) {
    return make_unknown(entry_origin);  // recursion: give up on this path
  }
  stack.push_back(&method);

  // Every register starts as its own Unknown; it is made on first read, so
  // registers the method only writes cost nothing.
  std::vector<ValuePtr> regs(static_cast<std::size_t>(method.reg_count));
  for (std::size_t i = 0; i < args.size() && i < static_cast<std::size_t>(method.param_count);
       ++i) {
    regs[i] = std::move(args[i]);
  }

  ValuePtr return_value;
  int guard_depth = 0;

  for (std::size_t pc = 0; pc < method.code.size(); ++pc) {
    const Instruction& instr = method.code[pc];
    ++report_.instructions_interpreted;
    const Origin origin = here(method, pc);
    const auto reg = [&](Reg r) -> ValuePtr& {
      ValuePtr& v = regs[static_cast<std::size_t>(r)];
      if (!v) v = make_unknown(entry_origin);
      return v;
    };
    // Write-only access: skips the read's Unknown.
    const auto def = [&](Reg r) -> ValuePtr& { return regs[static_cast<std::size_t>(r)]; };

    switch (instr.op) {
      case OpCode::kConst:
        def(instr.dst) = make_const(instr.s, origin);
        break;
      case OpCode::kEnv:
        def(instr.dst) = make_env(instr.s, origin);
        break;
      case OpCode::kMove: {
        const ValuePtr src = reg(instr.a);
        if (src->kind == Node::Kind::kObject && !options_.alias_analysis) {
          // Without alias analysis a move is an untracked copy: subsequent
          // writes through the original are lost to this reference.
          def(instr.dst) = copy_object(src, origin);
        } else {
          def(instr.dst) = src;
        }
        break;
      }
      case OpCode::kConcat: {
        auto n = std::make_shared<Node>();
        n->kind = Node::Kind::kConcat;
        n->origin = origin;
        const ValuePtr& a = reg(instr.a);
        const ValuePtr& b = reg(instr.b);
        const auto width = [](const ValuePtr& v) {
          return v->kind == Node::Kind::kConcat ? v->parts.size() : std::size_t{1};
        };
        n->parts.reserve(width(a) + width(b));
        const auto flatten = [&n](const ValuePtr& v) {
          if (v->kind == Node::Kind::kConcat) {
            n->parts.insert(n->parts.end(), v->parts.begin(), v->parts.end());
          } else {
            n->parts.push_back(v);
          }
        };
        flatten(a);
        flatten(b);
        def(instr.dst) = std::move(n);
        break;
      }
      case OpCode::kNewObject:
        def(instr.dst) = make_object(instr.s, /*is_builder=*/false, origin);
        break;
      case OpCode::kGetField: {
        const ValuePtr obj = reg(instr.a);
        if (obj->kind == Node::Kind::kObject) {
          const auto it = obj->object->fields.find(instr.s);
          def(instr.dst) = (it != obj->object->fields.end()) ? it->second : make_unknown(origin);
        } else if (obj->kind == Node::Kind::kResp || obj->kind == Node::Kind::kRespField) {
          // Field access on JSON data behaves like json_get.
          auto n = std::make_shared<Node>();
          n->kind = Node::Kind::kRespField;
          n->site = obj->site;
          n->text = obj->kind == Node::Kind::kResp ? instr.s : obj->text + "." + instr.s;
          n->origin = origin;
          n->from = obj;
          const auto site = sites_.find(obj->site);
          if (site != sites_.end()) site->second.response_paths.push_back(n->text);
          def(instr.dst) = std::move(n);
        } else {
          def(instr.dst) = make_unknown(origin);
        }
        break;
      }
      case OpCode::kPutField: {
        const ValuePtr obj = reg(instr.a);
        if (obj->kind == Node::Kind::kObject) obj->object->fields[instr.s] = reg(instr.b);
        break;
      }
      case OpCode::kInvoke: {
        std::vector<ValuePtr> call_args;
        call_args.reserve(instr.args.size());
        for (Reg r : instr.args) call_args.push_back(reg(r));
        def(instr.dst) = call_ref(instr.s, std::move(call_args), depth, stack, origin);
        break;
      }
      case OpCode::kIntentPut: {
        if (!options_.intent_support) break;
        const ValuePtr value = reg(instr.a);
        const auto it = intent_map_.find(instr.s);
        if (it == intent_map_.end() || !values_equal(it->second, value)) {
          intent_map_[instr.s] = value;
          intent_changed_ = true;
        }
        break;
      }
      case OpCode::kIntentGet: {
        if (!options_.intent_support) {
          def(instr.dst) = make_unknown(origin);
          break;
        }
        const auto it = intent_map_.find(instr.s);
        def(instr.dst) = (it != intent_map_.end()) ? it->second : make_unknown(origin);
        break;
      }
      case OpCode::kRxMap: {
        if (!options_.rx_support) {
          def(instr.dst) = make_unknown(origin);
          break;
        }
        def(instr.dst) = call_ref(instr.s, {reg(instr.a)}, depth, stack, origin);
        break;
      }
      case OpCode::kRxFlatMap: {
        if (!options_.rx_support) {
          def(instr.dst) = make_unknown(origin);
          break;
        }
        def(instr.dst) =
            call_ref(instr.s, {rx_element_of(reg(instr.a), origin)}, depth, stack, origin);
        break;
      }
      case OpCode::kRxDefer: {
        if (!options_.rx_support) {
          def(instr.dst) = make_unknown(origin);
          break;
        }
        def(instr.dst) = call_ref(instr.s, {}, depth, stack, origin);
        break;
      }
      case OpCode::kHttpNew:
        def(instr.dst) = make_object("HttpRequest", /*is_builder=*/true, origin);
        break;
      case OpCode::kHttpMethod:
      case OpCode::kHttpUrl:
      case OpCode::kHttpQuery:
      case OpCode::kHttpHeader:
      case OpCode::kHttpBody: {
        const ValuePtr obj = reg(instr.a);
        if (obj->kind != Node::Kind::kObject || !obj->object->builder) {
          log_warn("analysis") << method.name << ":" << pc
                               << ": HTTP builder op on a non-builder value";
          break;
        }
        BuilderData& builder = *obj->object->builder;
        builder.op_origins.push_back(origin);
        switch (instr.op) {
          case OpCode::kHttpMethod:
            builder.verb = instr.s;
            break;
          case OpCode::kHttpUrl:
            builder.url = reg(instr.b);
            break;
          case OpCode::kHttpQuery:
            builder.query.push_back({instr.s, reg(instr.b), guard_depth > 0, origin});
            break;
          case OpCode::kHttpHeader:
            builder.headers.push_back({instr.s, reg(instr.b), guard_depth > 0, origin});
            break;
          case OpCode::kHttpBody:
            builder.body.push_back({instr.s, reg(instr.b), guard_depth > 0, origin});
            break;
          default:
            break;
        }
        break;
      }
      case OpCode::kHttpSend: {
        const ValuePtr obj = reg(instr.a);
        if (obj->kind != Node::Kind::kObject || !obj->object->builder) {
          log_warn("analysis") << method.name << ":" << pc << ": send on a non-builder value";
          def(instr.dst) = make_unknown(origin);
          break;
        }
        record_send(method, pc, instr, *obj->object);
        auto n = std::make_shared<Node>();
        n->kind = Node::Kind::kResp;
        n->site = origin;
        n->origin = origin;
        def(instr.dst) = std::move(n);
        break;
      }
      case OpCode::kJsonGet: {
        const ValuePtr src = reg(instr.a);
        if (src->kind == Node::Kind::kResp || src->kind == Node::Kind::kRespField) {
          auto n = std::make_shared<Node>();
          n->kind = Node::Kind::kRespField;
          n->site = src->site;
          n->text = src->kind == Node::Kind::kResp ? instr.s : src->text + "." + instr.s;
          n->origin = origin;
          n->from = src;
          const auto site = sites_.find(src->site);
          if (site != sites_.end()) site->second.response_paths.push_back(n->text);
          def(instr.dst) = std::move(n);
        } else {
          def(instr.dst) = make_unknown(origin);
        }
        break;
      }
      case OpCode::kIfEnv:
        ++guard_depth;
        break;
      case OpCode::kEndIf:
        if (guard_depth > 0) --guard_depth;
        break;
      case OpCode::kFormat: {
        // String.format: a concat of the literal pieces with the argument
        // values in placeholder positions.
        auto n = std::make_shared<Node>();
        n->kind = Node::Kind::kConcat;
        n->origin = origin;
        std::size_t arg_index = 0;
        std::string literal;
        for (std::size_t i = 0; i < instr.s.size(); ++i) {
          if (instr.s[i] == '%' && i + 1 < instr.s.size() && instr.s[i + 1] == 's') {
            if (!literal.empty()) {
              n->parts.push_back(make_const(literal, origin));
              literal.clear();
            }
            if (arg_index < instr.args.size()) {
              n->parts.push_back(reg(instr.args[arg_index++]));
            } else {
              n->parts.push_back(make_unknown(origin));
            }
            ++i;
          } else {
            literal += instr.s[i];
          }
        }
        if (!literal.empty()) n->parts.push_back(make_const(literal, origin));
        def(instr.dst) = std::move(n);
        break;
      }
      case OpCode::kReturn: {
        const ValuePtr v = reg(instr.a);
        if (!return_value) {
          return_value = v;
        } else if (!values_equal(return_value, v)) {
          return_value = make_unknown(origin);
        }
        break;
      }
    }
  }

  stack.pop_back();
  return return_value ? return_value : make_unknown(entry_origin);
}

void Interpreter::merge_builder_field(std::vector<BuilderField>& existing,
                                      const std::vector<BuilderField>& incoming) {
  // Fields seen in only one visiting context become optional; fields whose
  // values differ across contexts degrade to Unknown (a run-time hole).
  for (const BuilderField& in : incoming) {
    auto it = std::find_if(existing.begin(), existing.end(),
                           [&](const BuilderField& e) { return e.name == in.name; });
    if (it == existing.end()) {
      BuilderField added = in;
      added.optional = true;
      existing.push_back(std::move(added));
      continue;
    }
    it->optional = it->optional || in.optional;
    if (!values_equal(it->value, in.value)) it->value = make_unknown(in.origin);
  }
  for (BuilderField& e : existing) {
    const bool in_incoming = std::any_of(incoming.begin(), incoming.end(),
                                         [&](const BuilderField& in) { return in.name == e.name; });
    if (!in_incoming) e.optional = true;
  }
}

void Interpreter::record_send(const Method& method, std::size_t pc, const Instruction& instr,
                              const ObjectData& builder_obj) {
  const Origin key = here(method, pc);
  const BuilderData& incoming = *builder_obj.builder;

  auto it = sites_.find(key);
  if (it == sites_.end()) {
    SendSite site;
    site.label = instr.s;
    site.body_kind = instr.s2;
    site.builder = incoming;
    it = sites_.emplace(key, std::move(site)).first;
    site_order_.push_back(key);
  } else {
    SendSite& site = it->second;
    if (!values_equal(site.builder.url, incoming.url)) {
      site.builder.url = make_unknown(key);
    }
    merge_builder_field(site.builder.query, incoming.query);
    merge_builder_field(site.builder.headers, incoming.headers);
    merge_builder_field(site.builder.body, incoming.body);
  }

  // Backward slice: every instruction whose value contributed to the request.
  SendSite& site = it->second;
  site.slice.push_back(key);
  site.slice.insert(site.slice.end(), incoming.op_origins.begin(), incoming.op_origins.end());
  collect_origins(incoming.url, site.slice);
  for (const auto* group : {&incoming.query, &incoming.headers, &incoming.body}) {
    for (const BuilderField& f : *group) collect_origins(f.value, site.slice);
  }
}

// --- signature construction -------------------------------------------------------------

struct PendingEdge {
  Origin pred_site;
  const std::string* path;  // the RespField node's path (the nodes outlive finish)
  Origin succ_site;
  std::string hole;
};

class SignatureBuilder {
 public:
  SignatureBuilder(const Program& program, AnalysisReport& report)
      : report_(report), env_prefix_("env." + program.app + ".") {}

  // Starts lowering the values of one send site: its run-time holes are
  // named after the site's key.
  void begin_site(const Origin& site) {
    site_ = site;
    digest_input_.clear();
    append_site_key(digest_input_, site);
    runtime_prefix_ = "rt.";
    append_short_digest(runtime_prefix_, digest_input_, 8);
    runtime_prefix_ += '.';
  }

  FieldTemplate to_template(const ValuePtr& value) {
    FieldTemplate t;
    append_value(t, value);
    return t;
  }

  // Split a URL template into scheme/host/path parts. Expects the scheme
  // separator "://" to appear inside a literal segment.
  static void split_url(const FieldTemplate& url, FieldTemplate& scheme, FieldTemplate& host,
                        FieldTemplate& path) {
    enum class Part { kScheme, kHost, kPath } part = Part::kScheme;
    for (const auto& seg : url.segments()) {
      if (seg.is_hole) {
        switch (part) {
          case Part::kScheme: throw ParseError("analysis: URL scheme must be a literal");
          case Part::kHost: host.append_hole(seg.text, seg.shape); break;
          case Part::kPath: path.append_hole(seg.text, seg.shape); break;
        }
        continue;
      }
      std::string_view text = seg.text;
      if (part == Part::kScheme) {
        const std::size_t sep = text.find("://");
        if (sep == std::string_view::npos) {
          throw ParseError("analysis: URL literal lacks '://': " + seg.text);
        }
        scheme.append_literal(text.substr(0, sep));
        text = text.substr(sep + 3);
        part = Part::kHost;
      }
      if (part == Part::kHost) {
        const std::size_t slash = text.find('/');
        if (slash == std::string_view::npos) {
          host.append_literal(text);
          continue;
        }
        host.append_literal(text.substr(0, slash));
        text = text.substr(slash);
        part = Part::kPath;
      }
      path.append_literal(text);
    }
    if (path.segments().empty()) path.append_literal("/");
  }

  const std::vector<PendingEdge>& pending_edges() const { return pending_edges_; }

 private:
  void append_value(FieldTemplate& t, const ValuePtr& value) {
    if (!value) {
      t.append_hole(fresh_runtime_hole());
      return;
    }
    switch (value->kind) {
      case Node::Kind::kConst:
        t.append_literal(value->text);
        break;
      case Node::Kind::kEnv:
        t.append_hole(env_prefix_ + value->text);
        break;
      case Node::Kind::kConcat:
        for (const ValuePtr& part : value->parts) append_value(t, part);
        break;
      case Node::Kind::kRespField: {
        // "dep." + short_digest("<site key>|<path>", 10)
        digest_input_.clear();
        append_site_key(digest_input_, value->site);
        digest_input_ += '|';
        digest_input_ += value->text;
        std::string hole = "dep.";
        append_short_digest(hole, digest_input_, 10);
        t.append_hole(hole);
        pending_edges_.push_back({value->site, &value->text, site_, std::move(hole)});
        break;
      }
      case Node::Kind::kResp:
      case Node::Kind::kObject:
      case Node::Kind::kUnknown:
        t.append_hole(fresh_runtime_hole());
        break;
    }
  }

  std::string fresh_runtime_hole() {
    ++report_.unresolved_values;
    return runtime_prefix_ + std::to_string(runtime_counter_++);
  }

  AnalysisReport& report_;
  const std::string env_prefix_;  // "env.<app>."
  Origin site_;                   // the site being lowered
  std::string runtime_prefix_;    // "rt.<site digest>."
  std::string digest_input_;      // reused buffer for hole-name digests
  std::vector<PendingEdge> pending_edges_;
  std::size_t runtime_counter_ = 0;
};

AnalysisResult Interpreter::finish() {
  AnalysisResult result;
  SignatureBuilder builder(program_, report_);
  std::map<Origin, const TransactionSignature*, OriginLess> site_to_sig;

  for (const Origin& key : site_order_) {
    SendSite& site = sites_.find(key)->second;
    builder.begin_site(key);
    TransactionSignature sig;
    sig.app = program_.app;
    sig.label = site.label;
    sig.request.method = site.builder.verb;

    const FieldTemplate url = builder.to_template(site.builder.url);
    SignatureBuilder::split_url(url, sig.request.scheme, sig.request.host, sig.request.path);

    const auto lower_fields = [&](const std::vector<BuilderField>& fields,
                                  FieldLocation location) {
      std::vector<RequestField> out;
      out.reserve(fields.size());
      for (const BuilderField& f : fields) {
        out.push_back({location, f.name, builder.to_template(f.value), f.optional});
      }
      return out;
    };
    sig.request.query = lower_fields(site.builder.query, FieldLocation::kQuery);
    sig.request.headers = lower_fields(site.builder.headers, FieldLocation::kHeader);
    sig.request.body = lower_fields(site.builder.body, FieldLocation::kBody);
    sig.request.body_kind = sig.request.body.empty() ? BodyKind::kNone : BodyKind::kForm;

    sig.response.body_kind =
        site.body_kind == "opaque" ? ResponseBodyKind::kOpaque : ResponseBodyKind::kJson;
    // Leaf paths only: drop paths that are proper prefixes of other paths. In
    // sorted order the paths a path prefixes follow it directly, so checking
    // the next one suffices.
    std::vector<std::string>& paths = site.response_paths;
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
    for (auto it = paths.begin(); it != paths.end(); ++it) {
      const auto next = std::next(it);
      if (next == paths.end() || !next->starts_with(*it)) sig.response.fields.push_back({*it, ".*"});
    }

    sig.finalize();
    // Two send sites with identical behaviour collapse into one signature.
    const TransactionSignature* stored = result.signatures.find(sig.id);
    if (stored == nullptr) stored = &result.signatures.add(std::move(sig));
    // In SliceEntry order, so every entry is inserted at the set's end.
    std::sort(site.slice.begin(), site.slice.end(), [](const Origin& a, const Origin& b) {
      if (a.method == b.method) return a.pc < b.pc;
      return *a.method < *b.method;
    });
    site.slice.erase(std::unique(site.slice.begin(), site.slice.end()), site.slice.end());
    std::set<SliceEntry>& slice = result.slices[stored->label];
    for (const Origin& o : site.slice) slice.insert(slice.end(), SliceEntry{*o.method, o.pc});
    site_to_sig.emplace(key, stored);
  }

  // (pred, succ, hole, path): the short hole name tells most keys apart first.
  std::set<std::tuple<const TransactionSignature*, const TransactionSignature*, std::string_view,
                      std::string_view>>
      edge_dedup;
  for (const PendingEdge& pe : builder.pending_edges()) {
    const auto pred = site_to_sig.find(pe.pred_site);
    const auto succ = site_to_sig.find(pe.succ_site);
    if (pred == site_to_sig.end() || succ == site_to_sig.end()) continue;
    if (!edge_dedup.emplace(pred->second, succ->second, pe.hole, *pe.path).second) continue;
    result.signatures.add_edge({pred->second->id, *pe.path, succ->second->id, pe.hole});
  }

  report_.unique_signatures = result.signatures.size();
  report_.dependency_edges = result.signatures.edges().size();
  result.report = report_;
  return result;
}

}  // namespace

AnalysisResult analyze(const Program& program, const AnalysisOptions& options) {
  Interpreter interpreter(program, options);
  interpreter.run();
  return interpreter.finish();
}

AnalysisResult analyze_sapk(const std::vector<std::uint8_t>& sapk,
                            const AnalysisOptions& options) {
  return analyze(Program::deserialize(sapk), options);
}

}  // namespace appx::analysis
