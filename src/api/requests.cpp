// The request schema (requests.hpp): one table row per request field.
//
// A row names the field's wire key, its tpdfc spelling and its slot, a
// pointer to the request member it fills.  The slot's type fixes the
// JSON type, the rule (with the row's integer bounds) and the read and
// write code, so fromJson, toJson, fieldsOf and argvToJson all walk the
// same rows.
#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <type_traits>
#include <utility>

#include "api/requests.hpp"
#include "support/error.hpp"

namespace tpdf::api {

namespace {

using support::json::Value;

constexpr std::int64_t kNoMax = std::numeric_limits<std::int64_t>::max();

/// Wire command names, in Request alternative order.
constexpr std::string_view kCommands[] = {"analyze",  "schedule", "buffers",
                                          "map",      "simulate", "sweep",
                                          "batch",    "verify"};
static_assert(std::size(kCommands) == std::variant_size_v<Request>);

/// sweep's analysis-only switch: both per-point metrics at once.
struct Metrics {
  bool* buffers;
  bool* period;
};

using Slot = std::variant<std::int64_t*, std::size_t*, bool*, std::string*,
                          std::vector<std::string>*, std::vector<double>*,
                          symbolic::Environment*, csdf::SchedulePolicy*,
                          std::vector<core::SweepAxis>*, Metrics>;

template <typename R>
struct Field {
  /// Wire key; "limits.timeout-ms" is a member of the "limits" object.
  const char* key;
  /// tpdfc spelling (FieldInfo::cli).
  const char* cli;
  Slot (*slot)(R&);
  /// Bounds of an integer slot.
  std::int64_t lo = 0;
  std::int64_t hi = kNoMax;
};

template <typename... F>
struct Overload : F... {
  using F::operator()...;
};

std::string typeOf(const Slot& slot) {
  constexpr const char* kTypes[] = {
      "integer",      "integer", "boolean", "string", "string array",
      "number array", "object",  "string",  "object", "boolean"};
  return kTypes[slot.index()];
}

std::string ruleOf(const Slot& slot, std::int64_t lo, std::int64_t hi) {
  switch (slot.index()) {
    case 0:
    case 1:
      if (hi != kNoMax) {
        return "an integer in " + std::to_string(lo) + ".." +
               std::to_string(hi);
      }
      return lo == 0 ? "a non-negative integer" : "a positive integer";
    case 3: return "a string";
    case 4: return "an array of non-empty strings";
    case 5: return "an array of positive numbers";
    case 6: return "an object of parameter -> positive integer";
    case 7: return "\"eager\" or \"min-occupancy\"";
    case 8:
      return "an object of parameter -> \"lo:hi[:step]\" or \"v1,v2,...\"";
    default: return "a boolean";
  }
}

/// Stores `v` through `slot`; false when `v` breaks the slot's rule
/// (`detail` then names the offending entry, when there is one).
bool read(const Value& v, const Slot& slot, std::int64_t lo, std::int64_t hi,
          std::string& detail) {
  return std::visit(
      Overload{
          [&]<typename T>(T* n)
            requires std::is_same_v<T, std::int64_t> ||
                     std::is_same_v<T, std::size_t>
          {
            if (!v.isInt() || v.asInt() < lo || v.asInt() > hi) return false;
            *n = static_cast<T>(v.asInt());
            return true;
          },
          [&](bool* b) { return v.isBool() && (*b = v.asBool(), true); },
          [&](std::string* s) {
            return v.isString() && (*s = v.asString(), true);
          },
          [&](std::vector<std::string>* list) {
            if (!v.isArray()) return false;
            for (const Value& item : v.items()) {
              if (!item.isString() || item.asString().empty()) return false;
              list->push_back(item.asString());
            }
            return true;
          },
          [&](std::vector<double>* list) {
            if (!v.isArray()) return false;
            for (const Value& x : v.items()) {
              const double d = x.isInt()      ? static_cast<double>(x.asInt())
                               : x.isDouble() ? x.asDouble()
                                              : 0.0;
              if (!(d > 0.0)) return false;
              list->push_back(d);
            }
            return true;
          },
          [&](symbolic::Environment* env) {
            if (!v.isObject()) return false;
            for (const auto& [name, x] : v.members()) {
              if (!x.isInt() || x.asInt() <= 0) {
                detail = "parameter '" + name + "' is " + x.dump();
                return false;
              }
              env->bind(name, x.asInt());
            }
            return true;
          },
          [&](csdf::SchedulePolicy* p) {
            const std::string s = v.isString() ? v.asString() : "";
            if (s != "eager" && s != "min-occupancy") return false;
            *p = s == "eager" ? csdf::SchedulePolicy::Eager
                              : csdf::SchedulePolicy::MinOccupancy;
            return true;
          },
          [&](std::vector<core::SweepAxis>* axes) {
            if (!v.isObject()) return false;
            for (const auto& [param, spec] : v.members()) {
              if (!spec.isString()) {
                detail = "axis '" + param + "' is " + spec.dump();
                return false;
              }
              try {
                axes->push_back(core::SweepAxis::parse(param, spec.asString()));
              } catch (const support::Error& e) {
                detail = e.what();
                return false;
              }
            }
            return true;
          },
          [&](Metrics m) {
            return v.isBool() && (*m.buffers = *m.period = !v.asBool(), true);
          }},
      slot);
}

Value write(const Slot& slot) {
  return std::visit(
      Overload{
          [](auto* scalar) { return Value(*scalar); },
          []<typename T>(std::vector<T>* list) {
            Value out = Value::array();
            for (const T& item : *list) out.push(item);
            return out;
          },
          [](symbolic::Environment* env) {
            Value out = Value::object();
            for (const auto& [name, x] : env->bindings()) out.set(name, x);
            return out;
          },
          [](csdf::SchedulePolicy* p) {
            return Value(*p == csdf::SchedulePolicy::Eager ? "eager"
                                                           : "min-occupancy");
          },
          [](std::vector<core::SweepAxis>* axes) {
            // Values as a list; an empty axis as the empty range "1:0".
            Value out = Value::object();
            for (const core::SweepAxis& axis : *axes) {
              std::string values = axis.values.empty() ? "1:0" : "";
              for (const std::int64_t x : axis.values) {
                values += (values.empty() ? "" : ",") + std::to_string(x);
              }
              out.set(axis.param, std::move(values));
            }
            return out;
          },
          [](Metrics m) { return Value(!*m.buffers && !*m.period); }},
      slot);
}

// ---- the tables ----------------------------------------------------------

// The simulator caps a run at 1'000'000 firings, so more iterations can
// never complete (and q * N would overflow the per-actor limit).
constexpr std::int64_t kMaxIterations = 1'000'000;

/// A command's rows besides the bindings and limits every request has.
template <typename R>
std::vector<Field<R>> rowsOf() {
  if constexpr (std::is_same_v<R, ScheduleRequest>) {
    return {{"policy", "--policy eager|min-occupancy",
             [](auto& r) -> Slot { return &r.policy; }},
            {"buffers", "--no-buffers",
             [](auto& r) -> Slot { return &r.computeBuffers; }}};
  } else if constexpr (std::is_same_v<R, BufferRequest>) {
    return {{"policy", "", [](auto& r) -> Slot { return &r.policy; }}};
  } else if constexpr (std::is_same_v<R, MapRequest>) {
    return {{"pes", "pes=N", [](auto& r) -> Slot { return &r.pes; }, 1},
            {"platform", "--platform SPEC",
             [](auto& r) -> Slot { return &r.platform; }}};
  } else if constexpr (std::is_same_v<R, SimulateRequest>) {
    return {{"platform", "--platform SPEC",
             [](auto& r) -> Slot { return &r.platform; }},
            {"iterations", "--iterations N",
             [](auto& r) -> Slot { return &r.options.iterations; }, 1,
             kMaxIterations},
            {"max-firings", "--max-firings N",
             [](auto& r) -> Slot { return &r.options.maxFirings; }},
            {"trace", "--trace",
             [](auto& r) -> Slot { return &r.options.recordTrace; }}};
  } else if constexpr (std::is_same_v<R, SweepRequest>) {
    return {{"axes", "name=lo:hi[:step] | name=v1,v2,...",
             [](auto& r) -> Slot { return &r.axes; }},
            {"pes", "pes=N", [](auto& r) -> Slot { return &r.pes; }, 1},
            {"platform", "--platform SPEC",
             [](auto& r) -> Slot { return &r.platform; }},
            {"link-bandwidths", "--link-bw v1,v2,...",
             [](auto& r) -> Slot { return &r.linkBandwidths; }},
            {"topologies", "--topologies s1;s2;...",
             [](auto& r) -> Slot { return &r.topologies; }},
            {"max-points", "--cap N",
             [](auto& r) -> Slot { return &r.maxPoints; }, 1},
            {"jobs", "--jobs N", [](auto& r) -> Slot { return &r.jobs; }},
            {"analysis-only", "--analysis-only", [](auto& r) -> Slot {
               return Metrics{&r.computeBuffers, &r.computePeriod};
             }}};
  } else if constexpr (std::is_same_v<R, BatchRequest>) {
    return {{"directory", "<dir>",
             [](auto& r) -> Slot { return &r.directory; }},
            {"files", "", [](auto& r) -> Slot { return &r.files; }},
            {"jobs", "--jobs N", [](auto& r) -> Slot { return &r.jobs; }}};
  } else if constexpr (std::is_same_v<R, VerifyRequest>) {
    return {{"directory", "<dir>",
             [](auto& r) -> Slot { return &r.directory; }},
            {"files", "<file.tpdf>", [](auto& r) -> Slot { return &r.files; }},
            {"iterations", "--iterations N",
             [](auto& r) -> Slot { return &r.options.iterations; }, 1,
             kMaxIterations},
            {"negative-selftest", "--negative-selftest", [](auto& r) -> Slot {
               return &r.options.tamperBufferCapacities;
             }},
            {"fault-sweep", "--fault-sweep",
             [](auto& r) -> Slot { return &r.faultSweep; }},
            {"fault-cap", "--fault-cap N",
             [](auto& r) -> Slot { return &r.faultSweepLimit; }}};
  } else {
    return {};  // analyze
  }
}

/// A command's table: its bindings, its own rows, its resource limits.
template <typename R>
const std::vector<Field<R>>& table() {
  static const std::vector<Field<R>> rows = [] {
    std::vector<Field<R>> all{{"bindings", "name=value", [](R& r) -> Slot {
                                 if constexpr (requires { r.fixed; }) {
                                   return &r.fixed;  // sweep
                                 } else {
                                   return &r.bindings;
                                 }
                               }}};
    for (const Field<R>& f : rowsOf<R>()) all.push_back(f);
    all.push_back({"limits.timeout-ms", "--timeout-ms N",
                   [](R& r) -> Slot { return &r.limits.timeoutMs; }});
    all.push_back({"limits.max-work", "--max-work N",
                   [](R& r) -> Slot { return &r.limits.maxWork; }});
    return all;
  }();
  return rows;
}

template <typename R>
const Field<R>* rowFor(std::string_view key) {
  for (const Field<R>& f : table<R>()) {
    if (key == f.key) return &f;
  }
  return nullptr;
}

/// Calls fn(command, R{}) for every request type, in alternative order,
/// until it returns true.
template <typename Fn>
void forEachType(Fn&& fn) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (fn(kCommands[I], std::variant_alternative_t<I, Request>{}) || ...);
  }(std::make_index_sequence<std::variant_size_v<Request>>());
}

/// Reads one member; an object keyed by a row group ("limits") spreads
/// into its "limits.*" rows.  Failures name the key on the wire and the
/// spelling's first word on the command line (`cli`).
template <typename R>
void readMember(const std::string& key, const Value& value, R& r,
                Response& bad, bool cli) {
  const std::string prefix = key + ".";
  const auto& rows = table<R>();
  if (std::any_of(rows.begin(), rows.end(), [&](const Field<R>& f) {
        return std::string_view(f.key).starts_with(prefix);
      })) {
    if (!value.isObject()) {
      bad.fail(Status::InvalidRequest, "invalid-request",
               "\"" + key + "\" must be an object");
      return;
    }
    for (const auto& [sub, v] : value.members()) {
      readMember(prefix + sub, v, r, bad, cli);
    }
    return;
  }
  const Field<R>* f = rowFor<R>(key);
  if (f == nullptr) {
    bad.fail(Status::InvalidRequest, "invalid-request",
             "unknown key \"" + key + "\" for command \"" +
                 std::string(kCommands[Request(R{}).index()]) + "\"");
    return;
  }
  const Slot slot = f->slot(r);
  std::string detail;
  if (!read(value, slot, f->lo, f->hi, detail)) {
    const std::string spelling = f->cli;
    bad.fail(Status::InvalidRequest, "invalid-request",
             (cli ? spelling.substr(0, spelling.find(' '))
                  : "\"" + key + "\"") +
                 " must be " + ruleOf(slot, f->lo, f->hi) +
                 (detail.empty() ? "" : " (" + detail + ")"));
  }
}

/// Sets `key` on `doc`; "group.key" lands in the "group" object.
void setMember(Value& doc, const std::string& key, Value value) {
  const std::size_t dot = key.find('.');
  if (dot == std::string::npos) {
    doc.set(key, std::move(value));
    return;
  }
  const std::string group = key.substr(0, dot);
  const Value* existing = doc.find(group);
  Value sub = existing != nullptr ? *existing : Value::object();
  sub.set(key.substr(dot + 1), std::move(value));
  doc.set(group, std::move(sub));
}

}  // namespace

std::optional<Request> requestFor(std::string_view command) {
  std::optional<Request> out;
  forEachType([&](std::string_view name, auto prototype) {
    if (name == command) out.emplace(std::move(prototype));
    return out.has_value();
  });
  return out;
}

void fromJson(const Value& doc, Request& request, Response& bad,
              std::span<const std::string_view> passThrough) {
  if (!doc.isObject()) {
    bad.fail(Status::InvalidRequest, "invalid-request",
             "request must be a JSON object");
    return;
  }
  std::visit(
      [&](auto& r) {
        for (const auto& [key, value] : doc.members()) {
          if (key != "command" && std::find(passThrough.begin(),
                                            passThrough.end(),
                                            key) == passThrough.end()) {
            readMember(key, value, r, bad, false);
          }
        }
      },
      request);
}

Value toJson(const Request& request) {
  Value doc = Value::object();
  doc.set("command", kCommands[request.index()]);
  std::visit(
      [&](const auto& r) {
        using R = std::decay_t<decltype(r)>;
        // A slot points into its request; writing only reads through it.
        for (const Field<R>& f : table<R>()) {
          setMember(doc, f.key, write(f.slot(const_cast<R&>(r))));
        }
      },
      request);
  return doc;
}

std::vector<FieldInfo> fieldsOf(std::string_view command) {
  std::vector<FieldInfo> out;
  forEachType([&](std::string_view name, auto prototype) {
    if (name != command) return false;
    for (const auto& f : table<decltype(prototype)>()) {
      const Slot slot = f.slot(prototype);
      out.push_back({f.key, f.cli, typeOf(slot), write(slot)});
    }
    return true;
  });
  return out;
}

// ---- tpdfc's argv --------------------------------------------------------

namespace {

bool parseInt(const std::string& text, std::int64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoll(text.c_str(), &end, 10);
  return errno != ERANGE && end != nullptr && *end == '\0';
}

/// The first row, in any table, spelled `flag` on the command line.
std::optional<FieldInfo> flagInfo(std::string_view flag) {
  for (const std::string_view command : kCommands) {
    for (FieldInfo& f : fieldsOf(command)) {
      if (std::string_view(f.cli).substr(0, f.cli.find(' ')) == flag) {
        return std::move(f);
      }
    }
  }
  return std::nullopt;
}

/// A flag's argv text as a value of its row's type.  Integer flags take a
/// positive integer (leaving the flag out gives the default); number
/// lists split at ',' and spec lists at ';' (specs contain commas).
bool flagValue(const FieldInfo& f, const std::string& flag,
               const std::string& text, Value& out, std::string& error) {
  std::int64_t n = 0;
  if (f.type == "integer") {
    if (!parseInt(text, n) || n <= 0) {
      error = flag + " must be a positive integer";
      return false;
    }
    out = n;
    return true;
  }
  if (f.type != "number array" && f.type != "string array") {
    out = text;
    return true;
  }
  out = Value::array();
  const char sep = f.type == "number array" ? ',' : ';';
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t end = std::min(text.find(sep, pos), text.size());
    const std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    if (sep == ';') {
      out.push(item);
      continue;
    }
    char* stop = nullptr;
    const double x = std::strtod(item.c_str(), &stop);
    if (item.empty() || *stop != '\0') {
      error = flag + " values must be numbers, got '" + item + "'";
      return false;
    }
    out.push(x);
  }
  return true;
}

}  // namespace

bool flagTakesValue(std::string_view flag) {
  const std::optional<FieldInfo> f = flagInfo(flag);
  return f.has_value() && f->cli.find(' ') != std::string::npos;
}

bool argvToJson(std::string_view command, const std::string& input,
                const std::vector<std::string>& args, Value& doc,
                std::string& error) {
  doc = Value::object();
  Response bad;
  // Checks `value` by the first row keyed `key` of a command `pick`
  // accepts; false when there is none.
  const auto check = [&](const std::string& key, const Value& value,
                         auto pick) {
    bool found = false;
    forEachType([&](std::string_view name, auto r) {
      found = pick(name) && rowFor<decltype(r)>(key) != nullptr;
      if (found) readMember(key, value, r, bad, true);
      return found;
    });
    return found;
  };
  // The command's own row checks and keeps a value; a flag of another
  // command is checked by that command's row and dropped (bindings
  // aside: a command without a table ignores them).
  const auto put = [&](const std::string& key, Value value) {
    if (check(key, value, [&](std::string_view c) { return c == command; })) {
      setMember(doc, key, std::move(value));
    } else if (key != "bindings") {
      check(key, value, [](std::string_view) { return true; });
    }
  };

  if (command == "batch") put("directory", input);
  if (command == "verify") {
    // A single .tpdf replay file stands in for a corpus directory.
    if (std::filesystem::is_directory(input)) {
      put("directory", input);
    } else {
      put("files", Value::array().push(input));
    }
  }
  Value bindings = Value::object();
  Value axes = Value::object();
  for (std::size_t i = 0; i < args.size() && bad.ok(); ++i) {
    const std::string& arg = args[i];
    if (arg.starts_with("--")) {
      const std::optional<FieldInfo> f = flagInfo(arg);
      Value value;
      if (!f.has_value()) {
        error = "unknown flag '" + arg + "'";
        return false;
      }
      if (f->cli.find(' ') == std::string::npos) {
        value = !f->defaultValue.asBool();  // a switch flips its default
      } else if (i + 1 == args.size()) {
        error = arg + " needs a value";
        return false;
      } else if (!flagValue(*f, arg, args[++i], value, error)) {
        return false;
      }
      put(f->key, std::move(value));
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      error = "unexpected argument '" + arg + "'";
      return false;
    }
    const std::string name = arg.substr(0, eq);
    const std::string spec = arg.substr(eq + 1);
    std::int64_t value = 0;
    // Sweep axes: a value with ':' (range) or ',' (list) names a swept
    // parameter; a plain integer stays a fixed binding.  `pes` is the
    // platform width, not a graph parameter — never an axis.
    if (!name.empty() && command == "sweep" &&
        spec.find_first_of(":,") != std::string::npos) {
      if (name == "pes") {
        error = "pes cannot be swept (it is the platform width); use pes=N";
        return false;
      }
      if (axes.find(name) != nullptr) {
        error = "parameter '" + name + "' is swept twice";
        return false;
      }
      axes.set(name, spec);
    } else if (name.empty() || !parseInt(spec, value)) {
      error = "malformed name=value pair '" + arg + "'";
      return false;
    } else if (name == "pes") {
      put("pes", value);
    } else {
      bindings.set(name, value);
    }
  }
  if (bindings.size() != 0) put("bindings", std::move(bindings));
  if (axes.size() != 0) put("axes", std::move(axes));
  error = bad.firstError();
  return bad.ok();
}

}  // namespace tpdf::api
