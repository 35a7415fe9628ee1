#include "analyzer.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "lexer.hpp"
#include "scope.hpp"

namespace hcep::lint {
namespace {

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The identifier heuristic for "this double claims to be a physical
/// quantity": exact unit words, or unit-word / unit-symbol suffixes.
bool names_physical_unit(const std::string& name) {
  static const std::vector<std::string> kExact = {
      "energy", "power",    "freq",    "frequency", "joules",
      "watts",  "hertz",    "latency", "deadline",  "sojourn"};
  static const std::vector<std::string> kSuffix = {
      "_energy", "_power", "_freq",    "_frequency", "_joules",
      "_watts",  "_hertz", "_hz",      "_j",         "_w",
      "_kwh",    "_mhz",   "_ghz",     "_latency",   "_deadline",
      "_sojourn"};
  const std::string l = lower(name);
  for (const auto& e : kExact)
    if (l == e) return true;
  for (const auto& s : kSuffix)
    if (l.size() > s.size() && ends_with(l, s)) return true;
  return false;
}

/// Control-plane signal names that denote power/energy without naming
/// the physical unit outright.
bool names_control_signal(const std::string& name) {
  static const std::vector<std::string> kExact = {"cap", "budget", "draw",
                                                  "savings", "penalty"};
  static const std::vector<std::string> kSuffix = {
      "_cap", "_budget", "_draw", "_savings", "_penalty", "_floor"};
  const std::string l = lower(name);
  for (const auto& e : kExact)
    if (l == e) return true;
  for (const auto& s : kSuffix)
    if (l.size() > s.size() && ends_with(l, s)) return true;
  return false;
}

/// Parameter names that legitimately stay naked doubles on a
/// Quantity-typed signature: dimensionless ratios, probabilities,
/// shape/scale parameters, interpolation knobs.
bool dimensionless_param_name(const std::string& name) {
  static const std::set<std::string> kAllow = {
      "q",        "p",       "rho",         "u",         "x",
      "k",        "n",       "ratio",       "frac",      "fraction",
      "share",    "weight",  "factor",      "scale",     "alpha",
      "beta",     "gamma",   "quantile",    "percentile", "prob",
      "probability", "utilization", "load",  "tolerance", "eps",
      "epsilon",  "rel_tol", "abs_tol",     "seed",      "confidence",
      "slack",    "margin",  "multiplier",  "exponent",  "headroom"};
  const std::string l = lower(name);
  if (kAllow.count(l)) return true;
  return ends_with(l, "_ratio") || ends_with(l, "_frac") ||
         ends_with(l, "_fraction") || ends_with(l, "_share") ||
         ends_with(l, "_weight") || ends_with(l, "_factor") ||
         ends_with(l, "_scale") || ends_with(l, "_prob") ||
         ends_with(l, "_quantile") || ends_with(l, "_percentile") ||
         ends_with(l, "_utilization") || ends_with(l, "_tolerance") ||
         ends_with(l, "_headroom");
}

/// hcep::units Quantity alias names (plus the template itself).
bool quantity_type_name(const std::string& name) {
  static const std::set<std::string> kAliases = {
      "Quantity",       "Seconds",       "Joules",
      "Watts",          "Cycles",        "Hertz",
      "Bytes",          "BytesPerSecond", "Ops",
      "OpsPerSecond",   "JoulesPerOp",   "JouleSeconds",
      "JouleSecondsSquared", "Microseconds", "Milliseconds",
      "Millijoules",    "Kilojoules",    "KilowattHours",
      "Milliwatts",     "Kilowatts",     "Megahertz",
      "Gigahertz"};
  return kAliases.count(name) > 0;
}

bool is_specifier(const std::string& t) {
  static const std::set<std::string> kSpecs = {
      "static",   "virtual", "constexpr", "consteval", "constinit",
      "inline",   "friend",  "explicit",  "mutable",   "extern",
      "typename", "const"};
  return kSpecs.count(t) > 0;
}

bool punct(const Token& t, const char* s) {
  return t.kind == TokenKind::kPunct && t.text == s;
}
bool ident(const Token& t, const char* s) {
  return t.kind == TokenKind::kIdentifier && t.text == s;
}
bool is_ident(const Token& t) { return t.kind == TokenKind::kIdentifier; }

/// Index of the matching closer for the opener at `open` (handles `>>`
/// when closing angle brackets). Returns tokens.size() when unmatched.
std::size_t match_forward(const std::vector<Token>& ts, std::size_t open,
                          const char* o, const char* c) {
  int depth = 0;
  const bool angles = std::string(o) == "<";
  for (std::size_t i = open; i < ts.size(); ++i) {
    const Token& t = ts[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == o) ++depth;
    else if (t.text == c) {
      if (--depth == 0) return i;
    } else if (angles && t.text == ">>") {
      depth -= 2;
      if (depth <= 0) return i;
    } else if (angles && (t.text == ";" || t.text == "{")) {
      return ts.size();  // not a template argument list after all
    }
  }
  return ts.size();
}

/// The analyzer for one file: tokens + scopes + path flags in, facts out.
class FileAnalyzer {
 public:
  FileAnalyzer(const std::string& source, const std::string& relpath)
      : path_(relpath), lr_(lex(source)), ts_(lr_.tokens),
        scopes_(track_scopes(ts_)) {}

  FileFacts run() {
    facts_.path = path_;
    collect_includes_and_markers();
    collect_container_decls();
    collect_floatish_vars();
    scan_iteration_flows();
    scan_rng_constructions();
    scan_banned_calls();
    scan_simple_header_rules();
    scan_fed_identity();
    scan_function_decls();
    collect_mutable_statics();
    finalize_member_rng();
    std::sort(facts_.findings.begin(), facts_.findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    return std::move(facts_);
  }

 private:
  void add(std::size_t line, const std::string& rule,
           const std::string& message) {
    if (suppressed(lr_, line, rule)) return;
    facts_.findings.push_back({path_, line, rule, message});
  }

  bool header() const {
    return ends_with(path_, ".hpp") || ends_with(path_, ".h");
  }

  // --- includes + shard markers ---------------------------------------------

  void collect_includes_and_markers() {
    for (const Token& t : ts_) {
      if (t.kind == TokenKind::kDirective) {
        const std::size_t q1 = t.text.find('"');
        if (t.text.find("include") != std::string::npos &&
            q1 != std::string::npos) {
          const std::size_t q2 = t.text.find('"', q1 + 1);
          if (q2 != std::string::npos)
            facts_.includes.push_back(t.text.substr(q1 + 1, q2 - q1 - 1));
        }
      } else if (t.kind == TokenKind::kIdentifier &&
                 t.text == "parallel_for") {
        facts_.uses_shard_markers = true;
      }
    }
  }

  // --- container declarations -----------------------------------------------

  /// `std::(unordered_)map|set<Key, ...> name` — records hash-container
  /// variables for the iteration-flow pass and fires the pointer-key /
  /// thread-id-identity / blanket unordered rules at the declaration.
  void collect_container_decls() {
    for (std::size_t i = 0; i + 3 < ts_.size(); ++i) {
      if (!ident(ts_[i], "std") || !punct(ts_[i + 1], "::")) continue;
      const std::string& c = ts_[i + 2].text;
      const bool unordered = c == "unordered_map" || c == "unordered_set" ||
                             c == "unordered_multimap" ||
                             c == "unordered_multiset";
      const bool ordered = c == "map" || c == "set" || c == "multimap" ||
                           c == "multiset";
      if ((!unordered && !ordered) || !punct(ts_[i + 3], "<")) continue;
      const std::size_t close = match_forward(ts_, i + 3, "<", ">");
      if (close >= ts_.size()) continue;
      const std::size_t line = ts_[i].line;

      // First top-level template argument = the key type.
      std::vector<const Token*> key;
      int depth = 0;
      for (std::size_t j = i + 4; j < close; ++j) {
        const Token& t = ts_[j];
        if (punct(t, "<") || punct(t, "(")) ++depth;
        if (punct(t, ">") || punct(t, ")")) --depth;
        if (punct(t, ">>")) depth -= 2;
        if (depth == 0 && punct(t, ",")) break;
        key.push_back(&t);
      }
      const bool key_is_pointer =
          !key.empty() && key.back()->kind == TokenKind::kPunct &&
          key.back()->text == "*";
      bool key_is_thread_id = false;
      for (std::size_t j = 0; j + 2 < key.size(); ++j)
        if (ident(*key[j], "thread") && punct(*key[j + 1], "::") &&
            ident(*key[j + 2], "id"))
          key_is_thread_id = true;

      if (key_is_pointer)
        add(line, "pointer-key",
            "std::" + c +
                " keyed by a pointer iterates/compares in allocation-"
                "address order, which differs every run under ASLR; key "
                "by a stable id");
      if (key_is_thread_id)
        add(line, "thread-id-identity",
            "std::" + c +
                " keyed by std::thread::id is schedule-dependent; use the "
                "pool's dense worker index");

      if (unordered) {
        if (is_deterministic_output_path(path_))
          add(line, "unordered-iteration",
              "hash-container in a deterministic report/JSON path; "
              "iteration order would break the byte-identical same-seed "
              "guarantee — use std::map or sort the keys");
        // Variable name, if this is a declaration: `> name` then a
        // declarator terminator (`;`, `=`, `{`, `,`, `)`), possibly
        // through `&`/`*`.
        std::size_t j = close + 1;
        while (j < ts_.size() && (punct(ts_[j], "&") || punct(ts_[j], "*") ||
                                  ident(ts_[j], "const")))
          ++j;
        if (j < ts_.size() && is_ident(ts_[j])) {
          const std::string& name = ts_[j].text;
          if (j + 1 < ts_.size() &&
              (punct(ts_[j + 1], ";") || punct(ts_[j + 1], "=") ||
               punct(ts_[j + 1], "{") || punct(ts_[j + 1], ",") ||
               punct(ts_[j + 1], ")")))
            unordered_vars_.insert(name);
        }
      }
    }
  }

  // --- float-ish variable table ---------------------------------------------

  /// `double x` / `float x` / `Joules x` declarations: the accumulator
  /// type table for float-order-reduction.
  void collect_floatish_vars() {
    for (std::size_t i = 0; i + 1 < ts_.size(); ++i) {
      const Token& t = ts_[i];
      if (!is_ident(t)) continue;
      if (t.text != "double" && t.text != "float" &&
          !quantity_type_name(t.text))
        continue;
      std::size_t j = i + 1;
      while (j < ts_.size() && (punct(ts_[j], "&") || punct(ts_[j], "*")))
        ++j;
      if (j >= ts_.size() || !is_ident(ts_[j])) continue;
      if (j + 1 < ts_.size() &&
          (punct(ts_[j + 1], ";") || punct(ts_[j + 1], "=") ||
           punct(ts_[j + 1], "{") || punct(ts_[j + 1], ",") ||
           punct(ts_[j + 1], ")")))
        floatish_vars_.insert(ts_[j].text);
    }
  }

  // --- iteration flows -------------------------------------------------------

  /// Range-fors (and iterator fors) whose range is a known unordered
  /// container: iteration that feeds accumulation (`+=`), container
  /// appends, or stream output is hash-order-sensitive.
  void scan_iteration_flows() {
    for (std::size_t i = 0; i + 1 < ts_.size(); ++i) {
      if (!ident(ts_[i], "for") || !punct(ts_[i + 1], "(")) continue;
      const std::size_t close = match_forward(ts_, i + 1, "(", ")");
      if (close >= ts_.size()) continue;

      bool over_unordered = false;
      // Range-for: identifiers after the top-level `:`.
      int depth = 0;
      std::size_t colon = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (punct(ts_[j], "(")) ++depth;
        if (punct(ts_[j], ")")) --depth;
        if (depth == 1 && punct(ts_[j], ":")) {
          colon = j;
          break;
        }
      }
      const std::size_t from = colon != 0 ? colon + 1 : i + 2;
      for (std::size_t j = from; j < close; ++j)
        if (is_ident(ts_[j]) && unordered_vars_.count(ts_[j].text) &&
            // iterator form: require .begin()/.end() right after the name
            (colon != 0 ||
             (j + 2 < close && punct(ts_[j + 1], ".") &&
              (ident(ts_[j + 2], "begin") || ident(ts_[j + 2], "end")))))
          over_unordered = true;
      if (!over_unordered) continue;

      // Loop body: `{...}` or a single statement.
      std::size_t body_begin = close + 1, body_end;
      if (body_begin < ts_.size() && punct(ts_[body_begin], "{")) {
        body_end = match_forward(ts_, body_begin, "{", "}");
      } else {
        body_end = body_begin;
        while (body_end < ts_.size() && !punct(ts_[body_end], ";")) ++body_end;
      }

      bool flows = false;
      for (std::size_t j = body_begin; j < body_end && j < ts_.size(); ++j) {
        const Token& t = ts_[j];
        if (punct(t, "+=") || punct(t, "<<")) flows = true;
        if (is_ident(t) &&
            (t.text == "push_back" || t.text == "emplace_back" ||
             t.text == "insert" || t.text == "append" || t.text == "emplace"))
          flows = true;
        if (punct(t, "+=") && j > 0 && is_ident(ts_[j - 1])) {
          const std::string& lhs = ts_[j - 1].text;
          if (floatish_vars_.count(lhs) || names_physical_unit(lhs))
            add(t.line, "float-order-reduction",
                "float accumulation `" + lhs +
                    " +=` inside unordered-container iteration: the sum "
                    "depends on hash order; reduce over a sorted sequence");
        }
      }
      if (flows)
        add(ts_[i].line, "unordered-iteration",
            "iteration over an unordered container feeds accumulation or "
            "export; hash order would leak into results — use std::map "
            "or sort the keys first");
    }
  }

  // --- Rng seed flow ---------------------------------------------------------

  void scan_rng_constructions() {
    if (contains(path_, "util/rng")) return;  // the generator itself
    for (std::size_t i = 0; i < ts_.size(); ++i) {
      if (!ident(ts_[i], "Rng")) continue;
      // `hcep::Rng` — same token; `class Rng` / `Rng::` / `Rng&` are not
      // constructions.
      if (i > 0 && (ident(ts_[i - 1], "class") || ident(ts_[i - 1], "struct")))
        continue;
      if (i + 1 < ts_.size() &&
          (punct(ts_[i + 1], "::") || punct(ts_[i + 1], "&") ||
           punct(ts_[i + 1], "*") || punct(ts_[i + 1], ">") ||
           punct(ts_[i + 1], ",") || punct(ts_[i + 1], ")") ||
           punct(ts_[i + 1], ";")))
        continue;
      const ScopeInfo& sc = scopes_[i];
      const std::size_t line = ts_[i].line;

      // Temporary: `Rng()` / `Rng{}` not preceded by a declarator name.
      if (i + 1 < ts_.size() &&
          (punct(ts_[i + 1], "(") || punct(ts_[i + 1], "{"))) {
        const char* open = ts_[i + 1].text == "(" ? "(" : "{";
        const char* closech = ts_[i + 1].text == "(" ? ")" : "}";
        const std::size_t close = match_forward(ts_, i + 1, open, closech);
        if (close == i + 2)
          add(line, "rng-seed-flow",
              "default-constructed hcep::Rng temporary: the seed must be "
              "threaded from a parameter or config");
        else if (close < ts_.size() && all_literal_args(i + 2, close))
          add(line, "rng-seed-flow",
              "hcep::Rng seeded with a hard-coded literal: thread the "
              "seed from a parameter or config instead");
        continue;
      }

      if (i + 1 >= ts_.size() || !is_ident(ts_[i + 1])) continue;
      const std::string& name = ts_[i + 1].text;
      const std::size_t after = i + 2;
      if (after >= ts_.size()) continue;

      if (punct(ts_[after], ";")) {
        // `Rng name;`
        if (sc.at_class_scope)
          member_rngs_.push_back({i + 1, name});
        else
          add(line, "rng-seed-flow",
              "`Rng " + name +
                  "` default-constructed without a seed; thread the seed "
                  "from a parameter or config");
        continue;
      }
      if (punct(ts_[after], "{")) {
        const std::size_t close = match_forward(ts_, after, "{", "}");
        if (close == after + 1) {
          if (sc.at_class_scope)
            member_rngs_.push_back({i + 1, name});
          else
            add(line, "rng-seed-flow",
                "`Rng " + name +
                    "{}` default-constructed without a seed; thread the "
                    "seed from a parameter or config");
        } else if (close < ts_.size() && all_literal_args(after + 1, close)) {
          add(line, "rng-seed-flow",
              "`Rng " + name +
                  "` seeded with a hard-coded literal; thread the seed "
                  "from a parameter or config");
        }
        continue;
      }
      if (punct(ts_[after], "(") && sc.in_function) {
        // `Rng name(args)` in a function body: a construction (at class/
        // namespace scope the same shape is a function declaration).
        const std::size_t close = match_forward(ts_, after, "(", ")");
        if (close < ts_.size() && close > after + 1 &&
            all_literal_args(after + 1, close))
          add(line, "rng-seed-flow",
              "`Rng " + name +
                  "` seeded with a hard-coded literal; thread the seed "
                  "from a parameter or config");
      }
    }
  }

  bool all_literal_args(std::size_t from, std::size_t to) const {
    bool any = false;
    for (std::size_t j = from; j < to; ++j) {
      if (ts_[j].kind == TokenKind::kNumber) { any = true; continue; }
      if (ts_[j].kind == TokenKind::kPunct &&
          (ts_[j].text == "," || ts_[j].text == "-" || ts_[j].text == "+"))
        continue;
      return false;  // an identifier (threaded seed) or expression
    }
    return any;
  }

  /// Member `Rng` fields collected by scan_rng_constructions: clean only
  /// if some mem-initializer / assignment seeds them elsewhere in the
  /// file (`rng_(opts.seed)`, `rng_ = Rng(seed)`, ...).
  void finalize_member_rng() {
    for (const auto& [name_index, name] : member_rngs_) {
      bool seeded = false;
      for (std::size_t i = 0; i + 1 < ts_.size() && !seeded; ++i) {
        if (!ident(ts_[i], name.c_str())) continue;
        if (i == name_index) continue;  // the declaration itself
        if (punct(ts_[i + 1], "(") || punct(ts_[i + 1], "{")) {
          const char* o = ts_[i + 1].text == "(" ? "(" : "{";
          const char* c = ts_[i + 1].text == "(" ? ")" : "}";
          const std::size_t close = match_forward(ts_, i + 1, o, c);
          if (close > i + 2 && close < ts_.size()) seeded = true;
        } else if (punct(ts_[i + 1], "=")) {
          seeded = true;
        }
      }
      if (!seeded)
        add(ts_[name_index].line, "rng-seed-flow",
            "member `Rng " + name +
                "` is never seeded from a parameter/config (no "
                "mem-initializer or assignment found in this file)");
    }
  }

  // --- banned calls ----------------------------------------------------------

  void scan_banned_calls() {
    for (std::size_t i = 0; i + 1 < ts_.size(); ++i) {
      const Token& t = ts_[i];
      if (!is_ident(t)) continue;
      if (t.text != "rand" && t.text != "srand" && t.text != "time") continue;
      if (!punct(ts_[i + 1], "(")) continue;
      std::string which = t.text;
      if (i > 0) {
        const Token& prev = ts_[i - 1];
        if (punct(prev, "::")) {
          if (i >= 2 && ident(ts_[i - 2], "std")) which = "std::" + which;
          else continue;  // some_ns::time — not libc
        } else if (punct(prev, ".") || punct(prev, "->")) {
          continue;  // member call
        } else if (is_ident(prev) && prev.text != "return") {
          continue;  // `Seconds time(...)` — a declaration
        }
      }
      add(t.line, "banned-call",
          "`" + which +
              "()` breaks same-seed reproducibility; use hcep::Rng / "
              "simulated time");
    }
  }

  // --- simple header rules (unit-double family, std::function) --------------

  void scan_simple_header_rules() {
    const bool pub = is_public_header(path_);
    const bool ctrl = pub && is_control_header(path_);
    const bool hot = pub && is_hot_path_header(path_);
    for (std::size_t i = 0; i + 1 < ts_.size(); ++i) {
      const Token& t = ts_[i];
      if (hot && ident(t, "std") && punct(ts_[i + 1], "::") &&
          i + 2 < ts_.size() && ident(ts_[i + 2], "function")) {
        add(t.line, "std-function-hot-path",
            "std::function in a DES/traffic hot-path header heap-"
            "allocates every event capture (16-byte SBO); use "
            "des::Callback (48-byte inline budget) or a template "
            "parameter");
      }
      if (!pub || !ident(t, "double") || !is_ident(ts_[i + 1])) continue;
      if (i + 2 >= ts_.size()) continue;
      const Token& follow = ts_[i + 2];
      const bool decl_pos =
          punct(follow, ";") || punct(follow, "=") || punct(follow, "{") ||
          punct(follow, "(") || punct(follow, ",") || punct(follow, ")");
      if (!decl_pos) continue;
      const std::string& name = ts_[i + 1].text;
      if (names_physical_unit(name))
        add(t.line, "unit-double",
            "naked `double " + name +
                "` claims a physical unit; use the hcep::units Quantity "
                "type (Joules/Watts/Seconds/Hertz/...)");
      if (ctrl && names_control_signal(name))
        add(t.line, "control-unit-double",
            "raw `double " + name +
                "` power/energy signal in a control-plane header; "
                "controllers must exchange hcep::units quantities "
                "(Watts/Joules) so a W-vs-J slip cannot compile");
    }
  }

  // --- fed site identity ------------------------------------------------------

  /// `Site *` in a federation header: a site addressed by pointer is an
  /// allocation-address identity (ASLR-randomized per run), which the
  /// fleet's byte-determinism contract forbids. Note a pointer to the
  /// site *vector* (`std::vector<Site>*`) tokenizes as `Site > *` and
  /// deliberately does not match — only the element type itself used as
  /// a pointer is site identity.
  void scan_fed_identity() {
    if (!header() || !is_fed_header(path_)) return;
    for (std::size_t i = 0; i + 1 < ts_.size(); ++i) {
      if (!ident(ts_[i], "Site") || !punct(ts_[i + 1], "*")) continue;
      add(ts_[i].line, "site-id-determinism",
          "`Site*` used as site identity orders/compares by allocation "
          "address, which ASLR re-randomizes every run; identify sites "
          "by their index in the scenario's site vector");
    }
  }

  // --- function declarations: nodiscard + unit-flow --------------------------

  void scan_function_decls() {
    const bool pub = is_public_header(path_);
    const bool eval = is_evaluator_header(path_);
    if (!pub && !eval) return;

    for (std::size_t i = 0; i + 2 < ts_.size(); ++i) {
      const ScopeInfo& sc = scopes_[i];
      if (sc.in_function) continue;  // declarations only
      if (!is_ident(ts_[i])) continue;

      // Return type: value-ish single token, quantity alias, or
      // std::size_t / std::uint64_t / std::optional<..> / std::vector<..>.
      std::size_t after_type = 0;
      std::string ret = ts_[i].text;
      bool ret_quantity = quantity_type_name(ret);
      bool ret_value = ret_quantity || ret == "double" || ret == "float";
      if (ident(ts_[i], "std") && punct(ts_[i + 1], "::") &&
          i + 2 < ts_.size() && is_ident(ts_[i + 2])) {
        const std::string& inner = ts_[i + 2].text;
        if (inner == "size_t" || inner == "uint64_t") {
          ret = "std::" + inner;
          ret_value = true;
          after_type = i + 3;
        } else if ((inner == "optional" || inner == "vector") &&
                   i + 3 < ts_.size() && punct(ts_[i + 3], "<")) {
          const std::size_t close = match_forward(ts_, i + 3, "<", ">");
          if (close < ts_.size()) {
            ret = "std::" + inner + "<...>";
            ret_value = true;
            after_type = close + 1;
          }
        }
      } else if (ret_value) {
        after_type = i + 1;
        if (ret == "Quantity" && punct(ts_[i + 1], "<")) {
          const std::size_t close = match_forward(ts_, i + 1, "<", ">");
          if (close >= ts_.size()) continue;
          after_type = close + 1;
        }
      }
      if (!ret_value || after_type == 0 || after_type + 1 >= ts_.size())
        continue;

      // Name + parameter list.
      if (!is_ident(ts_[after_type])) continue;
      const std::string fname = ts_[after_type].text;
      if (!punct(ts_[after_type + 1], "(")) continue;
      const std::size_t close = match_forward(ts_, after_type + 1, "(", ")");
      if (close >= ts_.size()) continue;

      // Declaration position: walk back over specifiers / attributes /
      // template heads to a statement boundary. Anything else (an
      // expression, `=`, `return`) disqualifies.
      bool decl_pos = true, has_nodiscard = false;
      for (std::size_t j = i; j-- > 0;) {
        const Token& p = ts_[j];
        if (punct(p, ";") || punct(p, "{") || punct(p, "}") ||
            punct(p, ":") || p.kind == TokenKind::kDirective)
          break;
        if (punct(p, "]") ) {
          // attribute block `[[...]]`: scan it for nodiscard
          std::size_t k = j;
          while (k-- > 0 && !punct(ts_[k], "[")) {
            if (ident(ts_[k], "nodiscard")) has_nodiscard = true;
          }
          j = k > 0 ? k : 0;
          if (k > 0 && punct(ts_[k - 1], "[")) j = k - 1;
          continue;
        }
        if (punct(p, ">")) {
          // template head `template <...>`: skip backwards to `template`
          int depth = 1;
          std::size_t k = j;
          while (k-- > 0 && depth > 0) {
            if (punct(ts_[k], ">")) ++depth;
            if (punct(ts_[k], "<")) --depth;
          }
          if (k > 0 && ident(ts_[k - 1], "template")) {
            j = k - 1;
            continue;
          }
          decl_pos = false;
          break;
        }
        if (punct(p, "::")) continue;  // qualified return type (hcep::Joules)
        if (is_ident(p) && is_specifier(p.text)) continue;
        if (is_ident(p) && j + 1 < ts_.size() && punct(ts_[j + 1], "::"))
          continue;  // namespace qualifier of the return type
        decl_pos = false;
        break;
      }
      if (!decl_pos) continue;

      if (eval && !has_nodiscard && !sc.in_function) {
        // A following `{` makes this a definition — still a declaration
        // site; both need the attribute. Exclude constructor-ish or
        // control contexts by the shape checks above.
        add(ts_[i].line, "nodiscard",
            "value-returning evaluator `" + fname + "` lacks [[nodiscard]]");
      }

      if (pub && ret_quantity) {
        // unit-flow: Quantity-returning signature with naked double params.
        int depth = 0;
        std::vector<std::vector<const Token*>> params(1);
        for (std::size_t j = after_type + 2; j < close; ++j) {
          const Token& t = ts_[j];
          if (punct(t, "(") || punct(t, "<") || punct(t, "[")) ++depth;
          if (punct(t, ")") || punct(t, ">") || punct(t, "]")) --depth;
          if (depth == 0 && punct(t, ",")) {
            params.emplace_back();
            continue;
          }
          params.back().push_back(&t);
        }
        for (const auto& param : params) {
          bool has_double = false, past_default = false;
          std::string pname;
          for (const Token* t : param) {
            if (punct(*t, "=")) past_default = true;
            if (past_default) continue;
            if (ident(*t, "double")) has_double = true;
            if (is_ident(*t)) pname = t->text;
          }
          if (has_double && !pname.empty() && pname != "double" &&
              !dimensionless_param_name(pname))
            add(ts_[i].line, "unit-flow",
                "`" + fname + "` returns " + ret +
                    " but takes naked `double " + pname +
                    "`; a Quantity-typed boundary must not accept "
                    "untyped physical values — type the parameter");
        }
      }
    }
  }

  // --- mutable statics (facts only; project pass decides) --------------------

  void collect_mutable_statics() {
    if (!header()) return;
    static const std::set<std::string> kSafe = {
        "const",    "constexpr", "constinit",          "thread_local",
        "atomic",   "mutex",     "shared_mutex",       "once_flag",
        "condition_variable", "atomic_flag"};
    for (std::size_t i = 0; i + 1 < ts_.size(); ++i) {
      if (!ident(ts_[i], "static")) continue;
      bool safe = false, is_function = false;
      std::string name;
      std::size_t j = i + 1;
      for (; j < ts_.size(); ++j) {
        const Token& t = ts_[j];
        if (punct(t, ";") || punct(t, "=") || punct(t, "{") || punct(t, "["))
          break;
        if (punct(t, "(")) {
          is_function = j > 0 && is_ident(ts_[j - 1]);
          break;
        }
        if (punct(t, "<")) {
          const std::size_t close = match_forward(ts_, j, "<", ">");
          if (close >= ts_.size()) break;
          for (std::size_t k = j; k < close; ++k)
            if (is_ident(ts_[k]) && kSafe.count(ts_[k].text)) safe = true;
          j = close;
          continue;
        }
        if (is_ident(t)) {
          if (kSafe.count(t.text)) safe = true;
          name = t.text;
        }
      }
      if (safe || is_function || name.empty()) continue;
      if (suppressed(lr_, ts_[i].line, "shared-mutable-static")) continue;
      facts_.mutable_statics.push_back({ts_[i].line, name});
    }
  }

  std::string path_;
  LexResult lr_;
  const std::vector<Token>& ts_;
  std::vector<ScopeInfo> scopes_;
  std::set<std::string> unordered_vars_;
  std::set<std::string> floatish_vars_;
  /// (name-token index, member name) of class-scope `Rng` fields.
  std::vector<std::pair<std::size_t, std::string>> member_rngs_;
  FileFacts facts_;
};

}  // namespace

FileFacts analyze_source(const std::string& source,
                         const std::string& relpath) {
  return FileAnalyzer(source, relpath).run();
}

std::vector<Finding> project_findings(const std::vector<FileFacts>& files) {
  // Resolve quoted includes against src/include/ (the project's only
  // include root) and against the including file's own directory.
  std::map<std::string, const FileFacts*> by_path;
  for (const auto& f : files) by_path[f.path] = &f;

  auto resolve = [&](const std::string& from,
                     const std::string& inc) -> const FileFacts* {
    auto it = by_path.find("src/include/" + inc);
    if (it != by_path.end()) return it->second;
    const std::size_t slash = from.rfind('/');
    if (slash != std::string::npos) {
      it = by_path.find(from.substr(0, slash + 1) + inc);
      if (it != by_path.end()) return it->second;
    }
    return nullptr;
  };

  // BFS from shard-marker TUs over include edges.
  std::set<std::string> reachable;
  std::vector<const FileFacts*> queue;
  for (const auto& f : files)
    if (f.uses_shard_markers && reachable.insert(f.path).second)
      queue.push_back(&f);
  while (!queue.empty()) {
    const FileFacts* f = queue.back();
    queue.pop_back();
    for (const auto& inc : f->includes) {
      const FileFacts* target = resolve(f->path, inc);
      if (target != nullptr && reachable.insert(target->path).second)
        queue.push_back(target);
    }
  }

  std::vector<Finding> out;
  for (const auto& f : files) {
    if (reachable.count(f.path) == 0) continue;
    for (const auto& ms : f.mutable_statics)
      out.push_back(
          {f.path, ms.line, "shared-mutable-static",
           "mutable static `" + ms.name +
               "` in a header reachable from parallel_for code; shards "
               "would race on it — use std::atomic, thread_local, const, "
               "or per-shard state"});
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    return a.line < b.line;
  });
  return out;
}

bool is_public_header(const std::string& relpath) {
  return contains(relpath, "src/include/");
}
bool is_control_header(const std::string& relpath) {
  return contains(relpath, "include/hcep/control/");
}
bool is_hot_path_header(const std::string& relpath) {
  if (!contains(relpath, "include/hcep/")) return false;
  return contains(relpath, "/des/") || contains(relpath, "/traffic/");
}
bool is_evaluator_header(const std::string& relpath) {
  if (!contains(relpath, "include/hcep/")) return false;
  return contains(relpath, "/model/") || contains(relpath, "/metrics/") ||
         contains(relpath, "/config/") || contains(relpath, "/power/") ||
         contains(relpath, "/workload/") || contains(relpath, "/traffic/") ||
         contains(relpath, "/obs/stream");
}
bool is_deterministic_output_path(const std::string& relpath) {
  return contains(relpath, "report") || contains(relpath, "export") ||
         contains(relpath, "json") || contains(relpath, "csv") ||
         contains(relpath, "/table");
}
bool is_fed_header(const std::string& relpath) {
  return contains(relpath, "include/hcep/fed/");
}

}  // namespace hcep::lint
