// p3s-lint classic rules (PR 4 vintage), re-expressed on the symbol-graph IR:
// layering DAG over FileUnit::includes, banned-api / secret-compare /
// metric-vocab over the comment-stripped token stream each FileUnit carries.
// One analyzer, one suppression syntax (`// p3s:lint-allow(<rule>)`), one
// finding format — see ir.hpp.
#pragma once

#include <map>
#include <set>
#include <string>

#include "ir.hpp"

namespace p3s::lint {

// Layering DAG: module -> modules it may include (besides itself). A module
// directory under src/ that has no row here is itself a lint error, so the
// table can never silently fall out of date.
inline const std::map<std::string, std::set<std::string>>& layering_dag() {
  static const std::map<std::string, std::set<std::string>> dag = {
      {"common", {}},
      {"math", {"common"}},
      {"crypto", {"common"}},
      {"pairing", {"common", "crypto", "math"}},
      {"abe", {"common", "crypto", "math", "pairing"}},
      {"pbe", {"common", "crypto", "math", "pairing", "exec", "obs"}},
      {"exec", {"common", "obs"}},
      {"obs", {"common"}},
      {"net", {"common", "crypto", "math", "pairing", "obs"}},
      {"sim", {"common", "net", "obs"}},
      {"broker", {"common", "net", "obs", "pbe"}},
      {"model", {"common", "gadget", "obs", "pbe"}},
      {"gadget", {"common"}},
      {"p3s",
       {"abe", "common", "crypto", "exec", "math", "net", "obs", "pairing",
        "pbe"}},
      // Adversary harness (DESIGN.md §11): sits above the full stack so its
      // scenarios can deploy a P3sSystem and analyze the traffic log.
      {"attack",
       {"abe", "common", "crypto", "exec", "math", "net", "obs", "p3s",
        "pairing", "pbe"}},
  };
  return dag;
}

// Modules whose files handle key material: constant-time compare discipline
// applies, and wall-clock types are suspicious.
inline const std::set<std::string>& secret_modules() {
  static const std::set<std::string> m = {"crypto", "math", "pairing", "pbe",
                                          "abe"};
  return m;
}

// Identifiers banned as calls everywhere under src/.
inline const std::set<std::string>& banned_calls() {
  static const std::set<std::string> b = {
      "rand",   "srand",  "rand_r",  "random",   "srandom", "drand48",
      "strcpy", "strcat", "sprintf", "vsprintf", "gets",    "tmpnam",
  };
  return b;
}

// Operand names that mark a ==/!= as a secret compare.
inline bool secret_operand(const std::string& id) {
  static const std::set<std::string> exact = {"tag",    "mac",    "hmac",
                                              "digest", "secret", "expected"};
  if (exact.count(id) != 0) return true;
  for (const char* suffix : {"_tag", "_mac", "_digest", "_secret"}) {
    const std::string s(suffix);
    if (id.size() > s.size() &&
        id.compare(id.size() - s.size(), s.size(), s) == 0) {
      return true;
    }
  }
  return false;
}

inline bool is_metric_name(const std::string& s) {
  if (s.rfind("p3s.", 0) != 0 || s.size() <= 4) return false;
  for (char c : s) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
          c == '_')) {
      return false;
    }
  }
  return true;
}

// Metric vocabulary loaded once from src/obs/catalog.hpp + OBSERVABILITY.md.
struct MetricVocab {
  std::set<std::string> catalog;
  std::set<std::string> docs;
  bool ok = false;
};

// ---------------------------------------------------------------------------

inline void run_classic_rules(const Project& proj, const MetricVocab& vocab,
                              Findings& out) {
  const auto& dag = layering_dag();
  for (const FileUnit& unit : proj.units) {
    const auto row = dag.find(unit.module);
    const bool secret = secret_modules().count(unit.module) != 0;
    const bool is_catalog = unit.rel == "src/obs/catalog.hpp";

    // --- layering over parsed includes -----------------------------------
    if (!unit.module.empty() && row == dag.end()) {
      out.report(unit, 1, "layering",
                 "module 'src/" + unit.module +
                     "/' has no row in the layering DAG (tools/p3s-lint); "
                     "declare its allowed dependencies");
    }
    if (row != dag.end()) {
      for (const IncludeDir& inc : unit.includes) {
        const std::size_t slash = inc.path.find('/');
        if (slash == std::string::npos) continue;
        const std::string dep = inc.path.substr(0, slash);
        if (dag.count(dep) != 0 && dep != unit.module &&
            row->second.count(dep) == 0) {
          out.report(unit, inc.line, "layering",
                     "module '" + unit.module + "' may not include '" + dep +
                         "/' (include \"" + inc.path + "\")");
        }
      }
    }

    // --- token-level rules over the comment-stripped stream ---------------
    const std::vector<Token>& toks = unit.code;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind == Tok::kIdent) {
        const bool call = i + 1 < toks.size() &&
                          toks[i + 1].kind == Tok::kPunct &&
                          toks[i + 1].text == "(";
        // Distinguish libc calls from project members/declarations that
        // share a name (Guid::random, rng.random): member access and
        // non-std qualification are fine; `Type name(` declarations are
        // fine; a keyword before the name (return/case/...) is a call.
        bool libc_context = call;
        if (call && i > 0) {
          const Token& pt = toks[i - 1];
          if (pt.kind == Tok::kPunct && (pt.text == "." || pt.text == "->")) {
            libc_context = false;  // member call
          } else if (pt.kind == Tok::kPunct && pt.text == "::") {
            if (i >= 2 && toks[i - 2].kind == Tok::kIdent &&
                toks[i - 2].text != "std") {
              libc_context = false;  // SomeClass::name(...)
            }
          } else if (pt.kind == Tok::kIdent) {
            static const std::set<std::string> kExprKeywords = {
                "return", "case",  "goto",   "co_return", "co_yield",
                "throw",  "new",   "delete", "sizeof",    "if",
                "while",  "for",   "switch", "and",       "or",
                "not",    "else"};
            if (kExprKeywords.count(pt.text) == 0) {
              libc_context = false;  // `Type name(` declaration
            }
          }
        }
        if (libc_context && banned_calls().count(t.text) != 0) {
          out.report(unit, t.line, "banned-api",
                     "call to '" + t.text +
                         "' is banned (use common/rng.hpp / bounded "
                         "formatting instead)");
        }
        // Wall-clock seeding: time(nullptr) / time(NULL) / time(0).
        if (call && t.text == "time" && i + 3 < toks.size()) {
          const Token& a = toks[i + 2];
          const bool null_arg =
              (a.kind == Tok::kIdent &&
               (a.text == "nullptr" || a.text == "NULL")) ||
              (a.kind == Tok::kNumber && a.text == "0");
          if (null_arg && toks[i + 3].kind == Tok::kPunct &&
              toks[i + 3].text == ")") {
            out.report(unit, t.line, "banned-api",
                       "wall-clock seeding via time(...) is banned; seed "
                       "from common/rng.hpp");
          }
        }
        if (secret) {
          if (call && (t.text == "memcmp" || t.text == "bcmp")) {
            out.report(unit, t.line, "secret-compare",
                       "'" + t.text +
                           "' in a secret-bearing module; use ct_equal "
                           "(crypto/ct.hpp)");
          }
          if (t.text == "system_clock") {
            out.report(unit, t.line, "secret-compare",
                       "wall-clock time in a secret-bearing module; use the "
                       "steady clock");
          }
        }
        continue;
      }
      if (secret && t.kind == Tok::kPunct &&
          (t.text == "==" || t.text == "!=")) {
        std::string operand;
        if (i > 0 && toks[i - 1].kind == Tok::kIdent &&
            secret_operand(toks[i - 1].text)) {
          operand = toks[i - 1].text;
        } else if (i + 1 < toks.size() && toks[i + 1].kind == Tok::kIdent &&
                   secret_operand(toks[i + 1].text)) {
          operand = toks[i + 1].text;
        }
        if (!operand.empty()) {
          out.report(unit, t.line, "secret-compare",
                     "'" + t.text + "' on secret-named operand '" + operand +
                         "'; use ct_equal (crypto/ct.hpp)");
        }
      }
      if (t.kind == Tok::kString && !is_catalog && vocab.ok &&
          is_metric_name(t.text)) {
        if (vocab.catalog.count(t.text) == 0) {
          out.report(unit, t.line, "metric-vocab",
                     "metric name \"" + t.text +
                         "\" is not declared in src/obs/catalog.hpp");
        } else if (vocab.docs.count(t.text) == 0) {
          out.report(unit, t.line, "metric-vocab",
                     "metric name \"" + t.text +
                         "\" is not documented in OBSERVABILITY.md");
        }
      }
    }
  }
}

}  // namespace p3s::lint
