// p3s-lint secret-taint pass. Name-registry-seeded taint tracking over the
// symbol graph:
//
//   seeds       function parameters and record fields whose name matches the
//               secret registry (key, sk, ikm, prk, secret, password,
//               passphrase; *_key, *_sk, *_secret, *_ikm, *_prk; trailing
//               underscores ignored). Bare locals never seed — a local only
//               becomes tainted by assignment from tainted data.
//   propagation through assignments (rhs tainted -> lhs tainted), into
//               lambdas (captured state inherits the parent's taint set) and
//               through returns (x = f() taints x when f's return expression
//               is itself a bare secret).
//   laundering  method-call results are clean (key.size(), sk.attributes(),
//               m.find(k) — length/lookup information is blessed), as is
//               anything inside an argument of a call into src/crypto (the
//               blessed module: aead_*, hkdf*, ct_equal, Drbg, ...) or of
//               seal/open. src/crypto itself is never a sink location.
//   sinks       log lines, branch conditions, ==/!=/memcmp comparisons,
//               obs metric registration, wire serialization (Writer methods)
//               outside seal. One rule id: secret-taint.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "ir.hpp"

namespace p3s::lint {

inline bool secret_name(const std::string& raw) {
  std::string id = raw;
  while (!id.empty() && id.back() == '_') id.pop_back();
  static const std::set<std::string> exact = {
      "key", "sk", "ikm", "prk", "secret", "password", "passphrase"};
  // Public-key material matches the *_key suffix but is not secret.
  for (const char* pub : {"public_key", "pub_key", "pubkey", "verify_key"}) {
    const std::string p(pub);
    if (id.size() >= p.size() &&
        id.compare(id.size() - p.size(), p.size(), p) == 0) {
      return false;
    }
  }
  if (exact.count(id) != 0) return true;
  for (const char* suffix : {"_key", "_sk", "_secret", "_ikm", "_prk"}) {
    const std::string s(suffix);
    if (id.size() > s.size() &&
        id.compare(id.size() - s.size(), s.size(), s) == 0) {
      return true;
    }
  }
  return false;
}

class TaintPass {
 public:
  TaintPass(const Project& proj, Findings& out) : proj_(proj), out_(out) {
    // Blessed laundering points: everything defined in src/crypto, plus the
    // session AEAD wrappers that are the sanctioned wire path.
    blessed_ = {"seal", "open"};
    for (const FileUnit& u : proj_.units) {
      if (u.module != "crypto") continue;
      for (int rid : u.records) {
        blessed_.insert(proj_.records[static_cast<std::size_t>(rid)].name);
      }
      for (int fid : u.functions) {
        blessed_.insert(proj_.functions[static_cast<std::size_t>(fid)].name);
      }
    }
  }

  void run() {
    const std::size_t n = proj_.functions.size();
    tainted_.assign(n, {});
    returns_secret_.assign(n, 0);
    // Round 1 seeds and propagates locally; rounds 2-3 pick up x = f()
    // return-taint once callee summaries exist.
    for (int round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        compute_taint(static_cast<int>(i));
      }
    }
    if (std::getenv("P3S_LINT_DEBUG") != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        if (tainted_[i].empty()) continue;
        std::string names;
        for (const auto& x : tainted_[i]) names += x + " ";
        std::fprintf(stderr, "taint %s [%s]: %s\n",
                     fn(static_cast<int>(i)).qual.c_str(),
                     unit_of(static_cast<int>(i)).rel.c_str(), names.c_str());
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      check_sinks(static_cast<int>(i));
    }
  }

 private:
  const Project& proj_;
  Findings& out_;
  std::set<std::string> blessed_;
  std::vector<std::set<std::string>> tainted_;
  std::vector<char> returns_secret_;

  const Function& fn(int id) const {
    return proj_.functions[static_cast<std::size_t>(id)];
  }
  const FileUnit& unit_of(int fid) const {
    return proj_.units[static_cast<std::size_t>(fn(fid).unit)];
  }

  static std::size_t match_paren(const std::vector<Token>& t, std::size_t i) {
    int depth = 0;
    for (std::size_t j = i; j < t.size(); ++j) {
      if (t[j].kind != Tok::kPunct) continue;
      if (t[j].text == "(") ++depth;
      else if (t[j].text == ")" && --depth == 0) return j + 1;
    }
    return t.size();
  }

  std::string enclosing_record(const Function& f) const {
    if (!f.record.empty()) return f.record;
    if (f.parent >= 0) return enclosing_record(fn(f.parent));
    return "";
  }

  // Spans inside `r` that are arguments of blessed calls — occurrences in
  // them are laundered (crypto consumes secrets; that is its job).
  std::vector<Range> blessed_spans(const std::vector<Token>& t, Range r) const {
    std::vector<Range> spans;
    for (std::size_t k = r.begin; k < r.end && k < t.size(); ++k) {
      if (t[k].kind == Tok::kIdent && blessed_.count(t[k].text) != 0 &&
          k + 1 < t.size() && t[k + 1].kind == Tok::kPunct &&
          t[k + 1].text == "(") {
        spans.push_back({k + 1, match_paren(t, k + 1)});
      }
    }
    return spans;
  }

  static bool in_spans(const std::vector<Range>& spans, std::size_t k) {
    for (const Range& s : spans) {
      if (k >= s.begin && k < s.end) return true;
    }
    return false;
  }

  // A tainted identifier occurrence is laundered when it is the receiver of
  // a method-call chain (key.size(), sk.components.end(), m.find(key) — the
  // *result* of a method call is treated as clean unless a summary says
  // otherwise).
  static bool method_chain(const std::vector<Token>& t, std::size_t k) {
    std::size_t j = k + 1;
    bool saw_member = false;
    while (j + 1 < t.size() && t[j].kind == Tok::kPunct &&
           (t[j].text == "." || t[j].text == "->") &&
           t[j + 1].kind == Tok::kIdent) {
      saw_member = true;
      j += 2;
    }
    return saw_member && j < t.size() && t[j].kind == Tok::kPunct &&
           t[j].text == "(";
  }

  // First unlaunderd tainted occurrence in [r); returns token index or npos.
  std::size_t first_taint(int fid, Range r, std::string* name) const {
    const std::vector<Token>& t = unit_of(fid).code;
    const std::set<std::string>& ts = tainted_[static_cast<std::size_t>(fid)];
    if (ts.empty()) return std::string::npos;
    const std::vector<Range> spans = blessed_spans(t, r);
    for (std::size_t k = r.begin; k < r.end && k < t.size(); ++k) {
      if (t[k].kind != Tok::kIdent || ts.count(t[k].text) == 0) continue;
      if (in_spans(spans, k)) continue;
      if (method_chain(t, k)) continue;
      // Function-call position (`key(` — a call named like a secret, not
      // data flowing anywhere).
      if (k + 1 < t.size() && t[k + 1].kind == Tok::kPunct &&
          t[k + 1].text == "(") {
        continue;
      }
      if (name != nullptr) *name = t[k].text;
      return k;
    }
    return std::string::npos;
  }

  bool range_tainted(int fid, Range r) const {
    return first_taint(fid, r, nullptr) != std::string::npos;
  }

  // Does `r` contain a top-level call to a function whose return is secret?
  // Calls resolve by name only, so overload/homonym sets must AGREE: one
  // returns-secret `Foo::deserialize` must not taint every `X::deserialize`
  // call site in the tree. Only propagate when every body-bearing candidate
  // has a returns-secret summary.
  bool calls_secret_source(int fid, Range r) const {
    const std::vector<Token>& t = unit_of(fid).code;
    for (std::size_t k = r.begin; k < r.end && k < t.size(); ++k) {
      if (t[k].kind != Tok::kIdent) continue;
      if (k + 1 >= t.size() || t[k + 1].kind != Tok::kPunct ||
          t[k + 1].text != "(") {
        continue;
      }
      const std::vector<int>* cands = proj_.candidates(t[k].text);
      if (cands == nullptr) continue;
      int with_body = 0;
      int secret = 0;
      for (int c : *cands) {
        if (!fn(c).has_body) continue;
        ++with_body;
        if (returns_secret_[static_cast<std::size_t>(c)]) ++secret;
      }
      if (with_body > 0 && secret == with_body) return true;
    }
    return false;
  }

  void compute_taint(int fid) {
    const Function& f = fn(fid);
    std::set<std::string>& ts = tainted_[static_cast<std::size_t>(fid)];
    // Seeds: secret-named params...
    for (const Param& p : f.params) {
      if (secret_name(p.name)) ts.insert(p.name);
    }
    // ...secret-named fields of the enclosing record...
    const std::string rec = enclosing_record(f);
    if (!rec.empty()) {
      const Record* r = proj_.find_record(rec);
      if (r != nullptr) {
        for (const Field& fld : r->fields) {
          if (secret_name(fld.name)) ts.insert(fld.name);
        }
      }
    }
    // ...and, for lambdas, everything the enclosing function has tainted
    // (captures are by-name in this model).
    if (f.parent >= 0) {
      const auto& pt = tainted_[static_cast<std::size_t>(f.parent)];
      ts.insert(pt.begin(), pt.end());
    }
    // Propagate through assignments until stable.
    bool changed = true;
    int guard = 0;
    while (changed && guard++ < 16) {
      changed = false;
      for (const Assign& a : f.assigns) {
        if (ts.count(a.lhs) != 0) continue;
        if (range_tainted(fid, a.rhs) || calls_secret_source(fid, a.rhs)) {
          ts.insert(a.lhs);
          changed = true;
        }
      }
    }
    // Return summary: the return expression IS a bare secret (not merely a
    // call that takes one — hkdf(key,...) returns derived material that only
    // re-taints via the registry, by design).
    char rs = 0;
    for (const Range& r : f.returns) {
      std::string name;
      const std::size_t at = first_taint(fid, r, &name);
      if (at == std::string::npos) continue;
      // Only bare occurrences (outside any call's argument list) count.
      const std::vector<Token>& t = unit_of(fid).code;
      std::vector<Range> call_spans;
      for (std::size_t k = r.begin; k < r.end && k < t.size(); ++k) {
        if (t[k].kind == Tok::kIdent && k + 1 < t.size() &&
            t[k + 1].kind == Tok::kPunct && t[k + 1].text == "(") {
          call_spans.push_back({k + 1, match_paren(t, k + 1)});
        }
      }
      if (!in_spans(call_spans, at)) rs = 1;
    }
    returns_secret_[static_cast<std::size_t>(fid)] = rs;
  }

  void check_sinks(int fid) {
    const Function& f = fn(fid);
    const FileUnit& unit = unit_of(fid);
    if (unit.module == "crypto") return;  // blessed sink location
    if (!f.has_body) return;
    const std::set<std::string>& ts = tainted_[static_cast<std::size_t>(fid)];
    if (ts.empty()) return;
    const std::vector<Token>& t = unit.code;

    // Regions owned by nested lambdas: skipped in body-wide scans here (the
    // lambda is its own function and gets its own sink check).
    std::vector<Range> lambda_bodies;
    for (int lid : f.lambdas) {
      lambda_bodies.push_back(fn(lid).body);
    }
    auto in_lambda = [&](std::size_t k) { return in_spans(lambda_bodies, k); };

    // --- branch conditions -------------------------------------------------
    for (const Range& br : f.branches) {
      std::string name;
      const std::size_t at = first_taint(fid, br, &name);
      if (at != std::string::npos && !in_lambda(at)) {
        out_.report(unit, t[at].line, "secret-taint",
                    "secret '" + name +
                        "' influences a branch condition (secret-dependent "
                        "control flow); use crypto/ct.hpp or restructure");
      }
    }

    // --- direct comparisons ------------------------------------------------
    const std::vector<Range> spans = blessed_spans(t, f.body);
    for (std::size_t k = f.body.begin; k < f.body.end && k < t.size(); ++k) {
      if (in_lambda(k) || in_spans(spans, k)) continue;
      if (t[k].kind != Tok::kPunct || (t[k].text != "==" && t[k].text != "!="))
        continue;
      std::string name;
      if (k > 0 && t[k - 1].kind == Tok::kIdent &&
          ts.count(t[k - 1].text) != 0 && !method_chain(t, k - 1)) {
        name = t[k - 1].text;
      } else if (k + 1 < t.size() && t[k + 1].kind == Tok::kIdent &&
                 ts.count(t[k + 1].text) != 0 && !method_chain(t, k + 1)) {
        name = t[k + 1].text;
      }
      if (!name.empty()) {
        out_.report(unit, t[k].line, "secret-taint",
                    "'" + t[k].text + "' on secret '" + name +
                        "'; use ct_equal (crypto/ct.hpp)");
      }
    }

    // --- per-call sinks ----------------------------------------------------
    static const std::set<std::string> log_sinks = {"log_debug", "log_info",
                                                    "log_warn", "log_error"};
    static const std::set<std::string> metric_sinks = {"counter", "gauge",
                                                       "histogram"};
    static const std::set<std::string> wire_sinks = {
        "u8", "u16", "u32", "u64", "raw", "bytes", "str"};
    for (const CallSite& cs : f.calls) {
      if (cs.callee == "<lock>") continue;
      if (log_sinks.count(cs.callee) != 0) {
        // The secret usually arrives via `<<` AFTER the factory call:
        // log_info("c") << key_;  — scan the whole statement.
        std::size_t end = cs.tok;
        int depth = 0;
        while (end < t.size()) {
          if (t[end].kind == Tok::kPunct) {
            const std::string& p = t[end].text;
            if (p == "(" || p == "[" || p == "{") ++depth;
            if (p == ")" || p == "]" || p == "}") --depth;
            if (depth == 0 && p == ";") break;
            if (depth < 0) break;
          }
          ++end;
        }
        std::string name;
        const std::size_t at = first_taint(fid, {cs.tok, end}, &name);
        if (at != std::string::npos && !in_lambda(at)) {
          out_.report(unit, t[at].line, "secret-taint",
                      "secret '" + name + "' flows into a log line via '" +
                          cs.callee + "'");
        }
        continue;
      }
      if (metric_sinks.count(cs.callee) != 0 && cs.member) {
        for (const Range& arg : cs.args) {
          std::string name;
          const std::size_t at = first_taint(fid, arg, &name);
          if (at != std::string::npos) {
            out_.report(unit, t[at].line, "secret-taint",
                        "secret '" + name +
                            "' flows into an obs metric name/label");
            break;
          }
        }
        continue;
      }
      if (wire_sinks.count(cs.callee) != 0 && cs.member &&
          writer_base(f, cs.base_text)) {
        if (f.name == "seal" || f.name == "open") continue;  // the blessed path
        for (const Range& arg : cs.args) {
          std::string name;
          const std::size_t at = first_taint(fid, arg, &name);
          if (at != std::string::npos) {
            out_.report(unit, t[at].line, "secret-taint",
                        "secret '" + name +
                            "' serialized to the wire outside seal()");
            break;
          }
        }
        continue;
      }
      if (cs.callee == "memcmp" || cs.callee == "bcmp") {
        for (const Range& arg : cs.args) {
          std::string name;
          const std::size_t at = first_taint(fid, arg, &name);
          if (at != std::string::npos) {
            out_.report(unit, t[at].line, "secret-taint",
                        "secret '" + name +
                            "' compared with memcmp; use ct_equal "
                            "(crypto/ct.hpp)");
            break;
          }
        }
      }
    }
  }

  // Is the call's receiver a Writer-typed local (in this function or an
  // enclosing lambda parent)?
  bool writer_base(const Function& f, const std::string& base) const {
    std::size_t end = 0;
    while (end < base.size() &&
           (std::isalnum(static_cast<unsigned char>(base[end])) ||
            base[end] == '_')) {
      ++end;
    }
    const std::string var = base.substr(0, end);
    if (var.empty()) return false;
    for (const Function* cur = &f;;) {
      auto it = cur->local_types.find(var);
      if (it != cur->local_types.end()) {
        return it->second.find("Writer") != std::string::npos;
      }
      for (const Param& p : cur->params) {
        if (p.name == var) {
          return p.type_text.find("Writer") != std::string::npos;
        }
      }
      if (cur->parent < 0) break;
      cur = &fn(cur->parent);
    }
    return false;
  }
};

inline void run_taint(const Project& proj, Findings& out) {
  TaintPass(proj, out).run();
}

}  // namespace p3s::lint
