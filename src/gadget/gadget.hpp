// Gadget framework (paper §6.1): "a simple mechanism we developed to capture
// information dependency underneath an encryption scheme." A gadget is a
// directed graph whose nodes are information elements or AND gates; an edge
// u → v means v depends on u. An information element becomes derivable when
// ANY of its incoming derivations fires; an AND gate fires when ALL of its
// inputs are derivable.
//
// Privacy analysis = compute the derivation closure of what a participant
// saw, then check whether any sensitive element (dark-bordered in the
// paper's Fig. 5) landed in the closure.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace p3s::gadget {

using NodeId = std::uint32_t;

class Gadget {
 public:
  /// Add an information element. `sensitive` marks it as subject to a
  /// privacy requirement (dark border in Fig. 5). Names must be unique.
  NodeId add_info(const std::string& name, bool sensitive = false);

  /// Add an AND gate (an operation like Encrypt/GenToken/Query).
  NodeId add_and(const std::string& label);

  /// Information flows from `from` into `to`.
  void add_edge(NodeId from, NodeId to);

  /// Convenience: gate with the given inputs feeding `output`.
  NodeId add_derivation(const std::string& label,
                        const std::vector<NodeId>& inputs, NodeId output);

  /// Look up an element by name; throws std::out_of_range if absent.
  NodeId find(const std::string& name) const;

  /// Fixpoint closure: everything derivable from `known`.
  std::set<NodeId> derive(const std::set<NodeId>& known) const;
  bool derivable(const std::set<NodeId>& known, NodeId target) const;
  bool derivable(const std::set<NodeId>& known, const std::string& target) const;

  /// Sensitive elements exposed to a participant with the given knowledge.
  std::vector<std::string> exposed_sensitive(const std::set<NodeId>& known) const;

  /// Graphviz rendering of the gadget, mirroring the paper's Fig. 5 visual
  /// conventions: information elements as ellipses (sensitive ones with a
  /// dark border), AND gates as boxes.
  std::string to_dot(const std::string& graph_name = "gadget") const;

 private:
  struct Node {
    std::string name;
    bool is_gate = false;
    bool sensitive = false;
    std::vector<NodeId> inputs;  // predecessors
  };

  std::vector<Node> nodes_;
  std::map<std::string, NodeId> by_name_;
};

/// A participant's accumulated knowledge (the "curious" memory of an HBC
/// party), convertible to a node set against a gadget.
class Knowledge {
 public:
  Knowledge& sees(const Gadget& g, const std::string& element);
  Knowledge& sees_all(const Gadget& g,
                      std::initializer_list<const char*> elements);
  const std::set<NodeId>& nodes() const { return nodes_; }

  /// Collusion: pool knowledge of several HBC participants.
  static Knowledge pool(const Knowledge& a, const Knowledge& b);

 private:
  std::set<NodeId> nodes_;
};

// --- Prebuilt gadgets for the schemes P3S uses ----------------------------------

/// The PBE gadget of Fig. 5, including the extended association elements
/// a_pid_x (publisher ↔ metadata) and a_sid_y (subscriber ↔ interest), and
/// the two attack gates shown with orange edges:
///   * token probing: (token, pk, encrypt-capability) → y
///   * exhaustive tokens: (ciphertext, all-tokens) → x
Gadget make_pbe_gadget();

/// CP-ABE gadget: policy is public; payload m_A derivable from ciphertext +
/// a satisfying key; keys derive only from the master key.
Gadget make_cpabe_gadget();

/// Public-key (ECIES-style) envelope gadget.
Gadget make_pk_gadget();

/// Symmetric-key (AEAD under Ks) gadget.
Gadget make_sk_gadget();

}  // namespace p3s::gadget
