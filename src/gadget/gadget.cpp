#include "gadget/gadget.hpp"

#include <stdexcept>

namespace p3s::gadget {

NodeId Gadget::add_info(const std::string& name, bool sensitive) {
  if (by_name_.contains(name)) {
    throw std::invalid_argument("Gadget: duplicate element '" + name + "'");
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({name, /*is_gate=*/false, sensitive, {}});
  by_name_.emplace(name, id);
  return id;
}

NodeId Gadget::add_and(const std::string& label) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({label, /*is_gate=*/true, false, {}});
  return id;
}

void Gadget::add_edge(NodeId from, NodeId to) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    throw std::out_of_range("Gadget: bad node id");
  }
  nodes_[to].inputs.push_back(from);
}

NodeId Gadget::add_derivation(const std::string& label,
                              const std::vector<NodeId>& inputs,
                              NodeId output) {
  const NodeId gate = add_and(label);
  for (NodeId in : inputs) add_edge(in, gate);
  add_edge(gate, output);
  return gate;
}

NodeId Gadget::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::out_of_range("Gadget: unknown element '" + name + "'");
  }
  return it->second;
}

std::set<NodeId> Gadget::derive(const std::set<NodeId>& known) const {
  std::set<NodeId> closure = known;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (closure.contains(id)) continue;
      const Node& node = nodes_[id];
      if (node.inputs.empty()) continue;  // roots only enter via `known`
      bool fires;
      if (node.is_gate) {
        // AND gate: all inputs required.
        fires = true;
        for (NodeId in : node.inputs) {
          if (!closure.contains(in)) {
            fires = false;
            break;
          }
        }
      } else {
        // Information element: any one derivation suffices.
        fires = false;
        for (NodeId in : node.inputs) {
          if (closure.contains(in)) {
            fires = true;
            break;
          }
        }
      }
      if (fires) {
        closure.insert(id);
        changed = true;
      }
    }
  }
  return closure;
}

bool Gadget::derivable(const std::set<NodeId>& known, NodeId target) const {
  return derive(known).contains(target);
}

bool Gadget::derivable(const std::set<NodeId>& known,
                       const std::string& target) const {
  return derivable(known, find(target));
}

std::vector<std::string> Gadget::exposed_sensitive(
    const std::set<NodeId>& known) const {
  std::vector<std::string> out;
  const std::set<NodeId> closure = derive(known);
  for (NodeId id : closure) {
    if (!nodes_[id].is_gate && nodes_[id].sensitive && !known.contains(id)) {
      out.push_back(nodes_[id].name);
    }
  }
  return out;
}

std::string Gadget::to_dot(const std::string& graph_name) const {
  std::string out = "digraph " + graph_name + " {\n  rankdir=LR;\n";
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    out += "  n" + std::to_string(id) + " [label=\"" + node.name + "\"";
    if (node.is_gate) {
      out += ", shape=box, style=filled, fillcolor=lightgray";
    } else if (node.sensitive) {
      out += ", shape=ellipse, penwidth=3";
    } else {
      out += ", shape=ellipse";
    }
    out += "];\n";
  }
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    for (NodeId in : nodes_[id].inputs) {
      out += "  n" + std::to_string(in) + " -> n" + std::to_string(id) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

Knowledge& Knowledge::sees(const Gadget& g, const std::string& element) {
  nodes_.insert(g.find(element));
  return *this;
}

Knowledge& Knowledge::sees_all(const Gadget& g,
                               std::initializer_list<const char*> elements) {
  for (const char* e : elements) sees(g, e);
  return *this;
}

Knowledge Knowledge::pool(const Knowledge& a, const Knowledge& b) {
  Knowledge k;
  k.nodes_ = a.nodes_;
  k.nodes_.insert(b.nodes_.begin(), b.nodes_.end());
  return k;
}

// --- Prebuilt gadgets ---------------------------------------------------------------

Gadget make_pbe_gadget() {
  Gadget g;
  // Core elements (Fig. 5). Sensitive: message (GUID), attribute vector x
  // (metadata), interest vector y, and the identity associations.
  const NodeId m = g.add_info("m", /*sensitive=*/true);        // plaintext GUID
  const NodeId x = g.add_info("x", /*sensitive=*/true);        // metadata vector
  const NodeId y = g.add_info("y", /*sensitive=*/true);        // interest vector
  const NodeId pk = g.add_info("pk_pbe");
  const NodeId sk = g.add_info("sk_pbe");
  const NodeId ct = g.add_info("ct_pbe");
  const NodeId token = g.add_info("t_y");
  // Capability/space elements for the probing attacks.
  const NodeId x_space = g.add_info("X");    // ability to enumerate metadata
  const NodeId y_space = g.add_info("Y");    // ability to enumerate interests
  const NodeId all_tokens = g.add_info("T_Y");
  // Identity associations (broken edges in Fig. 5).
  const NodeId pid = g.add_info("pid");
  const NodeId sid = g.add_info("sid");
  const NodeId a_pid_x = g.add_info("a_pid_x", /*sensitive=*/true);
  const NodeId a_sid_y = g.add_info("a_sid_y", /*sensitive=*/true);

  // Encrypt: (m, x, pk) -> ct.
  g.add_derivation("Encrypt", {m, x, pk}, ct);
  // GenToken: (y, sk) -> t_y.
  g.add_derivation("GenToken", {y, sk}, token);
  // Query: (ct, t_y) -> m (on match).
  g.add_derivation("Query", {ct, token}, m);
  // Orange attack edges: token probing reveals y from (t_y, pk, X).
  g.add_derivation("TokenProbe", {token, pk, x_space}, y);
  // Exhaustive token set reveals x from (ct, T_Y).
  g.add_derivation("TokenExhaust", {ct, all_tokens, y_space}, x);
  // Accumulating all tokens needs sk-equivalent access to the whole space.
  g.add_derivation("AccumulateTokens", {y_space, sk}, all_tokens);
  // Associations: identity plus the secret links them.
  g.add_derivation("BindPub", {pid, x}, a_pid_x);
  g.add_derivation("BindSub", {sid, y}, a_sid_y);
  return g;
}

Gadget make_cpabe_gadget() {
  Gadget g;
  const NodeId m = g.add_info("m_A", /*sensitive=*/true);  // payload
  const NodeId policy = g.add_info("policy");              // public by design
  const NodeId pk = g.add_info("pk_abe");
  const NodeId mk = g.add_info("mk_abe");
  const NodeId attrs = g.add_info("S");                    // key attribute set
  const NodeId sk = g.add_info("sk_S");
  const NodeId sat = g.add_info("S_satisfies_policy");     // premise
  const NodeId ct = g.add_info("ct_abe");

  g.add_derivation("Encrypt", {m, policy, pk}, ct);
  // The policy travels in the clear with the ciphertext.
  g.add_derivation("ReadPolicy", {ct}, policy);
  g.add_derivation("KeyGen", {mk, attrs}, sk);
  g.add_derivation("Decrypt", {ct, sk, sat}, m);
  return g;
}

Gadget make_pk_gadget() {
  Gadget g;
  const NodeId m = g.add_info("m_pk", /*sensitive=*/true);
  const NodeId pk = g.add_info("pk_svc");
  const NodeId sk = g.add_info("sk_svc");
  const NodeId ct = g.add_info("ct_pk");
  g.add_derivation("Encrypt", {m, pk}, ct);
  g.add_derivation("Decrypt", {ct, sk}, m);
  return g;
}

Gadget make_sk_gadget() {
  Gadget g;
  const NodeId m = g.add_info("m_sk", /*sensitive=*/true);
  const NodeId ks = g.add_info("Ks");
  const NodeId ct = g.add_info("ct_sk");
  g.add_derivation("Seal", {m, ks}, ct);
  g.add_derivation("Open", {ct, ks}, m);
  return g;
}

}  // namespace p3s::gadget
