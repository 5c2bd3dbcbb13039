// Metadata space (paper §2, §3.1): a fixed, predefined set of attributes
// with enumerated values, distributed by the ARA at registration. Metadata
// is a full assignment attribute→value; subscriber interest is a conjunctive
// equality predicate where unmentioned attributes are wildcards.
//
// The HVE mapping follows the paper: an attribute with up to 2^b values is
// encoded in b bits; a wildcard spans all b bits of its attribute. The
// paper's Table 1 uses P = 40 bits total.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "pbe/hve.hpp"

namespace p3s::pbe {

/// Full metadata assignment: every schema attribute must be present.
using Metadata = std::map<std::string, std::string>;

/// Conjunctive interest: attribute → required value; absent attributes are
/// wildcards. An empty map would be the all-wildcard predicate, which the
/// paper assumes honest clients never register (and HVE token generation
/// rejects).
using Interest = std::map<std::string, std::string>;

/// Plaintext match semantics (used by the baseline broker and as the
/// reference predicate for HVE property tests).
bool interest_matches(const Interest& interest, const Metadata& metadata);

/// Wire encoding for Metadata/Interest (both are string maps). Used by the
/// baseline broker (which ships them in the clear) and by the subscriber →
/// PBE-TS token request (where the plaintext predicate travels inside an
/// ECIES envelope).
Bytes serialize_string_map(const std::map<std::string, std::string>& m);
std::map<std::string, std::string> deserialize_string_map(BytesView data);

struct AttributeSpec {
  std::string name;
  std::vector<std::string> values;  // enumerated legal values
};

class MetadataSchema {
 public:
  /// Throws std::invalid_argument on duplicate names, empty value lists, or
  /// attributes with a single value (0 bits).
  explicit MetadataSchema(std::vector<AttributeSpec> attributes);

  /// The paper's evaluation-scale schema: `n_attrs` attributes with
  /// `n_values` values each (defaults give the 40-bit vector of Table 1:
  /// 13 attributes x 8 values = 39 bits ~ 40).
  static MetadataSchema uniform(std::size_t n_attrs, std::size_t n_values);

  const std::vector<AttributeSpec>& attributes() const { return attrs_; }
  /// Total HVE vector width in bits.
  std::size_t width() const { return width_; }

  /// Encode full metadata; throws std::invalid_argument on missing/unknown
  /// attributes or values.
  BitVector encode_metadata(const Metadata& md) const;

  /// Encode an interest; wildcards span each absent attribute's bits.
  /// Throws on unknown attributes/values or on the all-wildcard interest.
  Pattern encode_interest(const Interest& interest) const;

  Bytes serialize() const;
  static MetadataSchema deserialize(BytesView data);

  bool operator==(const MetadataSchema& other) const {
    return attrs_ == other.attrs_;
  }

 private:
  struct Layout {
    std::size_t offset;  // first bit
    std::size_t bits;    // bit count
  };
  std::size_t value_index(const AttributeSpec& spec,
                          const std::string& value) const;

  std::vector<AttributeSpec> attrs_;
  std::map<std::string, std::size_t> index_;  // name -> attrs_ position
  std::vector<Layout> layouts_;
  std::size_t width_ = 0;
};

inline bool operator==(const AttributeSpec& a, const AttributeSpec& b) {
  return a.name == b.name && a.values == b.values;
}

}  // namespace p3s::pbe
