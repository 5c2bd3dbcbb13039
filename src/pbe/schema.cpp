#include "pbe/schema.hpp"

#include <stdexcept>

#include "common/serial.hpp"

namespace p3s::pbe {

bool interest_matches(const Interest& interest, const Metadata& metadata) {
  for (const auto& [attr, value] : interest) {
    const auto it = metadata.find(attr);
    if (it == metadata.end() || it->second != value) return false;
  }
  return true;
}

Bytes serialize_string_map(const std::map<std::string, std::string>& m) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [key, value] : m) {
    w.str(key);
    w.str(value);
  }
  return w.take();
}

std::map<std::string, std::string> deserialize_string_map(BytesView data) {
  Reader r(data);
  const std::uint32_t n = r.u32();
  if (n > 1u << 16) throw std::invalid_argument("string map too large");
  std::map<std::string, std::string> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key = r.str();
    out.emplace(std::move(key), r.str());
  }
  r.expect_done();
  return out;
}

namespace {
std::size_t bits_for(std::size_t n_values) {
  std::size_t bits = 0;
  std::size_t cap = 1;
  while (cap < n_values) {
    cap <<= 1;
    ++bits;
  }
  return bits;
}
}  // namespace

MetadataSchema::MetadataSchema(std::vector<AttributeSpec> attributes)
    : attrs_(std::move(attributes)) {
  if (attrs_.empty()) {
    throw std::invalid_argument("MetadataSchema: no attributes");
  }
  std::size_t offset = 0;
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    const AttributeSpec& spec = attrs_[i];
    if (spec.values.size() < 2) {
      throw std::invalid_argument("MetadataSchema: attribute '" + spec.name +
                                  "' needs >= 2 values");
    }
    if (!index_.emplace(spec.name, i).second) {
      throw std::invalid_argument("MetadataSchema: duplicate attribute '" +
                                  spec.name + "'");
    }
    const std::size_t bits = bits_for(spec.values.size());
    layouts_.push_back({offset, bits});
    offset += bits;
  }
  width_ = offset;
}

MetadataSchema MetadataSchema::uniform(std::size_t n_attrs,
                                       std::size_t n_values) {
  std::vector<AttributeSpec> specs;
  specs.reserve(n_attrs);
  for (std::size_t i = 0; i < n_attrs; ++i) {
    AttributeSpec spec;
    spec.name = "attr" + std::to_string(i);
    for (std::size_t v = 0; v < n_values; ++v) {
      spec.values.push_back("v" + std::to_string(v));
    }
    specs.push_back(std::move(spec));
  }
  return MetadataSchema(std::move(specs));
}

std::size_t MetadataSchema::value_index(const AttributeSpec& spec,
                                        const std::string& value) const {
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    if (spec.values[i] == value) return i;
  }
  throw std::invalid_argument("MetadataSchema: unknown value '" + value +
                              "' for attribute '" + spec.name + "'");
}

BitVector MetadataSchema::encode_metadata(const Metadata& md) const {
  BitVector out(width_, 0);
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    const AttributeSpec& spec = attrs_[i];
    const auto it = md.find(spec.name);
    if (it == md.end()) {
      throw std::invalid_argument("MetadataSchema: metadata missing attribute '" +
                                  spec.name + "'");
    }
    const std::size_t v = value_index(spec, it->second);
    for (std::size_t b = 0; b < layouts_[i].bits; ++b) {
      out[layouts_[i].offset + b] = static_cast<std::uint8_t>((v >> b) & 1);
    }
  }
  // Reject extraneous attributes to catch schema drift early.
  for (const auto& [attr, value] : md) {
    (void)value;
    if (!index_.contains(attr)) {
      throw std::invalid_argument("MetadataSchema: unknown attribute '" + attr +
                                  "'");
    }
  }
  return out;
}

Pattern MetadataSchema::encode_interest(const Interest& interest) const {
  if (interest.empty()) {
    throw std::invalid_argument(
        "MetadataSchema: all-wildcard interest is not permitted");
  }
  Pattern out(width_, kWildcard);
  for (const auto& [attr, value] : interest) {
    const auto it = index_.find(attr);
    if (it == index_.end()) {
      throw std::invalid_argument("MetadataSchema: unknown attribute '" + attr +
                                  "'");
    }
    const AttributeSpec& spec = attrs_[it->second];
    const Layout& lay = layouts_[it->second];
    const std::size_t v = value_index(spec, value);
    for (std::size_t b = 0; b < lay.bits; ++b) {
      out[lay.offset + b] = static_cast<std::int8_t>((v >> b) & 1);
    }
  }
  return out;
}

Bytes MetadataSchema::serialize() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(attrs_.size()));
  for (const AttributeSpec& spec : attrs_) {
    w.str(spec.name);
    w.u32(static_cast<std::uint32_t>(spec.values.size()));
    for (const std::string& v : spec.values) w.str(v);
  }
  return w.take();
}

MetadataSchema MetadataSchema::deserialize(BytesView data) {
  Reader r(data);
  const std::uint32_t n = r.u32();
  if (n > 1u << 16) throw std::invalid_argument("MetadataSchema: too large");
  std::vector<AttributeSpec> specs;
  specs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    AttributeSpec spec;
    spec.name = r.str();
    const std::uint32_t nv = r.u32();
    if (nv > 1u << 16) throw std::invalid_argument("MetadataSchema: too large");
    for (std::uint32_t v = 0; v < nv; ++v) spec.values.push_back(r.str());
    specs.push_back(std::move(spec));
  }
  r.expect_done();
  return MetadataSchema(std::move(specs));
}

}  // namespace p3s::pbe
