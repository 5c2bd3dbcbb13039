#include "attack/observer.hpp"

namespace p3s::attack {

std::vector<Sighting> EavesdropperObserver::on_link(
    const std::string& from, const std::string& to) const {
  std::vector<Sighting> out;
  for (const Sighting& s : sightings_) {
    if (!from.empty() && s.from != from) continue;
    if (!to.empty() && s.to != to) continue;
    out.push_back(s);
  }
  return out;
}

std::map<std::pair<std::string, std::string>, LinkStats>
EavesdropperObserver::link_tally() const {
  std::map<std::pair<std::string, std::string>, LinkStats> tally;
  for (const Sighting& s : sightings_) {
    LinkStats& stats = tally[{s.from, s.to}];
    ++stats.frames;
    stats.bytes += s.size;
  }
  return tally;
}

std::set<std::size_t> EavesdropperObserver::sizes_on(
    const std::string& from, const std::string& to) const {
  std::set<std::size_t> sizes;
  for (const Sighting& s : on_link(from, to)) sizes.insert(s.size);
  return sizes;
}

}  // namespace p3s::attack
