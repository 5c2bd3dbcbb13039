#include "attack/observer.hpp"

#include "exec/pool.hpp"

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

bool EavesdropperObserver::sent_in_window(const std::string& from,
                                          const std::string& to, double after,
                                          double until) const {
  for (const Sighting& s : sightings_) {
    if (s.time <= after || s.time > until) continue;
    if (s.from == from && s.to == to) return true;
  }
  return false;
}

std::map<std::pair<std::string, std::string>, LinkStats>
EavesdropperObserver::link_tally() const {
  LinkTally tally;
  exec::Pool::global().parallel_for(
      0, sightings_.size(),
      [&](std::size_t i) { tally.add(sightings_[i]); },
      /*grain=*/64);
  return tally.snapshot();
}

std::set<std::size_t> EavesdropperObserver::sizes_on(
    const std::string& from, const std::string& to) const {
  std::set<std::size_t> sizes;
  for (const Sighting& s : on_link(from, to)) sizes.insert(s.size);
  return sizes;
}

}  // namespace p3s::attack
