// Structure-of-arrays sweep results.
//
// A full footnote-4 sweep produces 36,380 results. Carrying a deep
// ClusterSpec (strings, DVFS ladders, CPI tables) per result makes the
// frontier extraction sort/swap kilobyte-sized structs; an EvaluationSet
// stores the four metric columns contiguously and materializes the heavy
// per-configuration Evaluation lazily — only for the handful of
// configurations a caller actually selects (frontier members, deadline
// picks, EDP optima).
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "hcep/config/space.hpp"
#include "hcep/model/cluster_spec.hpp"
#include "hcep/util/units.hpp"

namespace hcep::config {

/// One evaluated configuration, fully materialized.
struct Evaluation {
  std::uint64_t index = 0;      ///< position in the ConfigSpace
  model::ClusterSpec config;
  Seconds time{};               ///< job execution time T_P
  Joules energy{};              ///< job energy E_P
  Watts idle_power{};
  Watts busy_power{};
};

/// std::allocator whose value-less construct default-initializes: a
/// vector<double, DefaultInitAllocator<double>>(n) allocates n doubles
/// and writes none of them, so the first write to a page is the one that
/// fills it.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

/// One metric column of an EvaluationSet.
using MetricColumn = std::vector<double, DefaultInitAllocator<double>>;

/// Sweep results for every configuration of a ConfigSpace, stored as
/// parallel metric columns indexed by configuration index. Borrows the
/// space (for lazy materialization): the space must outlive the set.
class EvaluationSet {
 public:
  EvaluationSet() = default;
  /// A set of `n` rows whose values are unset until `set` writes them:
  /// the columns are allocated but not initialized, so the sweep's pool
  /// workers, not this constructor, touch their pages first.
  /// evaluate_space writes every row.
  EvaluationSet(const ConfigSpace* space, std::size_t n)
      : space_(space), time_(n), energy_(n), idle_(n), busy_(n) {}

  [[nodiscard]] std::size_t size() const { return time_.size(); }
  [[nodiscard]] bool empty() const { return time_.empty(); }
  [[nodiscard]] const ConfigSpace* space() const { return space_; }

  [[nodiscard]] Seconds time(std::size_t i) const {
    return Seconds{time_[i]};
  }
  [[nodiscard]] Joules energy(std::size_t i) const {
    return Joules{energy_[i]};
  }
  [[nodiscard]] Watts idle_power(std::size_t i) const {
    return Watts{idle_[i]};
  }
  [[nodiscard]] Watts busy_power(std::size_t i) const {
    return Watts{busy_[i]};
  }

  /// Raw columns (seconds / joules / watts), index-aligned.
  [[nodiscard]] const MetricColumn& times() const { return time_; }
  [[nodiscard]] const MetricColumn& energies() const { return energy_; }
  [[nodiscard]] const MetricColumn& idle_powers() const { return idle_; }
  [[nodiscard]] const MetricColumn& busy_powers() const { return busy_; }

  /// Writes one row (thread-safe for distinct `i`).
  void set(std::size_t i, Seconds time, Joules energy, Watts idle_power,
           Watts busy_power) {
    time_[i] = time.value();
    energy_[i] = energy.value();
    idle_[i] = idle_power.value();
    busy_[i] = busy_power.value();
  }

  /// Decodes the ClusterSpec for row `i` and assembles the classic
  /// Evaluation — the only place the sweep pipeline pays for deep copies.
  [[nodiscard]] Evaluation materialize(std::size_t i) const;

 private:
  const ConfigSpace* space_ = nullptr;
  MetricColumn time_;    ///< T_P [s]
  MetricColumn energy_;  ///< E_P [J]
  MetricColumn idle_;    ///< cluster idle floor [W]
  MetricColumn busy_;    ///< cluster busy power [W]
};

}  // namespace hcep::config
