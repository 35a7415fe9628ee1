#include "hcep/config/pareto.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>

#include "hcep/obs/obs.hpp"
#include "hcep/util/error.hpp"

namespace hcep::config {

EvaluationSet evaluate_space(const ConfigSpace& space,
                             const workload::Workload& workload,
                             ThreadPool* pool) {
  // One heavyweight pass: per-tuple unit times, throughputs and power
  // rates. Also validates workload coverage of every type up front.
  const OperatingPointTable table(space, workload);

  EvaluationSet out(&space, space.size());

  const std::size_t num_types = space.types().size();
  std::uint64_t radix[kMaxTypes];
  std::uint64_t points[kMaxTypes];
  for (std::size_t i = 0; i < num_types; ++i) {
    radix[i] = space.types()[i].tuples() + 1;
    points[i] = space.points_for(i);
  }

  // Chunked sweep: each chunk seeds a mixed-radix odometer with one
  // div/mod chain, then advances digits incrementally — the hot loop is
  // pure table arithmetic with no per-configuration division and no
  // ClusterSpec/NodeSpec/Workload construction or heap allocation.
  constexpr std::uint64_t kChunk = 1024;
  const std::uint64_t n_cfg = space.size();
  const std::uint64_t n_chunks = (n_cfg + kChunk - 1) / kChunk;

  // Chunks execute on pool workers, so the caller's observer is captured
  // here rather than re-resolved per chunk (workers only see the global
  // fallback). The configuration and chunk counts are known up front and
  // added once, after the sweep; each chunk observes only its own time.
  obs::Observer* o = obs::current();
  obs::MetricId configs_m = 0, chunks_m = 0, chunk_us_m = 0;
  if (o != nullptr) {
    configs_m = o->metrics.counter("sweep.configs");
    chunks_m = o->metrics.counter("sweep.chunks");
    chunk_us_m = o->metrics.histogram(
        "sweep.chunk_us", {10, 50, 100, 500, 1000, 5000, 10000, 50000});
  }

  auto sweep_chunk = [&](std::size_t c) {
    const auto chunk_start = o != nullptr
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    const std::uint64_t begin = c * kChunk;
    const std::uint64_t end = std::min(n_cfg, begin + kChunk);

    // Per-type digit plus its decoded (point, count); digit 0 = absent.
    std::uint64_t digit[kMaxTypes];
    std::uint32_t point[kMaxTypes];
    std::uint32_t count[kMaxTypes];
    std::uint64_t code = begin + 1;  // code 0 is the empty cluster
    for (std::size_t i = 0; i < num_types; ++i) {
      digit[i] = code % radix[i];
      code /= radix[i];
      const std::uint64_t d = digit[i] > 0 ? digit[i] - 1 : 0;
      point[i] = static_cast<std::uint32_t>(d % points[i]);
      count[i] = static_cast<std::uint32_t>(d / points[i] + 1);
    }

    DecodedGroup groups[kMaxTypes];
    for (std::uint64_t index = begin; index < end; ++index) {
      std::size_t n = 0;
      for (std::size_t i = 0; i < num_types; ++i) {
        if (digit[i] == 0) continue;
        groups[n].type = static_cast<std::uint32_t>(i);
        groups[n].count = count[i];
        groups[n].point = point[i];
        ++n;
      }
      const PointMetrics m = table.evaluate_job(groups, n);
      out.set(index, m.time, m.energy, m.idle_power, m.busy_power);

      // Advance the odometer (least-significant digit first).
      for (std::size_t i = 0; i < num_types; ++i) {
        if (++digit[i] == radix[i]) {
          digit[i] = 0;  // carry into the next type
          continue;
        }
        if (digit[i] == 1) {
          point[i] = 0;
          count[i] = 1;
        } else if (++point[i] == points[i]) {
          point[i] = 0;
          ++count[i];
        }
        break;
      }
    }
    if (o != nullptr) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - chunk_start);
      o->metrics.observe(chunk_us_m, static_cast<double>(elapsed.count()));
    }
  };

  ThreadPool& p = pool ? *pool : ThreadPool::global();
  parallel_for(p, 0, n_chunks, std::ref(sweep_chunk), 1);
  if (o != nullptr) {
    o->metrics.add(configs_m, n_cfg);
    o->metrics.add(chunks_m, n_chunks);
  }
  return out;
}

std::vector<Evaluation> evaluate_space_naive(
    const ConfigSpace& space, const workload::Workload& workload,
    ThreadPool* pool) {
  // Pre-check type coverage once instead of throwing per configuration.
  for (const auto& t : space.types()) {
    require(workload.has_node(t.spec.name),
            "evaluate_space: workload '" + workload.name +
                "' lacks demand for node type '" + t.spec.name + "'");
  }

  std::vector<Evaluation> out(space.size());
  auto evaluate_one = [&](std::size_t i) {
    model::ClusterSpec cfg = space.config_at(i);
    model::TimeEnergyModel m(cfg, workload);
    Evaluation& e = out[i];
    e.index = i;
    e.time = m.execution_time(workload.units_per_job).t_p;
    e.energy = m.job_energy(workload.units_per_job).e_p;
    e.idle_power = m.idle_power();
    e.busy_power = m.busy_power();
    e.config = std::move(cfg);
  };

  ThreadPool& p = pool ? *pool : ThreadPool::global();
  parallel_for(p, 0, space.size(), evaluate_one, 256);
  return out;
}

std::vector<Evaluation> pareto_front(std::vector<Evaluation> evaluations) {
  if (evaluations.empty()) return evaluations;
  std::sort(evaluations.begin(), evaluations.end(),
            [](const Evaluation& a, const Evaluation& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.energy < b.energy;
            });
  std::vector<Evaluation> front;
  double best_energy = std::numeric_limits<double>::infinity();
  for (auto& e : evaluations) {
    if (e.energy.value() < best_energy) {
      best_energy = e.energy.value();
      front.push_back(std::move(e));
    }
  }
  return front;
}

std::vector<Evaluation> pareto_front(const EvaluationSet& evals) {
  if (evals.empty()) return {};
  const double* time = evals.times().data();
  const double* energy = evals.energies().data();
  const std::size_t n = evals.size();
  ThreadPool& pool = ThreadPool::global();

  // Bucketed domination prefilter: bucket the time axis, take the prefix
  // minimum of per-bucket energies, and drop every point beaten on energy
  // by some strictly earlier bucket (which is strictly faster, so the
  // dropped point is dominated). Frontier members are never dominated and
  // always survive; the sort below then runs on the few survivors.
  //
  // Buckets are geometric: a double's bits, sign-folded, are monotone in
  // its value, so the key's top bits split the time axis into octaves and
  // slices of them. A sweep's slowest time can be 56,600x its fastest;
  // equal-width buckets put most points in the first bucket, where
  // nothing is dropped. (t + 0.0 turns -0.0 into +0.0, so equal times
  // share one key.)
  //
  // The passes run on the global pool: the key range is a
  // parallel_reduce, and the others split the rows into fixed blocks of
  // kScanBlock, each writing only its own slots, which are combined in
  // block order. No result depends on which thread ran a block.
  auto key_of = [](double t) {
    const auto b = std::bit_cast<std::uint64_t>(t + 0.0);
    return (b >> 63) != 0 ? ~b : b | std::uint64_t{1} << 63;
  };
  const std::size_t blocks = (n + kScanBlock - 1) / kScanBlock;
  const auto for_each_block = [&](const auto& pass) {
    parallel_for(
        pool, 0, blocks,
        [&pass, n](std::size_t b) {
          pass(b, b * kScanBlock, std::min(n, (b + 1) * kScanBlock));
        },
        1);
  };

  struct KeyRange {
    std::uint64_t lo, hi;
  };
  const KeyRange range = parallel_reduce(
      pool, 0, n, KeyRange{~std::uint64_t{0}, 0},
      [&](std::size_t i) {
        const std::uint64_t k = key_of(time[i]);
        return KeyRange{k, k};
      },
      [](KeyRange a, KeyRange b) {
        return KeyRange{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
      },
      kScanBlock);
  constexpr std::uint64_t kMaxBuckets = 1024;
  unsigned shift = 0;
  while ((range.hi >> shift) - (range.lo >> shift) >= kMaxBuckets) ++shift;
  const std::uint64_t base = range.lo >> shift;
  auto bucket_of = [&](double t) {
    return static_cast<std::size_t>((key_of(t) >> shift) - base);
  };

  // One row of bucket minima per block, folded into the first row in
  // block order (std::min keeps the earlier of equal values, as the
  // serial fold did).
  const std::size_t buckets =
      static_cast<std::size_t>((range.hi >> shift) - base + 1);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> block_min(blocks * buckets, inf);
  for_each_block([&](std::size_t b, std::size_t lo, std::size_t hi) {
    double* row = block_min.data() + b * buckets;
    for (std::size_t i = lo; i < hi; ++i) {
      double& slot = row[bucket_of(time[i])];
      slot = std::min(slot, energy[i]);
    }
  });
  double* bucket_min = block_min.data();
  for (std::size_t b = 1; b < blocks; ++b) {
    const double* row = block_min.data() + b * buckets;
    for (std::size_t k = 0; k < buckets; ++k)
      bucket_min[k] = std::min(bucket_min[k], row[k]);
  }
  double running = inf;  // prefix min over faster buckets
  for (std::size_t k = 0; k < buckets; ++k) {
    const double here = bucket_min[k];
    bucket_min[k] = running;
    running = std::min(running, here);
  }
  // Dominated by a strictly faster bucket's best energy.
  auto dominated = [&](std::size_t i) {
    return bucket_min[bucket_of(time[i])] <= energy[i];
  };

  // Compact (time, energy, index) keys sort contiguously — no random
  // access into the metric columns per comparison, and no string-bearing
  // Evaluation structs are swapped. Each block counts its survivors
  // first, so the keys array is allocated once at its exact size and
  // every block writes its survivors, in index order, at its offset.
  struct Key {
    double time;
    double energy;
    std::uint64_t index;
  };
  std::vector<std::size_t> offset(blocks + 1, 0);
  for_each_block([&](std::size_t b, std::size_t lo, std::size_t hi) {
    std::size_t kept = 0;
    for (std::size_t i = lo; i < hi; ++i) kept += dominated(i) ? 0 : 1;
    offset[b + 1] = kept;
  });
  for (std::size_t b = 0; b < blocks; ++b) offset[b + 1] += offset[b];
  std::vector<Key> keys(offset[blocks]);
  for_each_block([&](std::size_t b, std::size_t lo, std::size_t hi) {
    Key* out = keys.data() + offset[b];
    for (std::size_t i = lo; i < hi; ++i)
      if (!dominated(i)) *out++ = Key{time[i], energy[i], i};
  });
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.energy != b.energy) return a.energy < b.energy;
    return a.index < b.index;
  });

  std::vector<Evaluation> front;
  double best_energy = std::numeric_limits<double>::infinity();
  for (const Key& k : keys) {
    if (k.energy < best_energy) {
      best_energy = k.energy;
      front.push_back(evals.materialize(k.index));
    }
  }
  return front;
}

namespace {

/// The row a scan keeps and the value it minimizes there.
struct Pick {
  double value;
  std::size_t row;
};

/// The row of `evals` with the least `value(i)`, the first such row on a
/// tie, starting from `init`: a reduction over blocks of at least
/// kScanBlock rows on the global pool. Keeping the earlier pick unless the
/// later one is strictly lower makes the block-order combine return
/// exactly the row a serial scan returns.
template <class Value>
Pick first_min(const EvaluationSet& evals, Pick init, Value value) {
  return parallel_reduce(
      ThreadPool::global(), 0, evals.size(), init,
      [&](std::size_t i) { return Pick{value(i), i}; },
      [](Pick a, Pick b) { return b.value < a.value ? b : a; }, kScanBlock);
}

}  // namespace

std::optional<Evaluation> min_energy_within_deadline(
    const std::vector<Evaluation>& evaluations, Seconds deadline) {
  std::optional<Evaluation> best;
  for (const auto& e : evaluations) {
    if (e.time > deadline) continue;
    if (!best || e.energy < best->energy) best = e;
  }
  return best;
}

std::optional<Evaluation> min_energy_within_deadline(
    const EvaluationSet& evals, Seconds deadline) {
  const double* time = evals.times().data();
  const double* energy = evals.energies().data();
  const double inf = std::numeric_limits<double>::infinity();
  // A row past the deadline scores +inf, which no pick is above.
  const Pick best = first_min(evals, Pick{inf, evals.size()},
                              [&](std::size_t i) {
                                return time[i] > deadline.value() ? inf
                                                                  : energy[i];
                              });
  if (best.row == evals.size()) return std::nullopt;
  return evals.materialize(best.row);
}

std::optional<Evaluation> fastest(
    const std::vector<Evaluation>& evaluations) {
  std::optional<Evaluation> best;
  for (const auto& e : evaluations) {
    if (!best || e.time < best->time) best = e;
  }
  return best;
}

std::optional<Evaluation> fastest(const EvaluationSet& evals) {
  if (evals.empty()) return std::nullopt;
  const double* time = evals.times().data();
  // Starting from row 0, as the serial scan did, keeps its answer when
  // row 0 is NaN or every time is +inf.
  const Pick best = first_min(evals, Pick{time[0], 0},
                              [&](std::size_t i) { return time[i]; });
  return evals.materialize(best.row);
}

JouleSeconds energy_delay_product(const Evaluation& e) {
  return e.energy * e.time;
}

JouleSecondsSquared energy_delay2_product(const Evaluation& e) {
  return e.energy * e.time * e.time;
}

std::optional<Evaluation> min_edp(const std::vector<Evaluation>& evaluations,
                                  bool squared) {
  std::optional<Evaluation> best;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& e : evaluations) {
    const double score = squared ? energy_delay2_product(e).value()
                                 : energy_delay_product(e).value();
    if (score < best_score) {
      best_score = score;
      best = e;
    }
  }
  return best;
}

std::optional<Evaluation> min_edp(const EvaluationSet& evals, bool squared) {
  const double* time = evals.times().data();
  const double* energy = evals.energies().data();
  const Pick best = first_min(
      evals, Pick{std::numeric_limits<double>::infinity(), evals.size()},
      [&](std::size_t i) {
        const double t = time[i];
        return energy[i] * t * (squared ? t : 1.0);
      });
  if (best.row == evals.size()) return std::nullopt;
  return evals.materialize(best.row);
}

}  // namespace hcep::config
