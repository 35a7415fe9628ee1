#include "hcep/traffic/arrivals.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>

#include "hcep/util/error.hpp"
#include "hcep/util/json.hpp"

namespace hcep::traffic {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class Poisson final : public ArrivalProcess {
 public:
  explicit Poisson(double rate) : rate_(rate) {
    require(rate_ > 0.0, "make_poisson: rate must be positive");
  }
  Seconds next(Seconds now, Rng& rng) override {
    return now + Seconds{rng.exponential(rate_)};
  }
  double mean_rate_per_s() const override { return rate_; }
  std::string name() const override { return "poisson"; }
  std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<Poisson>(rate_);
  }

 private:
  double rate_;
};

class Deterministic final : public ArrivalProcess {
 public:
  explicit Deterministic(double rate) : rate_(rate) {
    require(rate_ > 0.0, "make_deterministic: rate must be positive");
  }
  Seconds next(Seconds now, Rng&) override {
    return now + Seconds{1.0 / rate_};
  }
  double mean_rate_per_s() const override { return rate_; }
  std::string name() const override { return "deterministic"; }
  std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<Deterministic>(rate_);
  }

 private:
  double rate_;
};

class Mmpp final : public ArrivalProcess {
 public:
  explicit Mmpp(std::vector<MmppPhase> phases) : phases_(std::move(phases)) {
    require(phases_.size() >= 2, "make_mmpp: need at least two phases");
    bool any_rate = false;
    for (const auto& p : phases_) {
      require(p.rate_per_s >= 0.0, "make_mmpp: negative phase rate");
      require(p.mean_dwell.value() > 0.0, "make_mmpp: non-positive dwell");
      any_rate = any_rate || p.rate_per_s > 0.0;
    }
    require(any_rate, "make_mmpp: every phase has rate zero");
  }

  Seconds next(Seconds now, Rng& rng) override {
    // Competing exponentials: draw a candidate arrival in the current
    // phase; if the phase expires first, advance to the next phase and
    // redraw from the expiry instant (memorylessness makes this exact).
    double t = now.value();
    for (;;) {
      if (!dwell_armed_) {
        phase_end_ = t + rng.exponential(
                             1.0 / phases_[phase_].mean_dwell.value());
        dwell_armed_ = true;
      }
      const double rate = phases_[phase_].rate_per_s;
      const double candidate =
          rate > 0.0 ? t + rng.exponential(rate) : kInf;
      if (candidate <= phase_end_) return Seconds{candidate};
      t = phase_end_;
      phase_ = (phase_ + 1) % phases_.size();
      dwell_armed_ = false;
    }
  }

  double mean_rate_per_s() const override {
    // Cyclic chain: phase occupancy is proportional to mean dwell.
    double weighted = 0.0, total = 0.0;
    for (const auto& p : phases_) {
      weighted += p.rate_per_s * p.mean_dwell.value();
      total += p.mean_dwell.value();
    }
    return weighted / total;
  }
  std::string name() const override { return "mmpp"; }
  std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<Mmpp>(phases_);
  }

 private:
  std::vector<MmppPhase> phases_;
  std::size_t phase_ = 0;
  double phase_end_ = 0.0;
  bool dwell_armed_ = false;
};

class Diurnal final : public ArrivalProcess {
 public:
  Diurnal(double mean, double swing, Seconds period, double phase)
      : mean_(mean), swing_(swing), period_(period), phase_(phase) {
    require(mean_ > 0.0, "make_diurnal: mean rate must be positive");
    require(swing_ >= 0.0 && swing_ < 1.0,
            "make_diurnal: swing must lie in [0, 1)");
    require(period_.value() > 0.0, "make_diurnal: period must be positive");
  }

  Seconds next(Seconds now, Rng& rng) override {
    // Lewis-Shedler thinning against the peak rate: candidates at the
    // homogeneous peak rate, accepted with probability rate(t)/peak.
    const double peak = mean_ * (1.0 + swing_);
    double t = now.value();
    for (;;) {
      t += rng.exponential(peak);
      if (rng.uniform01() * peak <= rate_at(t)) return Seconds{t};
    }
  }

  double mean_rate_per_s() const override { return mean_; }
  std::string name() const override { return "diurnal"; }
  std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<Diurnal>(mean_, swing_, period_, phase_);
  }

 private:
  [[nodiscard]] double rate_at(double t) const {
    return mean_ * (1.0 + swing_ * std::sin(2.0 * std::numbers::pi *
                                            (t / period_.value() + phase_)));
  }

  double mean_;
  double swing_;
  Seconds period_;
  double phase_;
};

class Replay final : public ArrivalProcess {
 public:
  Replay(std::vector<Seconds> arrivals, bool loop)
      : arrivals_(std::move(arrivals)), loop_(loop) {
    require(!arrivals_.empty(), "make_replay: empty arrival trace");
    for (std::size_t k = 0; k < arrivals_.size(); ++k) {
      if (!std::isfinite(arrivals_[k].value()))
        throw PreconditionError("make_replay: arrival " + std::to_string(k) +
                                ": non-finite timestamp");
    }
    require(std::is_sorted(arrivals_.begin(), arrivals_.end()),
            "make_replay: arrivals must be sorted ascending");
    require(arrivals_.front().value() >= 0.0,
            "make_replay: negative timestamp");
  }

  Seconds next(Seconds now, Rng&) override {
    for (;;) {
      if (cursor_ == arrivals_.size()) {
        if (!loop_) return Seconds{kInf};
        // Repeat the trace, shifted past its span by one mean gap so the
        // looped stream keeps the recorded long-run rate.
        cursor_ = 0;
        shift_ += cycle_span();
      }
      const Seconds t = arrivals_[cursor_] + Seconds{shift_};
      ++cursor_;
      if (t >= now) return t;
    }
  }

  double mean_rate_per_s() const override {
    return static_cast<double>(arrivals_.size()) / cycle_span();
  }
  std::string name() const override { return "replay"; }
  std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<Replay>(arrivals_, loop_);
  }

 private:
  [[nodiscard]] double cycle_span() const {
    const double span =
        arrivals_.back().value() - arrivals_.front().value();
    if (arrivals_.size() < 2 || span <= 0.0) return 1.0;
    const double mean_gap =
        span / static_cast<double>(arrivals_.size() - 1);
    return span + mean_gap;
  }

  std::vector<Seconds> arrivals_;
  bool loop_;
  std::size_t cursor_ = 0;
  double shift_ = 0.0;
};

}  // namespace

std::unique_ptr<ArrivalProcess> make_poisson(double rate_per_s) {
  return std::make_unique<Poisson>(rate_per_s);
}

std::unique_ptr<ArrivalProcess> make_deterministic(double rate_per_s) {
  return std::make_unique<Deterministic>(rate_per_s);
}

std::unique_ptr<ArrivalProcess> make_mmpp(std::vector<MmppPhase> phases) {
  return std::make_unique<Mmpp>(std::move(phases));
}

std::unique_ptr<ArrivalProcess> make_bursty(double base_rate_per_s,
                                            Seconds base_dwell,
                                            double burst_rate_per_s,
                                            Seconds burst_dwell) {
  return make_mmpp({MmppPhase{base_rate_per_s, base_dwell},
                    MmppPhase{burst_rate_per_s, burst_dwell}});
}

std::unique_ptr<ArrivalProcess> make_diurnal(double mean_rate_per_s,
                                             double swing, Seconds period,
                                             double phase) {
  return std::make_unique<Diurnal>(mean_rate_per_s, swing, period, phase);
}

std::unique_ptr<ArrivalProcess> make_diurnal(double mean_rate_per_s,
                                             double swing, Seconds period,
                                             Seconds peak_offset) {
  require(period.value() > 0.0, "make_diurnal: period must be positive");
  return std::make_unique<Diurnal>(mean_rate_per_s, swing, period,
                                   -peak_offset.value() / period.value());
}

std::unique_ptr<ArrivalProcess> make_replay(std::vector<Seconds> arrivals,
                                            bool loop) {
  return std::make_unique<Replay>(std::move(arrivals), loop);
}

std::vector<Seconds> read_arrivals_csv(std::string_view text) {
  std::vector<Seconds> out;
  std::size_t lineno = 0;
  std::istringstream in{std::string(text)};
  std::string line;
  const auto rejected = [&](const std::string& why) {
    return PreconditionError("read_arrivals_csv: line " +
                             std::to_string(lineno) + ": " + why);
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    // The whole field must be a decimal number: no sign but '-', no
    // space, no hex, no trailing text. A subnormal is a value.
    const std::string_view first =
        std::string_view(line).substr(0, line.find(','));
    const char* end = first.data() + first.size();
    double ts = 0.0;
    const auto [ptr, ec] = std::from_chars(first.data(), end, ts);
    if (ec == std::errc::invalid_argument || ptr != end) {
      // A non-numeric first row is a header; anywhere else it is an error.
      if (lineno == 1 && out.empty()) continue;
      throw rejected("non-numeric timestamp '" + std::string(first) + "'");
    }
    if (ec == std::errc::result_out_of_range)
      throw rejected("timestamp '" + std::string(first) + "' out of range");
    if (!std::isfinite(ts)) throw rejected("non-finite timestamp");
    if (ts < 0.0) throw rejected("negative timestamp");
    out.push_back(Seconds{ts});
  }
  require(!out.empty(), "read_arrivals_csv: no arrivals in input");
  require(std::is_sorted(out.begin(), out.end()),
          "read_arrivals_csv: timestamps must be sorted ascending");
  return out;
}

std::vector<Seconds> read_arrivals_jsonl(std::string_view text) {
  std::vector<Seconds> out;
  std::size_t lineno = 0;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    JsonValue row;
    try {
      row = JsonValue::parse(line);
    } catch (const std::exception& e) {
      throw PreconditionError("read_arrivals_jsonl: line " +
                              std::to_string(lineno) + ": " + e.what());
    }
    const JsonValue* ts = row.find("ts");
    require(ts != nullptr, "read_arrivals_jsonl: line " +
                               std::to_string(lineno) + ": missing \"ts\"");
    const double v = ts->as_number();
    require(v >= 0.0, "read_arrivals_jsonl: line " + std::to_string(lineno) +
                          ": negative timestamp");
    out.push_back(Seconds{v});
  }
  require(!out.empty(), "read_arrivals_jsonl: no arrivals in input");
  require(std::is_sorted(out.begin(), out.end()),
          "read_arrivals_jsonl: timestamps must be sorted ascending");
  return out;
}

}  // namespace hcep::traffic
