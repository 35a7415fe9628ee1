#include "hcep/obs/obs.hpp"

#include <atomic>

namespace hcep::obs {

namespace {
thread_local Observer* t_observer = nullptr;
/// Whether a ScopedObserver is installed; with t_observer == nullptr it
/// is the null sink, which masks the global fallback.
thread_local bool t_installed = false;
std::atomic<Observer*> g_observer{nullptr};
}  // namespace

Observer* current() {
  if (t_installed) return t_observer;
  return g_observer.load(std::memory_order_acquire);
}

void set_global(Observer* observer) {
  g_observer.store(observer, std::memory_order_release);
}

Observer* global() { return g_observer.load(std::memory_order_acquire); }

ScopedObserver::ScopedObserver(Observer& observer)
    : ScopedObserver(&observer) {}

ScopedObserver::ScopedObserver(Observer* observer)
    : previous_(t_observer), previous_installed_(t_installed) {
  t_observer = observer;
  t_installed = true;
}

ScopedObserver::~ScopedObserver() {
  t_observer = previous_;
  t_installed = previous_installed_;
}

}  // namespace hcep::obs
