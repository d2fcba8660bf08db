#ifndef CAUSALFORMER_OBS_CLOCK_H_
#define CAUSALFORMER_OBS_CLOCK_H_

#include <functional>

/// \file
/// The one injectable monotonic time source of the serving stack.
///
/// Everything that measures time — Stopwatch call sites, the score cache's
/// TTL, trace spans, latency histograms — reads seconds through an
/// obs::Clock. The default clock is std::chrono::steady_clock; tests inject
/// a scripted callable (the `std::function<double()>` shape of the test
/// suite's ScriptedClock), so a single fake clock drives cache expiry, span
/// timestamps and histogram samples in lockstep instead of each layer
/// needing its own hook.

namespace causalformer {
namespace obs {

/// Seconds on the process-wide steady clock (monotonic, arbitrary epoch).
double SteadySeconds();

/// A seconds-valued monotonic clock, copyable and cheap to pass by value.
///
/// Default-constructed clocks read SteadySeconds(); a clock constructed
/// from a callable reads that instead. A default-constructed (real) clock
/// performs no allocation and no indirection beyond one branch.
class Clock {
 public:
  /// The real clock (steady_clock seconds).
  Clock() = default;

  /// A clock driven by `fn` (test seam). A null `fn` behaves like the
  /// real clock.
  explicit Clock(std::function<double()> fn) : fn_(std::move(fn)) {}

  /// Current time in seconds. Monotonic non-decreasing for the real clock;
  /// injected clocks are trusted to behave.
  double Now() const { return fn_ ? fn_() : SteadySeconds(); }

 private:
  std::function<double()> fn_;
};

}  // namespace obs
}  // namespace causalformer

#endif  // CAUSALFORMER_OBS_CLOCK_H_
