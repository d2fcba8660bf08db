#ifndef CAUSALFORMER_OBS_FLIGHT_RECORDER_H_
#define CAUSALFORMER_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/observability.h"
#include "util/status.h"

/// \file
/// The flight recorder: pulls a point-in-time diagnostic bundle out of a
/// live (or dying) serving process.
///
/// A bundle is the process's black box at one instant:
///
///  * `logs.txt`    — the LogRing tail (the last structured log records);
///  * `metrics.txt` — MetricsRegistry::RenderText(), the full exposition;
///  * `trace.json`  — the TraceRing rendered as chrome://tracing JSON
///    (obs/trace_export.h), loadable in Perfetto;
///  * `traces.txt`  — the same traces as one ToString() line each;
///  * `state.txt`   — registered state providers (engine shape buckets,
///    running score-table entries, per-stream ring depths, server counters);
///  * `profile.folded` — folded CPU stacks from the attached sampling
///    profiler (obs/profiler.h), present only when one is attached via
///    set_profiler().
///
/// Three triggers produce a bundle: a `SIGUSR1` (serve_cli's self-pipe
/// handler calls DumpToDirectory on its poll loop), a CF_CHECK failure
/// (InstallCheckFailureDump hooks the fatal-log handler so the evidence
/// survives the abort), and a slow-request threshold crossing
/// (ArmSlowRequestDump hooks the TraceRing, cooldown-limited). The same
/// bundle is served remotely over the wire protocol v5 Dump frame
/// (docs/wire-protocol.md §4.10) for `serve_cli dump --connect`.
///
/// Directory dumps are atomic: the bundle is written into a hidden
/// temporary directory and rename(2)d into place, so a watcher never sees
/// a half-written bundle.

namespace causalformer {
namespace obs {

class Profiler;

/// One named member file of a diagnostic bundle.
struct DiagnosticFile {
  std::string name;     ///< file name inside the bundle directory
  std::string content;  ///< full file content
};

/// A point-in-time diagnostic bundle (what DumpToDirectory writes and the
/// wire DumpResult frame carries).
struct DiagnosticBundle {
  std::vector<DiagnosticFile> files;  ///< member files, fixed order
};

/// FlightRecorder construction knobs.
struct FlightRecorderOptions {
  /// Bundles land in `<directory>/dump_<millis>_<pid>_<seq>/` — `<seq>` is
  /// a process-wide monotonic counter, so two recorders (or two dumps
  /// inside one millisecond) can never collide on a name; the directory is
  /// created on first dump.
  std::string directory = "cf_dumps";
  /// LogRing records included in `logs.txt` (newest; 0 = all retained).
  size_t log_tail = 1024;
  /// Minimum seconds between two slow-request-triggered dumps (the
  /// SIGUSR1 and CF_CHECK triggers are never throttled).
  double slow_dump_cooldown_seconds = 60.0;
};

/// Assembles and dumps diagnostic bundles. Thread-safe; one per process,
/// constructed next to the Observability bundle and handed (by pointer)
/// to the wire server for the v5 Dump frame.
class FlightRecorder {
 public:
  /// A recorder reading from `obs` (not owned; may be null — metrics and
  /// trace members then carry a placeholder note, logs and state still
  /// dump). `obs`, if given, must outlive the recorder.
  explicit FlightRecorder(Observability* obs,
                          FlightRecorderOptions options = FlightRecorderOptions());

  /// Uninstalls any hooks this recorder installed (fatal-log handler,
  /// slow-trace hook).
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;  ///< not copyable
  FlightRecorder& operator=(const FlightRecorder&) =
      delete;  ///< not copyable

  /// Registers a named `state.txt` section; `provider` is invoked at every
  /// bundle build (possibly from the wire server's poll thread or, after
  /// InstallCheckFailureDump, mid-abort) and must be thread-safe.
  void AddStateProvider(const std::string& section,
                        std::function<std::string()> provider);

  /// Assembles the bundle now (logs, metrics, chrome trace, trace lines,
  /// provider state) without touching the filesystem.
  DiagnosticBundle BuildBundle() const;

  /// Writes BuildBundle() atomically into a fresh timestamped directory
  /// under options.directory; returns the bundle directory path.
  StatusOr<std::string> DumpToDirectory();

  /// Hooks the fatal-log handler (util/logging.h) so a CF_CHECK failure
  /// dumps a bundle before the process aborts.
  void InstallCheckFailureDump();

  /// Hooks the TraceRing's slow-trace callback so a slow-request
  /// threshold crossing dumps a bundle, at most once per cooldown.
  /// Requires a non-null Observability.
  void ArmSlowRequestDump();

  /// Attaches a sampling profiler (not owned; must outlive the recorder,
  /// or be detached with nullptr first). While attached, every bundle
  /// carries a `profile.folded` member with the folded stacks accumulated
  /// since the profiler's last collection window.
  void set_profiler(Profiler* profiler);

 private:
  /// The slow-trace hook body: cooldown check, then DumpToDirectory.
  void MaybeDumpOnSlowTrace();

  Observability* const obs_;
  const FlightRecorderOptions options_;

  mutable std::mutex mu_;  ///< guards providers_ + dump bookkeeping
  std::vector<std::pair<std::string, std::function<std::string()>>>
      providers_;
  Profiler* profiler_ = nullptr;
  double last_slow_dump_seconds_ = 0;
  bool slow_dumped_once_ = false;
  bool fatal_hook_installed_ = false;
  bool slow_hook_armed_ = false;
};

}  // namespace obs
}  // namespace causalformer

#endif  // CAUSALFORMER_OBS_FLIGHT_RECORDER_H_
