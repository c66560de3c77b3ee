// The wsync_serve line protocol: one job per input line, parsed here so the
// CTest CLI cases and the unit suite pin the same grammar.
//
// Grammar (tokens separated by spaces/tabs):
//
//   run NAME [seeds=K] [max_rounds=K] [engine=dense|sparse|auto]
//   all [seeds=K] [max_rounds=K] [engine=dense|sparse|auto]
//   ping
//   quit
//   # comment            (ignored, as are blank lines)
//
// Parsing is strict: an unknown command, a duplicate or malformed option,
// or trailing junk throws std::invalid_argument whose what() starts with
// "malformed job line" — wsync_serve forwards that text verbatim and exits
// 2, which the protocol tests pin. Scenario-name resolution is the
// caller's job (parse never touches the registry).
#ifndef WSYNC_SERVICE_SERVE_PROTOCOL_H_
#define WSYNC_SERVICE_SERVE_PROTOCOL_H_

#include <optional>
#include <string>

#include "src/common/types.h"
#include "src/scenario/scenario.h"

namespace wsync {

struct ServeJob {
  enum class Kind {
    kRun,   ///< one named scenario
    kAll,   ///< the whole catalog
    kPing,  ///< liveness probe; answered with "pong"
    kQuit,  ///< stop reading, shut down cleanly
  };

  Kind kind = Kind::kRun;
  std::string name;            ///< kRun only
  int seeds = 0;               ///< 0 = scenario default
  long max_rounds = 0;         ///< 0 = no override
  EngineMode engine = EngineMode::kAuto;
};

/// Parses one protocol line. Returns nullopt for blank/comment lines;
/// throws std::invalid_argument ("malformed job line: ...") otherwise on
/// any syntax error.
std::optional<ServeJob> parse_job_line(const std::string& line);

/// Parses an --engine / engine= value; returns false on anything but
/// dense/sparse/auto. Shared by wsync_run and the serve protocol so the
/// two CLIs cannot drift.
bool parse_engine_mode(const std::string& text, EngineMode* mode);

/// `scenario` with a max-rounds budget (0 = keep each point's own) and an
/// engine (kAuto with budget 0 = return it unchanged) applied to every
/// grid point: wsync_run's --max-rounds/--engine and the serve protocol's
/// max_rounds=/engine= options.
Scenario with_overrides(const Scenario& scenario, long max_rounds,
                        EngineMode engine);

}  // namespace wsync

#endif  // WSYNC_SERVICE_SERVE_PROTOCOL_H_
