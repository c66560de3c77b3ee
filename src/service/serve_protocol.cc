#include "src/service/serve_protocol.h"

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace wsync {

namespace {

[[noreturn]] void malformed(const std::string& line, const std::string& why) {
  throw std::invalid_argument("malformed job line: " + why + " in '" + line +
                              "'");
}

bool parse_positive(const std::string& text, long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (*end != '\0' || parsed < 1 || parsed > (1L << 40)) return false;
  *out = parsed;
  return true;
}

/// Applies one key=value option token to `job`; registers which keys were
/// seen so duplicates are rejected.
void apply_option(const std::string& line, const std::string& token,
                  ServeJob* job, std::vector<std::string>* seen) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos) {
    malformed(line, "expected key=value option, got '" + token + "'");
  }
  const std::string key = token.substr(0, eq);
  const std::string value = token.substr(eq + 1);
  for (const std::string& previous : *seen) {
    if (previous == key) malformed(line, "duplicate option '" + key + "'");
  }
  seen->push_back(key);

  long parsed = 0;
  if (key == "seeds") {
    if (!parse_positive(value, &parsed) || parsed > 1 << 20) {
      malformed(line, "bad seeds value '" + value + "'");
    }
    job->seeds = static_cast<int>(parsed);
  } else if (key == "max_rounds") {
    if (!parse_positive(value, &parsed)) {
      malformed(line, "bad max_rounds value '" + value + "'");
    }
    job->max_rounds = parsed;
  } else if (key == "engine") {
    if (!parse_engine_mode(value, &job->engine)) {
      malformed(line, "bad engine value '" + value +
                          "' (want dense, sparse or auto)");
    }
  } else {
    malformed(line, "unknown option '" + key + "'");
  }
}

}  // namespace

bool parse_engine_mode(const std::string& text, EngineMode* mode) {
  if (text == "dense") {
    *mode = EngineMode::kDense;
  } else if (text == "sparse") {
    *mode = EngineMode::kSparse;
  } else if (text == "auto") {
    *mode = EngineMode::kAuto;
  } else {
    return false;
  }
  return true;
}

Scenario with_overrides(const Scenario& scenario, long max_rounds,
                        EngineMode engine) {
  if (max_rounds == 0 && engine == EngineMode::kAuto) return scenario;
  Scenario overridden = scenario;
  for (ExperimentPoint& point : overridden.grid) {
    if (max_rounds != 0) point.max_rounds = max_rounds;
    point.engine = engine;
  }
  return overridden;
}

std::optional<ServeJob> parse_job_line(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  if (tokens.empty() || tokens[0][0] == '#') return std::nullopt;

  ServeJob job;
  size_t options_from = 0;
  if (tokens[0] == "run") {
    job.kind = ServeJob::Kind::kRun;
    if (tokens.size() < 2 || tokens[1].find('=') != std::string::npos) {
      malformed(line, "run needs a scenario name");
    }
    job.name = tokens[1];
    options_from = 2;
  } else if (tokens[0] == "all") {
    job.kind = ServeJob::Kind::kAll;
    options_from = 1;
  } else if (tokens[0] == "ping") {
    job.kind = ServeJob::Kind::kPing;
    options_from = 1;
  } else if (tokens[0] == "quit") {
    job.kind = ServeJob::Kind::kQuit;
    options_from = 1;
  } else {
    malformed(line, "unknown command '" + tokens[0] + "'");
  }

  if (job.kind == ServeJob::Kind::kPing ||
      job.kind == ServeJob::Kind::kQuit) {
    if (tokens.size() > options_from) {
      malformed(line, "'" + tokens[0] + "' takes no options");
    }
    return job;
  }

  std::vector<std::string> seen;
  for (size_t i = options_from; i < tokens.size(); ++i) {
    apply_option(line, tokens[i], &job, &seen);
  }
  return job;
}

}  // namespace wsync
