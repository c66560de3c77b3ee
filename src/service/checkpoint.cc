#include "src/service/checkpoint.h"

#include <bit>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <vector>

#include "src/stats/summary.h"

namespace wsync {

namespace {

// v3 appended the seven deterministic/engine run-metric sums to every chunk
// line; a v2 file no longer round-trips and is rejected by the header check.
constexpr char kHeaderPrefix[] = "wsync-checkpoint v3 fingerprint ";

std::string hex64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool parse_hex64(const std::string& token, uint64_t* out) {
  if (token.size() != 16) return false;
  uint64_t value = 0;
  for (const char c : token) {
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = value << 4 | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

std::string double_bits(double value) {
  return hex64(std::bit_cast<uint64_t>(value));
}

bool parse_double_bits(const std::string& token, double* out) {
  uint64_t bits = 0;
  if (!parse_hex64(token, &bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

void encode_summary(std::ostringstream& os, const Summary& s) {
  os << ' ' << s.count << ' ' << double_bits(s.mean) << ' '
     << double_bits(s.stddev) << ' ' << double_bits(s.min) << ' '
     << double_bits(s.max) << ' ' << double_bits(s.p50) << ' '
     << double_bits(s.p90) << ' ' << double_bits(s.p99);
}

/// Sequential token reader over one whitespace-split line.
class TokenReader {
 public:
  explicit TokenReader(const std::string& text) : in_(text) {}

  bool next(std::string* token) { return static_cast<bool>(in_ >> *token); }

  template <typename Int>
  bool next_int(Int* out) {
    long long value = 0;
    if (!(in_ >> value)) return false;
    *out = static_cast<Int>(value);
    return static_cast<long long>(*out) == value;
  }

  bool next_double_bits(double* out) {
    std::string token;
    return next(&token) && parse_double_bits(token, out);
  }

  /// The seven doubles of a Summary (the caller reads its count).
  bool next_summary_doubles(Summary* s) {
    return next_double_bits(&s->mean) && next_double_bits(&s->stddev) &&
           next_double_bits(&s->min) && next_double_bits(&s->max) &&
           next_double_bits(&s->p50) && next_double_bits(&s->p90) &&
           next_double_bits(&s->p99);
  }

  bool at_end() {
    std::string extra;
    return !(in_ >> extra);
  }

 private:
  std::istringstream in_;
};

}  // namespace

uint64_t fnv1a64(const std::string& text, uint64_t seed) {
  uint64_t hash = seed;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3;
  }
  return hash;
}

std::string encode_chunk_line(const std::string& scenario,
                              size_t point_index, const PointResult& r) {
  std::ostringstream os;
  os << "chunk " << scenario << ' ' << point_index;
  for (const CountField& field : kCountFields) os << ' ' << r.*field.member;
  os << ' ' << double_bits(r.max_broadcast_weight);
  for (const SummaryField& field : kSummaryFields) {
    encode_summary(os, r.*field.member);
  }
  std::string line = os.str();
  line += " #" + hex64(fnv1a64(line));
  return line;
}

std::string decode_chunk_line(const std::string& line, std::string* scenario,
                              size_t* point_index, PointResult* result) {
  const size_t marker = line.rfind(" #");
  if (marker == std::string::npos) return "missing checksum";
  uint64_t checksum = 0;
  if (!parse_hex64(line.substr(marker + 2), &checksum)) {
    return "malformed checksum";
  }
  if (checksum != fnv1a64(line.substr(0, marker))) {
    return "checksum mismatch";
  }

  TokenReader reader(line.substr(0, marker));
  std::string tag;
  if (!reader.next(&tag) || tag != "chunk") return "not a chunk line";
  constexpr char kMalformed[] = "malformed chunk fields";
  if (!(reader.next(scenario) && reader.next_int(point_index))) {
    return kMalformed;
  }
  // A valid checksum proves the line intact, not sane: counts must be
  // non-negative, every run either synced or timed out (checked by
  // subtraction, which cannot overflow once both counts are non-negative),
  // and each summary must cover exactly the runs aggregate_point feeds it.
  PointResult r;
  bool implausible = false;
  for (const CountField& field : kCountFields) {
    if (!reader.next_int(&(r.*field.member))) return kMalformed;
    implausible = implausible || r.*field.member < 0;
  }
  if (!reader.next_double_bits(&r.max_broadcast_weight)) return kMalformed;
  for (const SummaryField& field : kSummaryFields) {
    Summary& summary = r.*field.member;
    int64_t count = 0;
    if (!reader.next_int(&count) || !reader.next_summary_doubles(&summary)) {
      return kMalformed;
    }
    implausible = implausible ||
                  count != (field.synced_only ? r.synced_runs : r.runs);
    summary.count = static_cast<size_t>(count);
  }
  if (!reader.at_end()) return kMalformed;
  if (implausible || r.runs - r.synced_runs != r.timeout_runs) {
    return "implausible chunk counts";
  }
  *result = r;
  return "";
}

CheckpointLoad load_checkpoint(const std::string& path,
                               uint64_t fingerprint) {
  CheckpointLoad load;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    load.error = "cannot open checkpoint '" + path + "'";
    return load;
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());

  // Split into newline-terminated lines; a trailing fragment without '\n'
  // is the interrupted-append tail and is dropped (never validated).
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < content.size()) {
    const size_t end = content.find('\n', start);
    if (end == std::string::npos) {
      load.dropped_partial_tail = true;
      break;
    }
    lines.push_back(content.substr(start, end - start));
    start = end + 1;
  }

  auto reject = [&load](size_t lineno, const std::string& why) {
    load.error = "checkpoint line " + std::to_string(lineno) + ": " + why;
    load.chunks.clear();
  };

  if (lines.empty()) {
    load.error = "checkpoint has no complete header line";
    return load;
  }
  const std::string& header = lines[0];
  const size_t prefix_len = sizeof(kHeaderPrefix) - 1;
  uint64_t file_fingerprint = 0;
  if (header.compare(0, prefix_len, kHeaderPrefix) != 0 ||
      !parse_hex64(header.substr(prefix_len), &file_fingerprint)) {
    reject(1, "malformed header (want '" + std::string(kHeaderPrefix) +
                  "<16-hex>')");
    return load;
  }
  if (file_fingerprint != fingerprint) {
    load.error =
        "checkpoint was written by a different run configuration "
        "(fingerprint " +
        hex64(file_fingerprint) + ", this run is " + hex64(fingerprint) +
        ")";
    return load;
  }

  for (size_t i = 1; i < lines.size(); ++i) {
    std::string scenario;
    size_t point_index = 0;
    PointResult result;
    const std::string why =
        decode_chunk_line(lines[i], &scenario, &point_index, &result);
    if (!why.empty()) {
      reject(i + 1, why);
      return load;
    }
    if (!load.chunks.emplace(std::make_pair(scenario, point_index), result)
             .second) {
      reject(i + 1, "duplicate chunk for scenario '" + scenario +
                        "' point " + std::to_string(point_index));
      return load;
    }
  }
  return load;
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   uint64_t fingerprint, bool resume)
    : out_(path, resume ? std::ios::binary | std::ios::app
                        : std::ios::binary | std::ios::trunc) {
  if (out_ && !resume) {
    out_ << kHeaderPrefix << hex64(fingerprint) << '\n';
    out_.flush();
  }
}

void CheckpointWriter::append(const std::string& scenario,
                              size_t point_index, const PointResult& result) {
  if (!out_) return;
  out_ << encode_chunk_line(scenario, point_index, result) << '\n';
  out_.flush();
}

}  // namespace wsync
