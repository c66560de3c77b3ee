// Whitelist fixture: src/service/deadline.h is one of the two sanctioned
// wall-clock sites (the service I/O watchdog), so these steady_clock reads
// must NOT be flagged — asserted by this file's absence from expected.txt.
#ifndef WSYNC_LINTFIX_SERVICE_DEADLINE_H_
#define WSYNC_LINTFIX_SERVICE_DEADLINE_H_

#include <chrono>

namespace wsync::lintfix {

class Deadline {
 public:
  static Deadline after_ms(long ms) {
    Deadline deadline;
    deadline.end_ =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    return deadline;
  }

  bool expired() const { return std::chrono::steady_clock::now() >= end_; }

 private:
  std::chrono::steady_clock::time_point end_;
};

}  // namespace wsync::lintfix

#endif  // WSYNC_LINTFIX_SERVICE_DEADLINE_H_
