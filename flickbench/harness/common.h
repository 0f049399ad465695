// Shared pieces of the service-plane benchmark harness: clocks and naps,
// sample statistics, the harness's own wire codecs, and the deterministic
// key/value scheme every correctness check compares against.
//
// The harness encodes and decodes memcached binary frames, HTTP/1.1 and the
// Hadoop kv stream by hand instead of through the platform's grammar plane:
// the yardstick must not share code with the program it measures, or a
// change to the parsers would move both sides at once.
#ifndef FLICKBENCH_HARNESS_COMMON_H_
#define FLICKBENCH_HARNESS_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/time_util.h"
#include "net/transport.h"

namespace fb {

inline uint64_t Now() { return flick::MonotonicNanos(); }

// Harness threads busy-poll their connections, yielding the CPU between
// sweeps instead of sleeping. On the VMs this benchmark targets, a halted
// vCPU can take milliseconds to be scheduled again by the host, and a
// timed sleep costs ~7 us of CPU and wakes ~6 us late. A harness that slept
// between events (readiness hooks + futex) measured ingress p50 ~40 us and
// p90 63-699 us where the polling one measured 24 and 33-35 us. See
// METHODOLOGY.md, "CPU layout and busy polling".
void YieldCpu();
// A real sleep, for waits that are not on a measured path.
void SleepNs(uint64_t ns);

// Names the calling thread (shown in /proc/self/task/*/comm).
void NameThisThread(const char* name);

// CPU layout on hosts with four or more CPUs (no-op below that): the
// program's two workers pin themselves to CPUs 0 and 1; the harness owns
// the last two, the load thread the last one and the farm the one before.
// The program's poller is created while its creator is confined to the
// farm's CPU and inherits that mask: program threads never share a CPU
// with each other, and the poller always shares with the same (yielding)
// harness thread. Left floating, it made http_lb_churn bimodal from run to
// run (p50 ~215 us beside the farm, ~260 us beside the load thread).
enum class HarnessCpu { kLoad, kFarm };
void PinThisThread(HarnessCpu cpu);

// Order statistics over a sample of nanosecond durations.
class Samples {
 public:
  void Add(uint64_t v) { v_.push_back(v); }
  void Reserve(size_t n) { v_.reserve(n); }
  size_t size() const { return v_.size(); }
  // Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q);
  uint64_t Max() const { return v_.empty() ? 0 : *std::max_element(v_.begin(), v_.end()); }

 private:
  std::vector<uint64_t> v_;
  bool sorted_ = false;
};

// Median of `v` (the mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> v);

// ---------------------------------------------------------------- wires ----

// One non-blocking connection with its own byte buffers.
struct Wire {
  std::unique_ptr<flick::Connection> conn;
  std::string rx;
  size_t rx_off = 0;
  std::string tx;
  size_t tx_off = 0;

  // Writes as much pending tx as the transport takes; false on error.
  bool Flush();
  // Reads everything available; returns bytes read, or -1 once the peer
  // closed (after buffered bytes were delivered) or the read failed.
  long Fill();
  std::string_view Unread() const {
    return std::string_view(rx).substr(rx_off);
  }
  void Consume(size_t n);
  bool tx_pending() const { return tx_off < tx.size(); }
  void Close();
};

// ------------------------------------------------------ memcached binary ----

inline constexpr uint8_t kMcGet = 0x00;
inline constexpr uint8_t kMcSet = 0x01;
inline constexpr uint8_t kMcGetK = 0x0c;
inline constexpr uint8_t kMcMagicRequest = 0x80;
inline constexpr uint8_t kMcMagicResponse = 0x81;
inline constexpr uint16_t kMcOk = 0x0000;
inline constexpr uint16_t kMcNotFound = 0x0001;
inline constexpr uint16_t kMcInvalid = 0x0004;
inline constexpr uint16_t kMcUnknownCommand = 0x0081;
inline constexpr size_t kMcHeader = 24;

struct McFrame {
  uint8_t magic = 0;
  uint8_t opcode = 0;
  uint16_t status = 0;
  uint32_t opaque = 0;
  std::string_view key;
  std::string_view value;
};

// Appends one frame (no extras) to `out`. `status` is the vbucket field of a
// request and the status of a response.
void AppendMcFrame(std::string* out, uint8_t magic, uint8_t opcode, uint16_t status,
                   uint32_t opaque, std::string_view key, std::string_view value);

// Parses one frame at the front of `buf`: returns its size, 0 when the frame
// is incomplete, or -1 when the header is malformed.
long ParseMcFrame(std::string_view buf, McFrame* out);

// ------------------------------------------------------------- key space ----

inline constexpr size_t kKeyBytes = 8;
inline constexpr size_t kValueBytes = 32;

// "k0001234": fixed width so every request has the same size.
std::string KeyName(uint32_t index);
bool KeyIndex(std::string_view key, uint32_t* index);

// The 32-byte value key `index` holds at `version`; `seed` varies the
// padding so runs with different seeds move different bytes.
std::string ValueFor(uint32_t index, uint32_t version, uint64_t seed);
// Decodes a value produced by ValueFor; false when it is not one.
bool ValueVersion(std::string_view value, uint32_t index, uint64_t seed,
                  uint32_t* version);

// ------------------------------------------------------------------ HTTP ----

inline constexpr size_t kHttpBodyBytes = 137;

// The 137-byte body the farm answers request `id` with.
std::string HttpBodyFor(uint64_t id);
// "GET /r/<id> HTTP/1.1" with Host and Connection: close.
std::string HttpRequestFor(uint64_t id);

// Parsed HTTP/1.1 response head. ParseHttpResponse returns the full message
// size, 0 when incomplete, -1 when malformed.
struct HttpReply {
  int status = 0;
  std::string_view body;
};
long ParseHttpResponse(std::string_view buf, HttpReply* out);
// Parses a request head at the front of `buf` (requests carry no body):
// returns its size, 0 when incomplete, -1 when malformed; *id from /r/<id>.
long ParseHttpRequest(std::string_view buf, uint64_t* id);

// ---------------------------------------------------------------- Hadoop ----

// kv := key_len:u16be key value_len:u32be value (decimal count).
void AppendKv(std::string* out, std::string_view key, std::string_view value);
// Returns the pair's size, 0 when incomplete, -1 when malformed.
long ParseKv(std::string_view buf, std::string_view* key, uint64_t* count);

}  // namespace fb

#endif  // FLICKBENCH_HARNESS_COMMON_H_
