#include "harness/common.h"

#include <pthread.h>
#include <time.h>
#include <unistd.h>
#include <sched.h>

#include <cctype>
#include <cmath>
#include <cstdio>

namespace fb {

void YieldCpu() { sched_yield(); }

void SleepNs(uint64_t ns) {
  timespec ts{static_cast<time_t>(ns / 1'000'000'000),
              static_cast<long>(ns % 1'000'000'000)};
  nanosleep(&ts, nullptr);
}

void NameThisThread(const char* name) { pthread_setname_np(pthread_self(), name); }

void PinThisThread(HarnessCpu cpu) {
  const int cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (cpus < 4) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu == HarnessCpu::kLoad ? cpus - 1 : cpus - 2, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double Samples::Quantile(double q) {
  if (v_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(v_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v_[lo]) * (1.0 - frac) + static_cast<double>(v_[hi]) * frac;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------- Wire ----

bool Wire::Flush() {
  while (tx_off < tx.size()) {
    auto wrote = conn->Write(tx.data() + tx_off, tx.size() - tx_off);
    if (!wrote.ok()) {
      return false;
    }
    if (*wrote == 0) {
      return true;
    }
    tx_off += *wrote;
  }
  tx.clear();
  tx_off = 0;
  return true;
}

long Wire::Fill() {
  char buf[16384];
  long total = 0;
  for (;;) {
    auto got = conn->Read(buf, sizeof(buf));
    if (!got.ok()) {
      return total > 0 ? total : -1;
    }
    if (*got == 0) {
      return total;
    }
    rx.append(buf, *got);
    total += static_cast<long>(*got);
  }
}

void Wire::Consume(size_t n) {
  rx_off += n;
  if (rx_off == rx.size()) {
    rx.clear();
    rx_off = 0;
  } else if (rx_off > 65536) {
    rx.erase(0, rx_off);
    rx_off = 0;
  }
}

void Wire::Close() {
  if (conn) {
    conn->Close();
    conn.reset();
  }
  rx.clear();
  rx_off = 0;
  tx.clear();
  tx_off = 0;
}

// ------------------------------------------------------ memcached binary ----

namespace {

void PutBe(std::string* out, uint64_t v, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t GetBe(std::string_view b, size_t off, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v = (v << 8) | static_cast<uint8_t>(b[off + static_cast<size_t>(i)]);
  }
  return v;
}

}  // namespace

void AppendMcFrame(std::string* out, uint8_t magic, uint8_t opcode, uint16_t status,
                   uint32_t opaque, std::string_view key, std::string_view value) {
  out->push_back(static_cast<char>(magic));
  out->push_back(static_cast<char>(opcode));
  PutBe(out, key.size(), 2);
  out->push_back(0);  // extras length
  out->push_back(0);  // data type
  PutBe(out, status, 2);
  PutBe(out, key.size() + value.size(), 4);
  PutBe(out, opaque, 4);
  PutBe(out, 0, 8);  // cas
  out->append(key);
  out->append(value);
}

long ParseMcFrame(std::string_view buf, McFrame* out) {
  if (buf.size() < kMcHeader) {
    return 0;
  }
  const uint8_t magic = static_cast<uint8_t>(buf[0]);
  if (magic != kMcMagicRequest && magic != kMcMagicResponse) {
    return -1;
  }
  const size_t key_len = GetBe(buf, 2, 2);
  const size_t extras_len = static_cast<uint8_t>(buf[4]);
  const size_t body = GetBe(buf, 8, 4);
  if (body < key_len + extras_len || body > (1u << 20)) {
    return -1;
  }
  if (buf.size() < kMcHeader + body) {
    return 0;
  }
  out->magic = magic;
  out->opcode = static_cast<uint8_t>(buf[1]);
  out->status = static_cast<uint16_t>(GetBe(buf, 6, 2));
  out->opaque = static_cast<uint32_t>(GetBe(buf, 12, 4));
  out->key = buf.substr(kMcHeader + extras_len, key_len);
  out->value = buf.substr(kMcHeader + extras_len + key_len, body - extras_len - key_len);
  return static_cast<long>(kMcHeader + body);
}

// ------------------------------------------------------------- key space ----

std::string KeyName(uint32_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%07u", index % 10'000'000u);
  return std::string(buf, kKeyBytes);
}

bool KeyIndex(std::string_view key, uint32_t* index) {
  if (key.size() != kKeyBytes || key[0] != 'k') {
    return false;
  }
  uint32_t v = 0;
  for (size_t i = 1; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint32_t>(key[i] - '0');
  }
  *index = v;
  return true;
}

// Layout: "v" + 7-digit index + "." + 10-digit version + "." + 12 padding
// letters drawn from (index, seed).
std::string ValueFor(uint32_t index, uint32_t version, uint64_t seed) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "v%07u.%010u.", index % 10'000'000u, version);
  std::string v(buf, 20);
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + index;
  while (v.size() < kValueBytes) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 29;
    v.push_back(static_cast<char>('a' + x % 26));
  }
  return v;
}

bool ValueVersion(std::string_view value, uint32_t index, uint64_t seed,
                  uint32_t* version) {
  if (value.size() != kValueBytes) {
    return false;
  }
  uint32_t v = 0;
  for (size_t i = 9; i < 19; ++i) {
    if (value[i] < '0' || value[i] > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint32_t>(value[i] - '0');
  }
  if (value != ValueFor(index, v, seed)) {
    return false;
  }
  *version = v;
  return true;
}

// ------------------------------------------------------------------ HTTP ----

std::string HttpBodyFor(uint64_t id) {
  std::string body = "id=" + std::to_string(id) + ";";
  while (body.size() < kHttpBodyBytes) {
    body.push_back(static_cast<char>('A' + (body.size() * 7 + id) % 26));
  }
  return body;
}

std::string HttpRequestFor(uint64_t id) {
  return "GET /r/" + std::to_string(id) +
         " HTTP/1.1\r\nHost: flickbench\r\nConnection: close\r\n\r\n";
}

namespace {

bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool ParseDecimal(std::string_view s, uint64_t* out) {
  while (!s.empty() && s.front() == ' ') {
    s.remove_prefix(1);
  }
  while (!s.empty() && s.back() == ' ') {
    s.remove_suffix(1);
  }
  if (s.empty() || s.size() > 18) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

long ParseHttpResponse(std::string_view buf, HttpReply* out) {
  const size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return buf.size() > 8192 ? -1 : 0;
  }
  const std::string_view head = buf.substr(0, head_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view status_line = head.substr(0, line_end);
  if (status_line.size() < 12 || status_line.substr(0, 5) != "HTTP/") {
    return -1;
  }
  uint64_t status = 0;
  if (!ParseDecimal(status_line.substr(9, 3), &status)) {
    return -1;
  }
  uint64_t content_length = 0;
  bool have_length = false;
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t end = head.find("\r\n", pos);
    if (end == std::string_view::npos) {
      end = head.size();
    }
    const std::string_view line = head.substr(pos, end - pos);
    const size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        IEquals(line.substr(0, colon), "Content-Length")) {
      if (!ParseDecimal(line.substr(colon + 1), &content_length)) {
        return -1;
      }
      have_length = true;
    }
    pos = end + 2;
  }
  if (!have_length) {
    return -1;
  }
  const size_t total = head_end + 4 + content_length;
  if (buf.size() < total) {
    return 0;
  }
  out->status = static_cast<int>(status);
  out->body = buf.substr(head_end + 4, content_length);
  return static_cast<long>(total);
}

long ParseHttpRequest(std::string_view buf, uint64_t* id) {
  const size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return buf.size() > 8192 ? -1 : 0;
  }
  const std::string_view line = buf.substr(0, buf.find("\r\n"));
  const size_t path = line.find(" /r/");
  if (path == std::string_view::npos) {
    return -1;
  }
  const size_t start = path + 4;
  const size_t end = line.find(' ', start);
  if (end == std::string_view::npos || !ParseDecimal(line.substr(start, end - start), id)) {
    return -1;
  }
  return static_cast<long>(head_end + 4);
}

// ---------------------------------------------------------------- Hadoop ----

void AppendKv(std::string* out, std::string_view key, std::string_view value) {
  PutBe(out, key.size(), 2);
  out->append(key);
  PutBe(out, value.size(), 4);
  out->append(value);
}

long ParseKv(std::string_view buf, std::string_view* key, uint64_t* count) {
  if (buf.size() < 2) {
    return 0;
  }
  const size_t key_len = GetBe(buf, 0, 2);
  if (buf.size() < 2 + key_len + 4) {
    return 0;
  }
  const size_t value_len = GetBe(buf, 2 + key_len, 4);
  if (value_len == 0 || value_len > 18) {
    return -1;
  }
  const size_t total = 2 + key_len + 4 + value_len;
  if (buf.size() < total) {
    return 0;
  }
  *key = buf.substr(2, key_len);
  if (!ParseDecimal(buf.substr(6 + key_len, value_len), count)) {
    return -1;
  }
  return static_cast<long>(total);
}

}  // namespace fb
