#include "load/mapper_load.h"

#include <chrono>
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "base/time_util.h"
#include "proto/hadoop.h"

namespace flick::load {
namespace {

using namespace std::chrono_literals;

// A block of encoded kv pairs and where each pair ends in it; every pair
// carries the count 1.
struct Block {
  std::string bytes;
  std::vector<size_t> pair_ends;

  // Pairs wholly inside the first `bytes_sent` bytes.
  uint64_t PairsWithin(size_t bytes_sent) const {
    return static_cast<uint64_t>(
        std::upper_bound(pair_ends.begin(), pair_ends.end(), bytes_sent) -
        pair_ends.begin());
  }
};

// Pre-generates a block of encoded kv pairs from a synthetic vocabulary.
// Hadoop map output is sorted by key, so each block is emitted as a sorted
// run — that is what gives the combiner tree its reduction opportunities.
Block MakeBlock(int word_length, int vocabulary, uint64_t seed) {
  Rng rng(seed);
  // Vocabulary of fixed-length words; wordcount values are "1".
  std::vector<std::string> words(static_cast<size_t>(vocabulary));
  for (auto& w : words) {
    w.resize(static_cast<size_t>(word_length));
    for (char& c : w) {
      c = static_cast<char>('a' + rng.NextBelow(26));
    }
  }
  constexpr int kPairsPerBlock = 2048;
  std::vector<std::string> chosen;
  chosen.reserve(kPairsPerBlock);
  for (int i = 0; i < kPairsPerBlock; ++i) {
    chosen.push_back(words[rng.NextBelow(words.size())]);
  }
  std::sort(chosen.begin(), chosen.end());
  Block block;
  block.pair_ends.reserve(kPairsPerBlock);
  for (const std::string& w : chosen) {
    proto::EncodeKv(w, "1", &block.bytes);
    block.pair_ends.push_back(block.bytes.size());
  }
  return block;
}

// Counts only pairs that reached the wire whole: a block cut short by the
// deadline or a write error ends in a partial pair no reducer can decode.
void RunMapper(Transport* transport, const MapperLoadConfig& config, uint64_t seed,
               uint64_t deadline_ns, uint64_t* bytes_out, uint64_t* pairs_out) {
  auto conn = transport->Connect(config.port);
  if (!conn.ok()) {
    return;
  }
  const Block block = MakeBlock(config.word_length, config.vocabulary, seed);
  uint64_t sent = 0;
  uint64_t pairs = 0;
  while (sent < config.bytes_per_mapper && MonotonicNanos() < deadline_ns) {
    size_t off = 0;
    while (off < block.bytes.size()) {
      auto wrote = (*conn)->Write(block.bytes.data() + off, block.bytes.size() - off);
      if (!wrote.ok()) {
        break;
      }
      if (*wrote == 0) {
        std::this_thread::sleep_for(5us);
        if (MonotonicNanos() >= deadline_ns) {
          break;
        }
        continue;
      }
      off += *wrote;
      sent += *wrote;
    }
    pairs += block.PairsWithin(off);
    if (off < block.bytes.size()) {
      break;  // write error or deadline mid-block
    }
  }
  (*conn)->Close();
  *bytes_out = sent;
  *pairs_out = pairs;
}

}  // namespace

MapperResult RunMapperLoad(Transport* transport, const MapperLoadConfig& config) {
  std::vector<std::thread> threads;
  std::vector<uint64_t> bytes(static_cast<size_t>(config.mappers), 0);
  std::vector<uint64_t> pairs(static_cast<size_t>(config.mappers), 0);
  const uint64_t deadline = MonotonicNanos() + config.duration_ns;
  const Stopwatch clock;
  for (int m = 0; m < config.mappers; ++m) {
    threads.emplace_back(RunMapper, transport, std::cref(config),
                         static_cast<uint64_t>(m + 1), deadline,
                         &bytes[static_cast<size_t>(m)], &pairs[static_cast<size_t>(m)]);
  }
  for (auto& t : threads) {
    t.join();
  }
  MapperResult result;
  result.seconds = clock.ElapsedSeconds();
  for (int m = 0; m < config.mappers; ++m) {
    result.bytes_sent += bytes[static_cast<size_t>(m)];
    result.pairs_sent += pairs[static_cast<size_t>(m)];
  }
  result.counts_sent = result.pairs_sent;  // every pair carries the count 1
  return result;
}

}  // namespace flick::load
