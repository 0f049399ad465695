// Hadoop mapper emitters (§6.2): generate the wordcount intermediate
// key/value stream ("datasets ... consisting of words of 8, 12 and 16
// characters", high reduction ratio) and push it at full speed into the
// aggregator, like the paper's 8 mapper machines on 1 Gbps links.
#ifndef FLICK_LOAD_MAPPER_LOAD_H_
#define FLICK_LOAD_MAPPER_LOAD_H_

#include <cstdint>

#include "net/transport.h"

namespace flick::load {

struct MapperLoadConfig {
  uint16_t port = 9999;        // aggregator ingest port
  int mappers = 8;
  int word_length = 8;         // 8 | 12 | 16 per Figure 6
  int vocabulary = 512;        // distinct words => high reduction ratio
  uint64_t bytes_per_mapper = 4 * 1024 * 1024;
  uint64_t duration_ns = 2'000'000'000;  // safety bound
};

struct MapperResult {
  uint64_t bytes_sent = 0;
  uint64_t pairs_sent = 0;   // pairs that reached the wire whole
  uint64_t counts_sent = 0;  // sum of their counts: what the reducer must see
  double seconds = 0;

  double ThroughputMbps() const {
    return seconds > 0 ? (static_cast<double>(bytes_sent) * 8 / 1e6) / seconds : 0;
  }
};

MapperResult RunMapperLoad(Transport* transport, const MapperLoadConfig& config);

}  // namespace flick::load

#endif  // FLICK_LOAD_MAPPER_LOAD_H_
