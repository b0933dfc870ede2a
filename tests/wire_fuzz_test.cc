// Property-based round-trip and adversarial-input tests for the two data
// plane codecs: the serde pickle (owned and zero-copy view decode) and the
// wq wire protocol's binary frames. Mutated inputs must either decode or
// throw lfm::Error — never crash, hang, or read out of bounds.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "serde/pickle.h"
#include "serde/value.h"
#include "wq/protocol.h"

namespace lfm {
namespace {

using serde::Value;

// Deterministic generator: the suite must fail reproducibly.
using Rng = std::mt19937_64;

std::string random_token(Rng& rng, size_t max_len) {
  static const char kAlpha[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
  std::uniform_int_distribution<size_t> len(1, max_len);
  std::uniform_int_distribution<size_t> pick(0, sizeof(kAlpha) - 2);
  std::string s(len(rng), '\0');
  for (auto& c : s) c = kAlpha[pick(rng)];
  return s;
}

std::string random_text(Rng& rng, size_t max_len) {
  // Full printable range plus whitespace.
  std::uniform_int_distribution<size_t> len(0, max_len);
  std::uniform_int_distribution<int> pick(0, 96);
  std::string s(len(rng), '\0');
  for (auto& c : s) {
    const int v = pick(rng);
    c = v < 95 ? static_cast<char>(' ' + v) : (v == 95 ? '\t' : '\n');
  }
  return s;
}

serde::Bytes random_bytes(Rng& rng, size_t max_len) {
  std::uniform_int_distribution<size_t> len(0, max_len);
  std::uniform_int_distribution<int> byte(0, 255);
  serde::Bytes b(len(rng));
  for (auto& x : b) x = static_cast<uint8_t>(byte(rng));
  return b;
}

Value random_value(Rng& rng, int depth) {
  std::uniform_int_distribution<int> kind(0, depth > 0 ? 7 : 5);
  switch (kind(rng)) {
    case 0: return Value();
    case 1: return Value(rng() % 2 == 0);
    case 2: {
      std::uniform_int_distribution<int64_t> d(INT64_MIN, INT64_MAX);
      return Value(d(rng));
    }
    case 3: {
      std::uniform_real_distribution<double> d(-1e18, 1e18);
      return Value(d(rng));
    }
    case 4: return Value(random_text(rng, 48));
    case 5: return Value(random_bytes(rng, 48));
    case 6: {
      serde::ValueList l;
      std::uniform_int_distribution<size_t> n(0, 5);
      const size_t count = n(rng);
      for (size_t i = 0; i < count; ++i) l.push_back(random_value(rng, depth - 1));
      return Value(std::move(l));
    }
    default: {
      serde::ValueDict d;
      std::uniform_int_distribution<size_t> n(0, 5);
      const size_t count = n(rng);
      for (size_t i = 0; i < count; ++i) {
        d[random_token(rng, 12)] = random_value(rng, depth - 1);
      }
      return Value(std::move(d));
    }
  }
}

TEST(WireFuzz, PickleRoundtripsRandomTrees) {
  Rng rng(0xC0FFEE);
  serde::Bytes buffer;
  for (int i = 0; i < 300; ++i) {
    const Value original = random_value(rng, 4);
    // Owned decode of the one-shot encoder.
    const serde::Bytes wire = serde::dumps(original);
    EXPECT_TRUE(serde::loads(wire) == original) << "iteration " << i;
    // Buffer-reusing encoder produces identical bytes.
    serde::dumps_into(original, buffer);
    EXPECT_EQ(buffer, wire) << "iteration " << i;
    // Zero-copy view decode compares equal while the buffer lives...
    const Value borrowed = serde::loads_view(wire);
    EXPECT_TRUE(borrowed == original) << "iteration " << i;
    // ...and to_owned survives the buffer.
    const Value owned = borrowed.to_owned();
    EXPECT_TRUE(owned == original) << "iteration " << i;
  }
}

TEST(WireFuzz, PickleRejectsTruncation) {
  Rng rng(0xBADF00D);
  for (int i = 0; i < 100; ++i) {
    const serde::Bytes wire = serde::dumps(random_value(rng, 3));
    for (size_t keep = 0; keep < wire.size(); ++keep) {
      const serde::Bytes cut(wire.begin(), wire.begin() + static_cast<long>(keep));
      EXPECT_THROW(serde::loads(cut), Error) << "i=" << i << " keep=" << keep;
      EXPECT_THROW(serde::loads_view(cut), Error) << "i=" << i << " keep=" << keep;
    }
  }
}

TEST(WireFuzz, PickleSurvivesBitFlips) {
  Rng rng(0xDEAD10CC);
  for (int i = 0; i < 200; ++i) {
    serde::Bytes wire = serde::dumps(random_value(rng, 3));
    if (wire.empty()) continue;
    std::uniform_int_distribution<size_t> pos(0, wire.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    wire[pos(rng)] ^= static_cast<uint8_t>(1 << bit(rng));
    // A flipped bit may still decode to some (different) value; it must
    // never crash or read past the buffer.
    try {
      (void)serde::loads(wire);
      (void)serde::loads_view(wire).to_owned();
    } catch (const Error&) {
      // rejected — fine
    }
  }
}

wq::TaskMessage random_task(Rng& rng) {
  wq::TaskMessage msg;
  msg.task_id = rng() % 1000000 + 1;
  msg.category = random_token(rng, 16);
  msg.command_line = random_text(rng, 80);
  std::uniform_real_distribution<double> cores(0.25, 64.0);
  msg.allocation = alloc::Resources{cores(rng), double(rng() % (int64_t{1} << 40)),
                                    double(rng() % (int64_t{1} << 40))};
  std::uniform_int_distribution<size_t> nfiles(0, 4);
  const size_t n = nfiles(rng);
  for (size_t i = 0; i < n; ++i) {
    msg.infiles.push_back({random_token(rng, 24),
                           static_cast<int64_t>(rng() % (int64_t{1} << 55)),
                           rng() % 2 == 0});
  }
  const size_t m = nfiles(rng);
  for (size_t i = 0; i < m; ++i) msg.outfiles.push_back(random_token(rng, 24));
  return msg;
}

wq::ResultMessage random_result(Rng& rng) {
  wq::ResultMessage msg;
  msg.task_id = rng() % 1000000 + 1;
  std::uniform_int_distribution<int> exit(-128, 127);
  msg.exit_code = exit(rng);
  msg.exhausted = rng() % 4 == 0;
  if (msg.exhausted) msg.exhausted_resource = rng() % 2 == 0 ? "memory" : "disk";
  std::uniform_real_distribution<double> cores(0.0, 64.0);
  msg.cores_used = cores(rng);
  msg.memory_peak_bytes = static_cast<int64_t>(rng() % (uint64_t{1} << 62));
  msg.disk_peak_bytes = static_cast<int64_t>(rng() % (uint64_t{1} << 62));
  std::uniform_real_distribution<double> wall(0.0, 1e6);
  msg.wall_seconds = wall(rng);
  msg.payload = random_bytes(rng, 256);
  return msg;
}

bool same_task(const wq::TaskMessage& a, const wq::TaskMessage& b) {
  if (a.task_id != b.task_id || a.category != b.category ||
      a.command_line != b.command_line || a.infiles.size() != b.infiles.size() ||
      a.outfiles != b.outfiles) {
    return false;
  }
  for (size_t i = 0; i < a.infiles.size(); ++i) {
    if (a.infiles[i].name != b.infiles[i].name ||
        a.infiles[i].size_bytes != b.infiles[i].size_bytes ||
        a.infiles[i].cacheable != b.infiles[i].cacheable) {
      return false;
    }
  }
  return a.allocation.cores == b.allocation.cores;
}

bool same_result(const wq::ResultMessage& a, const wq::ResultMessage& b) {
  return a.task_id == b.task_id && a.exit_code == b.exit_code &&
         a.exhausted == b.exhausted &&
         a.exhausted_resource == b.exhausted_resource &&
         a.memory_peak_bytes == b.memory_peak_bytes &&
         a.disk_peak_bytes == b.disk_peak_bytes && a.payload == b.payload;
}

TEST(WireFuzz, ProtocolRoundtrips) {
  Rng rng(0x5EED);
  for (int i = 0; i < 200; ++i) {
    const wq::TaskMessage t = random_task(rng);
    const wq::ResultMessage r = random_result(rng);
    EXPECT_TRUE(same_task(wq::decode_task(wq::encode(t)), t)) << "i=" << i;
    EXPECT_TRUE(same_result(wq::decode_result(wq::encode(r)), r)) << "i=" << i;
  }
}

TEST(WireFuzz, ProtocolBatchRoundtrips) {
  Rng rng(0xB47C4);
  for (int i = 0; i < 40; ++i) {
    std::vector<wq::ResultMessage> batch;
    std::uniform_int_distribution<size_t> n(1, 12);
    const size_t count = n(rng);
    for (size_t k = 0; k < count; ++k) batch.push_back(random_result(rng));
    const auto back = wq::decode_result_batch(wq::encode_batch(batch));
    ASSERT_EQ(back.size(), batch.size()) << "i=" << i;
    for (size_t k = 0; k < count; ++k) {
      EXPECT_TRUE(same_result(back[k], batch[k])) << "i=" << i << " k=" << k;
    }
  }
}

TEST(WireFuzz, ProtocolRejectsTruncation) {
  Rng rng(0x7A5C);
  for (int i = 0; i < 30; ++i) {
    const std::string wire = wq::encode(random_task(rng));
    // Every strict prefix must be rejected, not misparsed: frames are
    // self-delimiting by their length prefix.
    for (size_t keep = 1; keep < wire.size(); keep += 1 + keep / 8) {
      EXPECT_THROW(wq::decode_task(wire.substr(0, keep)), Error)
          << "i=" << i << " keep=" << keep;
    }
  }
}

TEST(WireFuzz, ProtocolSurvivesBitFlips) {
  Rng rng(0xF1135);
  for (int i = 0; i < 150; ++i) {
    std::string wire = wq::encode(random_result(rng));
    std::uniform_int_distribution<size_t> pos(0, wire.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    const size_t at = pos(rng);
    wire[at] = static_cast<char>(static_cast<uint8_t>(wire[at]) ^ (1 << bit(rng)));
    try {
      (void)wq::decode_result(wire);
    } catch (const Error&) {
      // rejected — fine
    }
  }
}

TEST(WireFuzz, ProtocolRejectsRandomGarbage) {
  Rng rng(0x6A6B6C);
  for (int i = 0; i < 200; ++i) {
    const serde::Bytes junk = random_bytes(rng, 128);
    const std::string wire(junk.begin(), junk.end());
    try {
      (void)wq::decode_task(wire);
    } catch (const Error&) {
    }
    try {
      (void)wq::decode_result_batch(wire);
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace lfm
