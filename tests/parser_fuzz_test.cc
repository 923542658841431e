// Seeded mutation fuzzing of the parsers that read bytes from outside the
// program: the transport wire decoders (frames arrive over AF_UNIX sockets)
// and the CSV readers (source sets load from user files). Every case starts
// from valid inputs and mutates them with a fixed-seed Rng, so a failure
// replays exactly. The sanitizer CI job runs these under ASan+UBSan, where
// any out-of-bounds read or overflow aborts the test.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/source_set.h"
#include "integration/io.h"
#include "transport/wire.h"
#include "util/csv.h"
#include "util/random.h"

namespace vastats {
namespace {

using transport::AppendRequestFrame;
using transport::AppendResponseFrame;
using transport::DecodeRequestFrame;
using transport::DecodeResponseFrame;
using transport::EncodeBindings;
using transport::kBindingBytes;
using transport::kRequestFrameBytes;
using transport::kResponseHeaderBytes;
using transport::WireRequest;
using transport::WireResponse;

int Pick(Rng& rng, size_t n) {
  return static_cast<int>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
}

// Applies 1-4 random edits: bit flips, byte overwrites (random or from
// `dictionary`), little-endian u32 overwrites with boundary values,
// truncation, insertion, deletion and duplication of a span.
void Mutate(std::string* bytes, Rng& rng, std::string_view dictionary) {
  static constexpr uint32_t kBoundaryWords[] = {
      0u, 1u, 15u, 16u, 17u, 32u, 0x7fffffffu, 0x80000000u, 0xffffffffu};
  const int edits = 1 + Pick(rng, 4);
  for (int e = 0; e < edits; ++e) {
    const size_t size = bytes->size();
    const size_t at = size == 0 ? 0 : static_cast<size_t>(Pick(rng, size));
    switch (Pick(rng, 8)) {
      case 0:
        if (size > 0) (*bytes)[at] ^= static_cast<char>(1 << Pick(rng, 8));
        break;
      case 1:
        if (size > 0) (*bytes)[at] = static_cast<char>(Pick(rng, 256));
        break;
      case 2:
        if (size > 0) (*bytes)[at] = dictionary[Pick(rng, dictionary.size())];
        break;
      case 3:
        if (size >= 4) {
          const size_t word_at = (at / 4) * 4 <= size - 4 ? (at / 4) * 4 : 0;
          const uint32_t word = kBoundaryWords[Pick(
              rng, sizeof(kBoundaryWords) / sizeof(kBoundaryWords[0]))];
          std::memcpy(bytes->data() + word_at, &word, sizeof(word));
        }
        break;
      case 4:
        bytes->resize(at);
        break;
      case 5:
        bytes->insert(at, static_cast<size_t>(1 + Pick(rng, 8)),
                      dictionary[Pick(rng, dictionary.size())]);
        break;
      case 6:
        bytes->erase(at, static_cast<size_t>(1 + Pick(rng, 16)));
        break;
      case 7:
        if (size > 0) {
          const size_t length =
              std::min(size - at, static_cast<size_t>(1 + Pick(rng, 24)));
          const std::string span = bytes->substr(at, length);
          bytes->insert(static_cast<size_t>(Pick(rng, size + 1)), span);
        }
        break;
    }
  }
}

template <typename T>
T ReadLe(std::string_view bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

// ---- transport wire frames ------------------------------------------------

// Bytes that matter to the wire decoders: zero, sign and high bits, and the
// first bytes of both magics.
constexpr char kWireBytes[] = "\x00\x01\x10\x7f\x80\xff\x51\x52\x58\x54\x56";
constexpr std::string_view kWireDictionary(kWireBytes, sizeof(kWireBytes) - 1);
constexpr int kWireMutations = 1 << 19;  // per decoder; 2^20 in total

TEST(ParserFuzzTest, MutatedRequestFramesDecodeSafely) {
  std::string valid;
  AppendRequestFrame(WireRequest{}, &valid);
  const std::string magic = valid.substr(0, 4);

  Rng rng(0x5eed0001);
  std::string bytes;
  for (int i = 0; i < kWireMutations; ++i) {
    bytes.clear();
    const int frames = 1 + Pick(rng, 3);
    for (int f = 0; f < frames; ++f) {
      WireRequest request;
      request.id = rng.NextUint64();
      request.channel = static_cast<uint64_t>(Pick(rng, 8));
      request.source = Pick(rng, 100);
      request.epoch = rng.UniformInt(-2, 1 << 20);
      request.attempt = Pick(rng, 4);
      request.num_components = Pick(rng, 500);
      AppendRequestFrame(request, &bytes);
    }
    Mutate(&bytes, rng, kWireDictionary);

    // Decode the stream frame by frame, as the endpoint's reader does.
    std::string_view rest(bytes);
    while (true) {
      WireRequest got;
      const Result<size_t> consumed = DecodeRequestFrame(rest, &got);
      const bool whole = rest.size() >= kRequestFrameBytes;
      if (whole && rest.substr(0, 4) != magic) {
        ASSERT_FALSE(consumed.ok()) << "iteration " << i;
        break;
      }
      ASSERT_TRUE(consumed.ok()) << "iteration " << i;
      ASSERT_EQ(*consumed, whole ? kRequestFrameBytes : 0u)
          << "iteration " << i;
      if (*consumed == 0) break;
      ASSERT_EQ(got.num_components, ReadLe<int32_t>(rest, 36));
      rest.remove_prefix(*consumed);
    }
  }
}

TEST(ParserFuzzTest, MutatedResponseFramesDecodeSafely) {
  std::string valid;
  AppendResponseFrame(0, false, 0.0, {}, &valid);
  const std::string magic = valid.substr(0, 4);

  Rng rng(0x5eed0002);
  std::string bytes;
  for (int i = 0; i < kWireMutations; ++i) {
    bytes.clear();
    const int frames = 1 + Pick(rng, 3);
    for (int f = 0; f < frames; ++f) {
      std::vector<TransportBinding> bindings(static_cast<size_t>(Pick(rng, 5)));
      for (TransportBinding& binding : bindings) {
        binding.component = Pick(rng, 1000);
        binding.value = rng.Normal(0.0, 100.0);
      }
      const bool failed = bindings.empty() && rng.Bernoulli(0.5);
      AppendResponseFrame(rng.NextUint64(), failed, rng.Uniform(0.0, 10.0),
                          EncodeBindings(bindings), &bytes);
    }
    Mutate(&bytes, rng, kWireDictionary);

    std::string_view rest(bytes);
    while (true) {
      WireResponse got;
      const Result<size_t> consumed = DecodeResponseFrame(rest, &got);
      if (rest.size() < kResponseHeaderBytes) {
        ASSERT_TRUE(consumed.ok()) << "iteration " << i;
        ASSERT_EQ(*consumed, 0u) << "iteration " << i;
        break;
      }
      if (rest.substr(0, 4) != magic) {
        ASSERT_FALSE(consumed.ok()) << "corrupt magic, iteration " << i;
        break;
      }
      const size_t body = ReadLe<uint32_t>(rest, 4);
      if (rest.size() < kResponseHeaderBytes + body) {
        ASSERT_TRUE(consumed.ok()) << "iteration " << i;
        ASSERT_EQ(*consumed, 0u) << "iteration " << i;
        break;
      }
      const size_t count = ReadLe<uint32_t>(rest, 28);
      if (body % kBindingBytes != 0 || count != body / kBindingBytes) {
        ASSERT_FALSE(consumed.ok()) << "misaligned body, iteration " << i;
        break;
      }
      ASSERT_TRUE(consumed.ok()) << "iteration " << i;
      ASSERT_EQ(*consumed, kResponseHeaderBytes + body) << "iteration " << i;
      ASSERT_LE(*consumed, rest.size());
      ASSERT_EQ(got.payload.size(), count) << "iteration " << i;
      for (size_t b = 0; b < count; ++b) {
        const size_t at = kResponseHeaderBytes + b * kBindingBytes;
        ASSERT_EQ(got.payload[b].component, ReadLe<int64_t>(rest, at));
        ASSERT_EQ(std::memcmp(&got.payload[b].value, rest.data() + at + 8, 8),
                  0);
      }
      rest.remove_prefix(*consumed);
    }
  }
}

// ---- CSV and the source-set interchange format ---------------------------

// Bytes that steer the CSV grammar and the numeric fields.
constexpr char kCsvBytes[] = ",\"\n\r\0-+.eE0123456789 xinfa";
constexpr std::string_view kCsvDictionary(kCsvBytes, sizeof(kCsvBytes) - 1);
constexpr int kCsvMutations = 40000;

// Seeds: small source sets in the interchange format, including names that
// need quoting.
std::vector<std::string> CsvSeeds() {
  std::vector<std::string> seeds;
  Rng rng(0x5eed0003);
  const char* names[] = {"D1", "a,b", "say \"hi\"", "two\nlines", "cr\rname"};
  for (int seed = 0; seed < 8; ++seed) {
    SourceSet set;
    const int sources = 1 + Pick(rng, 3);
    for (int s = 0; s < sources; ++s) {
      DataSource source(std::string(names[Pick(rng, 5)]) + std::to_string(s));
      const int bindings = 1 + Pick(rng, 3);
      for (int b = 0; b < bindings; ++b) {
        source.Bind(rng.UniformInt(-5, 40), rng.Normal(20.0, 10.0));
      }
      set.AddSource(std::move(source));
    }
    seeds.push_back(SourceSetToCsv(set));
  }
  return seeds;
}

void ExpectSameSourceSet(const SourceSet& a, const SourceSet& b, int i) {
  ASSERT_EQ(a.NumSources(), b.NumSources()) << "iteration " << i;
  for (int s = 0; s < a.NumSources(); ++s) {
    ASSERT_EQ(a.source(s).name(), b.source(s).name()) << "iteration " << i;
    ASSERT_EQ(a.source(s).SortedBindings(), b.source(s).SortedBindings())
        << "iteration " << i;
  }
}

TEST(ParserFuzzTest, MutatedCsvParsesOrFailsCleanly) {
  const std::vector<std::string> seeds = CsvSeeds();
  Rng rng(0x5eed0004);
  for (int i = 0; i < kCsvMutations; ++i) {
    std::string text = seeds[static_cast<size_t>(Pick(rng, seeds.size()))];
    Mutate(&text, rng, kCsvDictionary);

    const Result<std::vector<CsvRow>> rows = ParseCsv(text);
    if (rows.ok()) {
      // FormatCsv's canonical form reads back to the same rows, except a
      // row of one empty field, which renders as a blank line and vanishes.
      std::vector<CsvRow> expected;
      for (const CsvRow& row : *rows) {
        ASSERT_FALSE(row.empty()) << "iteration " << i;
        if (row.size() != 1 || !row[0].empty()) expected.push_back(row);
      }
      const Result<std::vector<CsvRow>> again = ParseCsv(FormatCsv(*rows));
      ASSERT_TRUE(again.ok()) << "iteration " << i;
      ASSERT_EQ(*again, expected) << "iteration " << i;
    }

    const Result<SourceSet> set = SourceSetFromCsv(text);
    if (!set.ok()) continue;
    // An accepted source set survives its own interchange format.
    const Result<SourceSet> again = SourceSetFromCsv(SourceSetToCsv(*set));
    ASSERT_TRUE(again.ok()) << "iteration " << i << ": "
                            << again.status().message();
    ExpectSameSourceSet(*set, *again, i);
  }
}

}  // namespace
}  // namespace vastats
