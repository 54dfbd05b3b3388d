//===- tests/support_test.cpp - support/ unit tests -----------*- C++ -*-===//

#include "exp/Campaign.h"
#include "serve/ServeEngine.h"
#include "serve/Wire.h"
#include "support/Backoff.h"
#include "support/BigUInt.h"
#include "support/Env.h"
#include "support/FlatRows.h"
#include "support/Format.h"
#include "support/FailPoint.h"
#include "support/Journal.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Serialize.h"
#include "support/Scheduler.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cfloat>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

using namespace alic;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I != 200; ++I)
      EXPECT_LT(R.nextBounded(Bound), Bound);
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng R(11);
  const int Buckets = 8, Draws = 80000;
  int Counts[Buckets] = {0};
  for (int I = 0; I != Draws; ++I)
    ++Counts[R.nextBounded(Buckets)];
  for (int C : Counts)
    EXPECT_NEAR(double(C), Draws / double(Buckets), 0.05 * Draws / Buckets);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(3);
  for (int I = 0; I != 1000; ++I) {
    double X = R.nextDouble();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng R(5);
  double Sum = 0.0, Sum2 = 0.0;
  const int N = 200000;
  for (int I = 0; I != N; ++I) {
    double G = R.nextGaussian();
    Sum += G;
    Sum2 += G * G;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.02);
  EXPECT_NEAR(Sum2 / N, 1.0, 0.03);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng R(9);
  for (double Shape : {0.5, 1.0, 2.5, 8.0}) {
    double Sum = 0.0;
    const int N = 60000;
    for (int I = 0; I != N; ++I)
      Sum += R.nextGamma(Shape);
    EXPECT_NEAR(Sum / N, Shape, 0.06 * Shape + 0.02);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng R(13);
  double Sum = 0.0;
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    Sum += R.nextExponential(2.5);
  EXPECT_NEAR(Sum / N, 2.5, 0.08);
}

TEST(RngTest, BernoulliRate) {
  Rng R(17);
  int Hits = 0;
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    Hits += R.nextBernoulli(0.3);
  EXPECT_NEAR(double(Hits) / N, 0.3, 0.01);
}

TEST(RngTest, SampleIndicesAreDistinctAndInRange) {
  Rng R(21);
  for (size_t N : {10ul, 100ul, 1000ul}) {
    for (size_t K : {1ul, 5ul, N / 2, N}) {
      std::vector<size_t> S = R.sampleIndices(N, K);
      EXPECT_EQ(S.size(), std::min(N, K));
      std::set<size_t> Unique(S.begin(), S.end());
      EXPECT_EQ(Unique.size(), S.size());
      for (size_t V : S)
        EXPECT_LT(V, N);
    }
  }
}

TEST(RngTest, SampleIndicesFullPermutation) {
  Rng R(23);
  std::vector<size_t> S = R.sampleIndices(50, 50);
  std::set<size_t> Unique(S.begin(), S.end());
  EXPECT_EQ(Unique.size(), 50u);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng A(31);
  Rng Child = A.split();
  // The child stream must not track the parent.
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == Child.next();
  EXPECT_LT(Same, 2);
}

TEST(RngTest, HashCombineSensitiveToOrder) {
  EXPECT_NE(hashCombine({1, 2}), hashCombine({2, 1}));
  EXPECT_NE(hashCombine({1}), hashCombine({1, 0}));
  EXPECT_EQ(hashCombine({5, 6, 7}), hashCombine({5, 6, 7}));
}

//===----------------------------------------------------------------------===//
// BigUInt
//===----------------------------------------------------------------------===//

TEST(BigUIntTest, ConstructAndToString) {
  EXPECT_EQ(BigUInt().toString(), "0");
  EXPECT_EQ(BigUInt(1).toString(), "1");
  EXPECT_EQ(BigUInt(123456789).toString(), "123456789");
  EXPECT_EQ(BigUInt(~0ull).toString(), "18446744073709551615");
}

TEST(BigUIntTest, AdditionMatchesU64) {
  Rng R(1);
  for (int I = 0; I != 500; ++I) {
    uint64_t A = R.next() >> 2, B = R.next() >> 2;
    EXPECT_EQ((BigUInt(A) + BigUInt(B)).toU64(), A + B);
  }
}

TEST(BigUIntTest, MultiplicationMatchesU128) {
  Rng R(2);
  for (int I = 0; I != 500; ++I) {
    uint64_t A = R.next() >> 32, B = R.next() >> 32;
    __uint128_t Expect = static_cast<__uint128_t>(A) * B;
    BigUInt Got = BigUInt(A) * BigUInt(B);
    EXPECT_EQ(Got.toU64(), static_cast<uint64_t>(Expect));
  }
}

TEST(BigUIntTest, MulScalarChain) {
  // 2^96 via repeated scalar multiplication.
  BigUInt V(1);
  for (int I = 0; I != 96; ++I)
    V.mulScalar(2);
  EXPECT_EQ(V.toString(), "79228162514264337593543950336");
}

TEST(BigUIntTest, DivModScalarRoundTrip) {
  Rng R(3);
  for (int I = 0; I != 200; ++I) {
    uint64_t A = R.next();
    uint32_t D = static_cast<uint32_t>(R.nextBounded(1000000) + 1);
    BigUInt V(A);
    uint32_t Rem = V.divModScalar(D);
    EXPECT_EQ(Rem, A % D);
    EXPECT_EQ(V.toU64(), A / D);
  }
}

TEST(BigUIntTest, Comparisons) {
  EXPECT_LT(BigUInt(5), BigUInt(7));
  EXPECT_GT(BigUInt(1) * BigUInt(1ull << 40) * BigUInt(1ull << 40),
            BigUInt(~0ull));
  EXPECT_EQ(BigUInt(42), BigUInt(42));
}

TEST(BigUIntTest, ToDoubleApproximation) {
  BigUInt V(1);
  for (int I = 0; I != 90; ++I)
    V.mulScalar(10);
  EXPECT_NEAR(V.toDouble() / 1e90, 1.0, 1e-9);
}

TEST(BigUIntTest, ToScientific) {
  BigUInt V(378);
  for (int I = 0; I != 12; ++I)
    V.mulScalar(10);
  EXPECT_EQ(V.toScientific(3), "3.78e14");
  EXPECT_EQ(BigUInt(0).toScientific(3), "0");
  EXPECT_EQ(BigUInt(7).toScientific(1), "7e0");
}

TEST(BigUIntTest, AddScalarCarries) {
  BigUInt V(0xFFFFFFFFull);
  V.addScalar(1);
  EXPECT_EQ(V.toU64(), 0x100000000ull);
}

//===----------------------------------------------------------------------===//
// Format
//===----------------------------------------------------------------------===//

TEST(FormatTest, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatString("%.2f", 1.005), "1.00");
}

TEST(FormatTest, PaperNumberRanges) {
  EXPECT_EQ(formatPaperNumber(0.0), "0");
  EXPECT_EQ(formatPaperNumber(57.46), "57.46");
  EXPECT_EQ(formatPaperNumber(26200.0), "2.62e4");
  EXPECT_EQ(formatPaperNumber(0.0001), "1.00e-4");
}

TEST(FormatTest, Seconds) {
  EXPECT_EQ(formatSeconds(0.5e-6), "500.0 ns");
  EXPECT_EQ(formatSeconds(0.0123), "12.3 ms");
  EXPECT_EQ(formatSeconds(90.0), "90.00 s");
  EXPECT_EQ(formatSeconds(3600.0), "60.0 min");
}

TEST(FormatTest, PadAndJoin) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcde", 3), "abcde");
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, CsvEscaping) {
  Table T({"a", "b"});
  T.addRow({"x,y", "he said \"hi\""});
  std::string Csv = T.toCsv();
  EXPECT_NE(Csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(Csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, RowCount) {
  Table T({"h"});
  EXPECT_EQ(T.numRows(), 0u);
  T.addRow({"1"});
  T.addRow({"2"});
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(TableTest, WriteCsvRoundTrip) {
  Table T({"x", "y"});
  T.addRow({"1", "2"});
  std::string Path = testing::TempDir() + "/alic_table_test.csv";
  ASSERT_TRUE(T.writeCsv(Path));
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[64] = {0};
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), F), nullptr);
  EXPECT_STREQ(Buf, "x,y\n");
  std::fclose(F);
}

//===----------------------------------------------------------------------===//
// Env
//===----------------------------------------------------------------------===//

TEST(EnvTest, StringDefault) {
  unsetenv("ALIC_TEST_VAR");
  EXPECT_EQ(getEnvString("ALIC_TEST_VAR", "dflt"), "dflt");
  setenv("ALIC_TEST_VAR", "value", 1);
  EXPECT_EQ(getEnvString("ALIC_TEST_VAR", "dflt"), "value");
  unsetenv("ALIC_TEST_VAR");
}

TEST(EnvTest, IntParsing) {
  setenv("ALIC_TEST_INT", "123", 1);
  EXPECT_EQ(getEnvInt("ALIC_TEST_INT", 7), 123);
  setenv("ALIC_TEST_INT", "garbage", 1);
  EXPECT_EQ(getEnvInt("ALIC_TEST_INT", 7), 7);
  unsetenv("ALIC_TEST_INT");
}

TEST(EnvTest, ScalePresetNames) {
  EXPECT_STREQ(scaleName(ScaleKind::Smoke), "smoke");
  EXPECT_STREQ(scaleName(ScaleKind::Bench), "bench");
  EXPECT_STREQ(scaleName(ScaleKind::Paper), "paper");
}

//===----------------------------------------------------------------------===//
// Scheduler (basic pool behavior; nesting and stealing live in
// scheduler_test.cpp)
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, RunsAllTasks) {
  Scheduler Pool(4);
  std::atomic<int> Counter{0};
  Pool.parallelFor(100, [&Counter](size_t) { ++Counter; });
  EXPECT_EQ(Counter.load(), 100);
}

TEST(SchedulerTest, ParallelForCoversRange) {
  Scheduler Pool(3);
  std::vector<std::atomic<int>> Hits(64);
  Pool.parallelFor(64, [&Hits](size_t I) { ++Hits[I]; });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(SchedulerTest, ReusableAfterWait) {
  Scheduler Pool(2);
  std::atomic<int> Counter{0};
  Pool.parallelFor(2, [&](size_t) { ++Counter; });
  EXPECT_EQ(Counter.load(), 2);
  Pool.parallelFor(2, [&](size_t) { ++Counter; });
  EXPECT_EQ(Counter.load(), 4);
}

TEST(SchedulerTest, ParallelForShardsCoversRangeExactlyOnce) {
  Scheduler Pool(3);
  std::vector<std::atomic<int>> Hits(100);
  Pool.parallelForShards(100, 7, [&Hits](size_t, size_t Begin, size_t End) {
    for (size_t I = Begin; I != End; ++I)
      ++Hits[I];
  });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(SchedulerTest, ShardGridIndependentOfWorkerCount) {
  // The shard boundaries are a pure function of (N, ShardSize): the
  // sequential path, a 1-thread pool, and a 5-thread pool must all see
  // the same grid — the property candidate scoring's determinism rests on.
  auto gridOf = [](Scheduler *Pool) {
    std::vector<std::tuple<size_t, size_t, size_t>> Grid(4);
    shardedFor(Pool, 25, 8, [&Grid](size_t Shard, size_t Begin, size_t End) {
      Grid[Shard] = {Shard, Begin, End};
    });
    return Grid;
  };
  std::vector<std::tuple<size_t, size_t, size_t>> Expected = {
      {0, 0, 8}, {1, 8, 16}, {2, 16, 24}, {3, 24, 25}};
  EXPECT_EQ(gridOf(nullptr), Expected);
  Scheduler One(1), Five(5);
  EXPECT_EQ(gridOf(&One), Expected);
  EXPECT_EQ(gridOf(&Five), Expected);
}

TEST(SchedulerTest, ShardedForRunsInlineWithoutPool) {
  // No pool: shards run on the calling thread, in shard order.
  std::vector<size_t> Order;
  shardedFor(nullptr, 10, 3, [&Order](size_t Shard, size_t, size_t) {
    Order.push_back(Shard);
  });
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3}));
}

//===----------------------------------------------------------------------===//
// FlatRows
//===----------------------------------------------------------------------===//

TEST(FlatRowsTest, PushFixesDimAndStoresContiguously) {
  FlatRows Rows;
  EXPECT_TRUE(Rows.empty());
  Rows.push({1.0, 2.0, 3.0});
  Rows.push({4.0, 5.0, 6.0});
  EXPECT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows.dim(), 3u);
  EXPECT_EQ(Rows.row(1), Rows.row(0) + 3); // one buffer, row-major
  EXPECT_DOUBLE_EQ(Rows[1][2], 6.0);
  EXPECT_EQ(Rows.raw().size(), 6u);
}

TEST(FlatRowsTest, ConvertsFromNestedVectorsAndIterators) {
  std::vector<std::vector<double>> Nested = {{1.0, 2.0}, {3.0, 4.0},
                                             {5.0, 6.0}};
  FlatRows All = Nested;
  EXPECT_EQ(All.size(), 3u);
  EXPECT_DOUBLE_EQ(All[2][1], 6.0);

  FlatRows Sub(Nested.begin() + 1, Nested.end());
  EXPECT_EQ(Sub.size(), 2u);
  EXPECT_DOUBLE_EQ(Sub[0][0], 3.0);

  FlatRows Braced = {{7.0}, {8.0}};
  EXPECT_EQ(Braced.dim(), 1u);
  EXPECT_DOUBLE_EQ(Braced[1][0], 8.0);
}

TEST(FlatRowsTest, PopRowAndClear) {
  FlatRows Rows = {{1.0, 2.0}, {3.0, 4.0}};
  Rows.popRow();
  EXPECT_EQ(Rows.size(), 1u);
  EXPECT_DOUBLE_EQ(Rows[0][1], 2.0);
  Rows.push({9.0, 9.0});
  EXPECT_EQ(Rows.size(), 2u);
  Rows.clear();
  EXPECT_TRUE(Rows.empty());
  EXPECT_EQ(Rows.dim(), 2u); // dimensionality survives a clear
}

TEST(RowRefTest, ViewsVectorsWithoutCopying) {
  std::vector<double> V = {1.0, 2.0, 3.0};
  RowRef R = V;
  EXPECT_EQ(R.data(), V.data());
  EXPECT_EQ(R.size(), 3u);
  EXPECT_DOUBLE_EQ(R[1], 2.0);
  EXPECT_EQ(R.toVector(), V);
}

//===----------------------------------------------------------------------===//
// Serialize
//===----------------------------------------------------------------------===//

TEST(SerializeTest, ScalarRoundTrip) {
  ByteWriter W;
  W.writeU16(0xbeef);
  W.writeU32(0xdeadbeefu);
  W.writeU64(0x0123456789abcdefull);
  W.writeDouble(-1.5);

  ByteReader R(W.bytes());
  uint16_t U16;
  uint32_t U32;
  uint64_t U64;
  double D;
  EXPECT_TRUE(R.readU16(U16));
  EXPECT_TRUE(R.readU32(U32));
  EXPECT_TRUE(R.readU64(U64));
  EXPECT_TRUE(R.readDouble(D));
  EXPECT_EQ(U16, 0xbeef);
  EXPECT_EQ(U32, 0xdeadbeefu);
  EXPECT_EQ(U64, 0x0123456789abcdefull);
  EXPECT_DOUBLE_EQ(D, -1.5);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(SerializeTest, DoubleBitsSurviveExactly) {
  // Values whose decimal renderings are lossy must still round trip: the
  // writer stores raw IEEE bits.
  const double Values[] = {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324,
                           -0.0,  1e308};
  ByteWriter W;
  for (double V : Values)
    W.writeDouble(V);
  ByteReader R(W.bytes());
  for (double V : Values) {
    double Read;
    ASSERT_TRUE(R.readDouble(Read));
    uint64_t WantBits, GotBits;
    std::memcpy(&WantBits, &V, sizeof(WantBits));
    std::memcpy(&GotBits, &Read, sizeof(GotBits));
    EXPECT_EQ(GotBits, WantBits);
  }
}

TEST(SerializeTest, VectorRoundTrip) {
  ByteWriter W;
  W.writeU16s({1, 2, 65535});
  W.writeDoubles({0.25, -7.5});
  W.writeDoubles({});
  ByteReader R(W.bytes());
  std::vector<uint16_t> U16s;
  std::vector<double> Doubles, Empty;
  EXPECT_TRUE(R.readU16s(U16s));
  EXPECT_TRUE(R.readDoubles(Doubles));
  EXPECT_TRUE(R.readDoubles(Empty));
  EXPECT_EQ(U16s, (std::vector<uint16_t>{1, 2, 65535}));
  EXPECT_EQ(Doubles, (std::vector<double>{0.25, -7.5}));
  EXPECT_TRUE(Empty.empty());
  EXPECT_TRUE(R.atEnd());
}

TEST(SerializeTest, TruncationIsStickyNotFatal) {
  ByteWriter W;
  W.writeU64(7);
  std::vector<uint8_t> Bytes = W.bytes();
  Bytes.pop_back(); // truncate
  ByteReader R(std::move(Bytes));
  uint64_t Value;
  EXPECT_FALSE(R.readU64(Value));
  EXPECT_FALSE(R.ok());
  uint16_t Small;
  EXPECT_FALSE(R.readU16(Small)); // sticky: later reads fail too
}

TEST(SerializeTest, HugeLengthPrefixIsRejected) {
  // A corrupt length prefix must not trigger a giant allocation.
  ByteWriter W;
  W.writeU64(uint64_t(1) << 60);
  ByteReader R(W.bytes());
  std::vector<double> Doubles;
  EXPECT_FALSE(R.readDoubles(Doubles));
  EXPECT_FALSE(R.ok());
}

TEST(SerializeTest, AtomicFileRoundTrip) {
  std::string Path = ::testing::TempDir() + "alic_serialize_test.bin";
  ByteWriter W;
  W.writeU64(0x68656c6c6full);
  W.writeDouble(2.5);
  ASSERT_TRUE(W.writeFileDurable(Path).ok());

  ByteReader R({});
  ASSERT_TRUE(ByteReader::fromFile(Path, R));
  uint64_t U64;
  double D;
  EXPECT_TRUE(R.readU64(U64));
  EXPECT_TRUE(R.readDouble(D));
  EXPECT_EQ(U64, 0x68656c6c6full);
  EXPECT_DOUBLE_EQ(D, 2.5);
  EXPECT_TRUE(R.atEnd());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Journal: seal, retry, read
//===----------------------------------------------------------------------===//

namespace {

/// A fresh journal path under the gtest temp root (any old file removed).
std::string journalPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "alic_journal_" + Name;
  std::remove(Path.c_str());
  return Path;
}

std::string fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream(Path, std::ios::binary) << Bytes;
}

std::vector<std::string> records(const std::string &Path,
                                 bool *TornTail = nullptr) {
  std::vector<std::string> Out;
  EXPECT_TRUE(readJournal(Path, Out, TornTail).ok());
  return Out;
}

} // namespace

TEST(JournalTest, AppendsCreateTheFileAndReadBackInOrder) {
  std::string Path = journalPath("order");
  ASSERT_TRUE(appendJournal(Path, "a\n", "fp.journal.append").ok());
  ASSERT_TRUE(appendJournal(Path, "b\nc\n", "fp.journal.append").ok());
  ASSERT_TRUE(appendJournal(Path, "", "fp.journal.append").ok());
  EXPECT_EQ(fileBytes(Path), "a\nb\nc\n");
  bool Torn = true;
  EXPECT_EQ(records(Path, &Torn), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_FALSE(Torn);
}

TEST(JournalTest, ReaderCountsOnlyTerminatedNonEmptyRecords) {
  std::string Path = journalPath("reader");
  writeBytes(Path, "a\n\nb\npartial");
  bool Torn = false;
  EXPECT_EQ(records(Path, &Torn), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(Torn);

  std::vector<std::string> Out{"stale"};
  EXPECT_FALSE(readJournal(journalPath("missing"), Out).ok());
  EXPECT_TRUE(Out.empty());
}

TEST(JournalTest, AppendSealsATornTailBeforeItsRecord) {
  // A crash left half a record: the next append must not glue onto it.
  std::string Path = journalPath("seal");
  writeBytes(Path, "x\npart");
  ASSERT_TRUE(appendJournal(Path, "y\n", "fp.journal.append").ok());
  EXPECT_EQ(fileBytes(Path), "x\npart\ny\n");
  EXPECT_EQ(records(Path), (std::vector<std::string>{"x", "part", "y"}));
}

TEST(JournalTest, RetryAfterATornAttemptSealsItsRemnant) {
  std::string Path = journalPath("torn");
  FailSpec Torn;
  Torn.Mode = FailMode::Torn;
  Torn.TornBytes = 3;
  Torn.Count = 1; // the first attempt tears, the retry succeeds
  armFailPoint("fp.journal.append", Torn);
  Status St = appendJournal(Path, "hello\n", "fp.journal.append");
  EXPECT_EQ(failPointHits("fp.journal.append"), 2u);
  disarmAllFailPoints();
  ASSERT_TRUE(St.ok()) << St.message();
  EXPECT_EQ(fileBytes(Path), "hel\nhello\n");
}

TEST(JournalTest, SyncFailureRetryLeavesAByteIdenticalRepeat) {
  // The bytes landed but the fsync failed: the retry writes them again.
  std::string Path = journalPath("sync");
  FailSpec Once;
  Once.Count = 1;
  armFailPoint("fp.journal.sync", Once);
  Status St =
      appendJournal(Path, "r\n", "fp.journal.append", "fp.journal.sync");
  disarmAllFailPoints();
  ASSERT_TRUE(St.ok()) << St.message();
  EXPECT_EQ(fileBytes(Path), "r\nr\n");
}

TEST(JournalTest, PersistentFailureGivesUpAfterFourAttempts) {
  std::string Path = journalPath("enospc");
  FailSpec Full;
  Full.Errno = ENOSPC;
  armFailPoint("fp.journal.append", Full);
  Status St = appendJournal(Path, "lost\n", "fp.journal.append");
  EXPECT_EQ(failPointHits("fp.journal.append"), 4u);
  disarmAllFailPoints();
  EXPECT_FALSE(St.ok());
  EXPECT_EQ(St.errnoValue(), ENOSPC);
  EXPECT_TRUE(records(Path).empty());
}

//===----------------------------------------------------------------------===//
// Json hardening (untrusted socket input reaches this parser)
//===----------------------------------------------------------------------===//

TEST(JsonTest, NestingDepthIsCapped) {
  // A hostile line of nested containers must fail cleanly, not overflow
  // the parser's stack.
  std::string Deep(100000, '[');
  JsonValue Out;
  EXPECT_FALSE(parseJson(Deep.c_str(), Out));
  std::string DeepObjects;
  for (int I = 0; I != 100000; ++I)
    DeepObjects += "{\"k\":";
  EXPECT_FALSE(parseJson(DeepObjects.c_str(), Out));
  // Shallow documents (our surfaces nest 2-3 levels) still parse.
  EXPECT_TRUE(parseJson("[[[[[1]]]]]", Out));
}

TEST(JsonTest, NumbersFollowJsonGrammarAndStayFinite) {
  JsonValue Out;
  for (const char *Bad :
       {"nan", "NaN", "inf", "Infinity", "-inf", "0x12", "1e999", "-1e999",
        "01", "+1", ".5", "1.", "1e", "1e+", "--1"})
    EXPECT_FALSE(parseJson(Bad, Out)) << Bad;
  for (const char *Good : {"0", "-0", "12", "-3.5", "1e9", "2.5E-3", "1e+2"})
    EXPECT_TRUE(parseJson(Good, Out)) << Good;
  EXPECT_TRUE(parseJson("6.25e-2", Out));
  EXPECT_EQ(Out.K, JsonValue::Kind::Number);
  EXPECT_DOUBLE_EQ(Out.Number, 0.0625);
  // ...including inside containers (the observe costs path).
  EXPECT_FALSE(parseJson("{\"costs\":[nan]}", Out));
  EXPECT_FALSE(parseJson("{\"costs\":[1e999]}", Out));
}

TEST(JsonTest, FormatJsonDoubleNeverEmitsInvalidTokens) {
  EXPECT_EQ(formatJsonDouble(std::nan("")), "null");
  EXPECT_EQ(formatJsonDouble(HUGE_VAL), "null");
  EXPECT_EQ(formatJsonDouble(-HUGE_VAL), "null");
  // Finite values still round-trip bit-exactly.
  double Value = 0.1 + 0.2;
  JsonValue Out;
  ASSERT_TRUE(parseJson(formatJsonDouble(Value).c_str(), Out));
  EXPECT_EQ(Out.Number, Value);
}

//===----------------------------------------------------------------------===//
// Json line codec: the writer, the typed reader, and golden record lines
//===----------------------------------------------------------------------===//

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter W;
  W.string(std::string("q\"b\\n\nt\tr\rb\bf\f") + '\x01' + '\x1f' + "\xc3\xa9");
  EXPECT_EQ(W.text(), "\"q\\\"b\\\\n\\nt\\tr\\rb\\bf\\f\\u0001\\u001f\xc3\xa9\"");
  // Everything but the \u escapes (which our producers never need to
  // read back) parses back to the original text.
  JsonWriter Plain;
  const std::string Text = "say \"hi\"\\\n\t\r\b\f/";
  Plain.string(Text);
  JsonValue Back;
  ASSERT_TRUE(parseJson(Plain.text().c_str(), Back));
  EXPECT_EQ(Back.Str, Text);
}

TEST(JsonWriterTest, NonFiniteDoublesRenderAsNull) {
  JsonWriter W;
  W.beginArray().number(std::nan("")).number(HUGE_VAL).number(-HUGE_VAL);
  W.numbers({1.5, std::nan("")}).endArray();
  EXPECT_EQ(W.text(), "[null,null,null,[1.5,null]]");
}

TEST(JsonWriterTest, CommasInNestedArraysAndObjects) {
  JsonWriter W;
  W.beginObject().key("a").beginArray().endArray();
  W.key("b").beginArray().beginArray().integer(1).integer(2).endArray();
  W.beginArray().endArray().beginObject().endObject().string("s").endArray();
  W.key("c").beginObject().key("d").boolean(true).key("e").boolean(false);
  W.endObject().key("f").numbers({}).key("g").numbers({0.5, 2});
  W.endObject();
  EXPECT_EQ(W.text(), "{\"a\":[],\"b\":[[1,2],[],{},\"s\"],"
                      "\"c\":{\"d\":true,\"e\":false},\"f\":[],\"g\":[0.5,2]}");
  JsonValue Back;
  EXPECT_TRUE(parseJson(W.text().c_str(), Back));
}

TEST(JsonWriterTest, UnsignedIntegersArePlainDecimal) {
  JsonWriter W;
  W.beginArray().integer(uint16_t(65535)).integer(0u).integer(size_t(10));
  W.integer(~uint64_t(0)).endArray();
  EXPECT_EQ(W.text(), "[65535,0,10,18446744073709551615]");
}

TEST(JsonWriterTest, DoublesRoundTripBitExactly) {
  const std::vector<double> Values = {0.1 + 0.2,    1.0 / 3.0,   -0.0,
                                      5e-324,       DBL_MIN,     DBL_MAX,
                                      -DBL_MAX,     1e21,        1e-7,
                                      123456.789e3, 0.1234567890123,
                                      9007199254740993.0};
  JsonWriter W;
  W.beginObject().key("v").numbers(Values).endObject();
  JsonValue Back;
  ASSERT_TRUE(parseJson(W.text().c_str(), Back)) << W.text();
  std::vector<double> Read;
  ASSERT_TRUE(JsonReader(Back).numbers("v", Read).ok());
  ASSERT_EQ(Read.size(), Values.size());
  for (size_t I = 0; I != Values.size(); ++I) {
    uint64_t Want, Got;
    std::memcpy(&Want, &Values[I], sizeof(Want));
    std::memcpy(&Got, &Read[I], sizeof(Got));
    EXPECT_EQ(Got, Want) << W.text();
  }
}

namespace {

JsonValue parsed(const char *Text) {
  JsonValue Out;
  EXPECT_TRUE(parseJson(Text, Out)) << Text;
  return Out;
}

} // namespace

TEST(JsonReaderTest, WrongTypesAreRefusedWithTheFieldName) {
  JsonValue Obj = parsed("{\"s\":1,\"n\":\"x\",\"a\":{},\"h\":[1,\"2\"]}");
  std::string Str;
  double Num = 0;
  std::vector<double> Nums;
  EXPECT_EQ(JsonReader(Obj).string("s", Str).error(),
            "missing string field 's'");
  EXPECT_EQ(JsonReader(Obj).string("s", Str, JsonReader::Optional).error(),
            "field 's' must be a string");
  EXPECT_EQ(JsonReader(Obj).number("n", Num).error(),
            "missing numeric field 'n'");
  EXPECT_EQ(JsonReader(Obj).number("n", Num, JsonReader::Optional).error(),
            "field 'n' must be a number");
  EXPECT_EQ(JsonReader(Obj).numbers("a", Nums).error(),
            "missing array field 'a'");
  EXPECT_EQ(JsonReader(Obj).numbers("h", Nums).error(),
            "field 'h' must hold numbers only");
  EXPECT_EQ(JsonReader(Obj).string("absent", Str).error(),
            "missing string field 'absent'");
  // An absent optional field keeps its output; a non-object has no fields.
  Str = "kept";
  EXPECT_TRUE(JsonReader(Obj).string("absent", Str, JsonReader::Optional).ok());
  EXPECT_EQ(Str, "kept");
  EXPECT_FALSE(JsonReader(parsed("[1]")).number("0", Num).ok());
}

TEST(JsonReaderTest, IntegersMustBeExactAndInRange) {
  JsonValue Obj = parsed(
      "{\"ok\":4294967295,\"big\":4294967296,\"frac\":2.7,\"neg\":-1,"
      "\"huge\":1e30,\"top\":9007199254740991,\"round\":9007199254740993,"
      "\"exp\":3e2,\"str\":\"5\"}");
  unsigned U32 = 0;
  uint64_t U64 = 0;
  EXPECT_TRUE(JsonReader(Obj).integer("ok", U32).ok());
  EXPECT_EQ(U32, 4294967295u);
  EXPECT_TRUE(JsonReader(Obj).integer("exp", U32).ok());
  EXPECT_EQ(U32, 300u);
  EXPECT_EQ(JsonReader(Obj).integer("big", U32).error(),
            "field 'big' must be an integer from 0 to 4294967295");
  EXPECT_FALSE(JsonReader(Obj).integer("frac", U32).ok());
  EXPECT_FALSE(JsonReader(Obj).integer("neg", U64).ok());
  EXPECT_FALSE(JsonReader(Obj).integer("huge", U64).ok());
  EXPECT_TRUE(JsonReader(Obj).integer("top", U64).ok());
  EXPECT_EQ(U64, MaxExactJsonInteger);
  // 2^53 + 1 parses to 2^53, which is therefore refused too.
  EXPECT_EQ(JsonReader(Obj).integer("round", U64).error(),
            "field 'round' must be an integer from 0 to 9007199254740991");
  EXPECT_EQ(JsonReader(Obj).integer("str", U64, JsonReader::Optional).error(),
            "field 'str' must be an integer from 0 to 9007199254740991");
  EXPECT_EQ(JsonReader(Obj).integer("str", U64).error(),
            "missing numeric field 'str'");
  // Refused reads leave their outputs alone.
  U32 = 17;
  EXPECT_FALSE(JsonReader(Obj).integer("frac", U32).ok());
  EXPECT_EQ(U32, 17u);
}

TEST(JsonReaderTest, FirstFailureSticks) {
  JsonValue Obj = parsed("{\"a\":\"x\",\"b\":2}");
  std::string A;
  double B = 0;
  JsonReader Fields(Obj);
  Fields.number("a", B).string("a", A).number("b", B);
  EXPECT_EQ(Fields.error(), "missing numeric field 'a'");
  EXPECT_TRUE(A.empty());
  EXPECT_EQ(B, 0.0);
  Fields.fail("later");
  EXPECT_EQ(Fields.error(), "missing numeric field 'a'");
}

// Golden record lines, copied from the output of the hand-written
// renderers this codec replaced: any drift in the ledger, journal or wire
// bytes fails here, not only in an end-to-end byte diff.
TEST(JsonGoldenTest, LedgerCellLinesRoundTripByteForByte) {
  const std::string Lines[] = {
      "{\"cell\":\"run|mvt|dynatree|alc|b1|seq:35|q=cost:0.1:0.03|r1|"
      "fp=441ba9255a63990f\",\"iterations\":60,\"distinct\":19,"
      "\"revisits\":1,\"observations\":190,\"skips\":45,"
      "\"final_rmse\":0.02356730910531529,"
      "\"total_cost_seconds\":85.37122743036102,\"curve\":[[0,"
      "73.8796393727743,0.05338769198991019],[10,82.42657270795722,"
      "0.025445248086256755],[20,85.37122743036102,0.02356730910531529],"
      "[30,85.37122743036102,0.02356730910531529],[40,85.37122743036102,"
      "0.02356730910531529],[50,85.37122743036102,0.02356730910531529],"
      "[60,85.37122743036102,0.02356730910531529]]}\n",
      "{\"cell\":\"noise|atax|fp=441ba9255a63990f\",\"noise\":["
      "1.1935334583822796e-06,3.3026073532972136e-05,0.0011637683915980493,"
      "0.0007304110749354871,0.0022726979025913655,0.022085847354970496,"
      "0.0007700765048477394,0.004687793099993167,0.05847656116324933]}\n",
  };
  const CampaignCell::Kind Kinds[] = {CampaignCell::Kind::Run,
                                      CampaignCell::Kind::Noise};
  for (size_t I = 0; I != 2; ++I) {
    std::string Key;
    CellResult Result;
    ASSERT_TRUE(parseCellLine(Lines[I], Key, Result)) << Lines[I];
    EXPECT_EQ(cellLine(Key, Kinds[I], Result), Lines[I]);
  }
  std::string Key;
  CellResult Run;
  ASSERT_TRUE(parseCellLine(Lines[0], Key, Run));
  EXPECT_EQ(Run.Run.Stats.Skips, 45u);
  ASSERT_EQ(Run.Run.Curve.size(), 7u);
  EXPECT_EQ(Run.Run.Curve[6].Iteration, 60u);
  // A zero skip count is omitted, as in pre-policy ledgers.
  Run.Run.Stats.Skips = 0;
  EXPECT_EQ(cellLine(Key, CampaignCell::Kind::Run, Run).find("skips"),
            std::string::npos);
  // Lines the writer cannot produce are refused.
  for (const char *Bad :
       {"{\"cell\":\"k\",\"noise\":[1,2]}",
        "{\"cell\":\"k\",\"iterations\":1.5,\"distinct\":1,\"revisits\":0,"
        "\"observations\":1,\"final_rmse\":1,\"total_cost_seconds\":1,"
        "\"curve\":[[0,1,1]]}",
        "{\"cell\":\"k\",\"iterations\":1,\"distinct\":1,\"revisits\":0,"
        "\"observations\":1,\"final_rmse\":1,\"total_cost_seconds\":1,"
        "\"curve\":[[-1,1,1]]}",
        "{\"cell\":\"k\",\"iterations\":1,\"distinct\":1,\"revisits\":0,"
        "\"observations\":1,\"final_rmse\":1,\"total_cost_seconds\":1,"
        "\"curve\":{}}"}) {
    CellResult Result;
    EXPECT_FALSE(parseCellLine(Bad, Key, Result)) << Bad;
  }
}

TEST(JsonGoldenTest, WireRepliesAndJournalRecordsAreByteStable) {
  ::setenv("ALIC_SCALE", "smoke", 1);
  const std::string Dir = ::testing::TempDir() + "alic_json_golden";
  std::filesystem::remove_all(Dir);
  SessionSpec Spec;
  Spec.Benchmark = "atax";
  Spec.Scale = ExperimentScale::preset(ScaleKind::Smoke);
  Spec.Scale.NumConfigs = 200;
  Spec.Scale.NumInitial = 2;
  Spec.Scale.InitObservations = 2;
  Spec.Scale.MaxTrainingExamples = 4;
  Spec.Scale.CandidatesPerIteration = 10;
  Spec.Scale.ReferenceSetSize = 10;
  Spec.Scale.Particles = 20;
  Spec.Scale.TestSubset = 20;
  Spec.Seed = 12345678901234567890ull;
  Spec.DatasetSeed = 7;
  Spec.Query.Kind = QueryPolicyKind::CostRange;
  Spec.Query.Mellowness = 0.1234567890123;
  ServeOptions Opts;
  Opts.StateDir = Dir;
  ServeEngine Engine(Opts);
  std::string Err;
  ASSERT_TRUE(Engine.openSession("gold", Spec, Err)) << Err;

  const std::pair<const char *, const char *> Exchange[] = {
      {"{\"op\":\"ping\"}", "{\"ok\":true,\"sessions\":1}"},
      {"{\"op\":\"suggest\",\"session\":\"gold\"}",
       "{\"ok\":true,\"phase\":\"explore\",\"ticket\":1,"
       "\"observations_per_config\":2,\"configs\":[[1,0,23,14,20,0,41,39],"
       "[27,5,29,23,1,20,40,20]],\"skipped\":[]}"},
      {"{\"op\":\"observe\",\"session\":\"gold\",\"ticket\":1,"
       "\"costs\":[0.5,0.25,1e-3,3]}",
       "{\"ok\":true,\"observes\":1}"},
      {"{\"op\":\"info\",\"session\":\"gold\"}",
       "{\"ok\":true,\"phase\":\"refine\",\"iterations\":0,\"distinct\":2,"
       "\"revisits\":0,\"observations\":4,\"queries\":0,\"skips\":0,"
       "\"observes\":1,\"total_cost_seconds\":3.751,\"done\":false,"
       "\"snapshot_dirty\":false}"},
      {"{\"op\":\"open\",\"session\":\"w\",\"spec\":{\"benchmark\":\"atax\","
       "\"max_examples\":4}}",
       "{\"ok\":true,\"session\":\"w\"}"},
      {"{\"op\":\"close\",\"session\":\"w\"}", "{\"ok\":true}"},
      {"{\"op\":\"close\",\"session\":\"nope\"}",
       "{\"ok\":false,\"error\":\"unknown session 'nope'\"}"},
      {"{\"op\":\"shutdown\"}", "{\"ok\":true,\"bye\":true}"},
  };
  for (const auto &[Request, Want] : Exchange) {
    std::string Reply;
    handleRequestLine(Engine, Request, Reply);
    EXPECT_EQ(Reply, Want) << Request;
  }
  // The RMSE itself is the model's business; its rendering is the codec's.
  double Rmse = 0;
  ASSERT_TRUE(Engine.evaluate("gold", Rmse, Err)) << Err;
  std::string Reply;
  handleRequestLine(Engine, "{\"op\":\"eval\",\"session\":\"gold\"}", Reply);
  EXPECT_EQ(Reply, "{\"ok\":true,\"rmse\":" + formatJsonDouble(Rmse) + "}");

  std::ifstream In(Dir + "/sess-gold.alsv");
  std::string Header, Event, Rest;
  ASSERT_TRUE(std::getline(In, Header) && std::getline(In, Event));
  EXPECT_FALSE(std::getline(In, Rest));
  EXPECT_EQ(Header,
            "{\"alsv\":3,\"id\":\"gold\",\"benchmark\":\"atax\","
            "\"model\":\"dynatree\",\"scorer\":\"alc\",\"plan\":\"seq:35\","
            "\"policy\":\"cost:0.123457:0.03\",\"mellowness\":0.1234567890123,"
            "\"range_c1\":0.03,\"abs_floor\":0,\"rel_floor\":0.05,"
            "\"batch\":\"1\",\"seed\":\"12345678901234567890\","
            "\"dataset_seed\":\"7\",\"num_configs\":\"200\","
            "\"train_fraction\":0.75,\"mean_observations\":\"35\","
            "\"num_initial\":\"2\",\"init_observations\":\"2\","
            "\"max_examples\":\"4\",\"candidates\":\"10\","
            "\"reference_set\":\"10\",\"particles\":\"20\","
            "\"repetitions\":\"1\",\"eval_every\":\"10\",\"test_subset\":\"20\","
            "\"observation_cap\":\"35\"}");
  EXPECT_EQ(Event, "{\"n\":0,\"costs\":[0.5,0.25,0.001,3]}");
  std::filesystem::remove_all(Dir);
  ::unsetenv("ALIC_SCALE");
}

//===----------------------------------------------------------------------===//
// Backoff
//===----------------------------------------------------------------------===//

TEST(BackoffTest, DeterministicPerSeedAndAttempt) {
  Backoff A(17, 10, 1000), B(17, 10, 1000);
  for (uint64_t Attempt = 0; Attempt != 12; ++Attempt)
    EXPECT_EQ(A.delayMs(Attempt), B.delayMs(Attempt));
  // Same attempt, different seed: the jitter stream differs.
  Backoff C(18, 10, 1000);
  int Same = 0;
  for (uint64_t Attempt = 0; Attempt != 12; ++Attempt)
    Same += A.delayMs(Attempt) == C.delayMs(Attempt);
  EXPECT_LT(Same, 12);
}

TEST(BackoffTest, ZeroJitterIsThePureLadder) {
  // The ledger-append ladder this class replaced: 1, 2, 4, 4, ... ms.
  Backoff Ladder(0, 1, 4, 0.0);
  EXPECT_EQ(Ladder.delayMs(0), 1u);
  EXPECT_EQ(Ladder.delayMs(1), 2u);
  EXPECT_EQ(Ladder.delayMs(2), 4u);
  EXPECT_EQ(Ladder.delayMs(3), 4u);
  EXPECT_EQ(Ladder.delayMs(100), 4u);
}

TEST(BackoffTest, DelaysStayInsideTheJitterWindow) {
  const double Fraction = 0.5;
  Backoff B(99, 100, 1600, Fraction);
  for (uint64_t Attempt = 0; Attempt != 10; ++Attempt) {
    uint64_t Envelope = std::min<uint64_t>(100u << std::min<uint64_t>(
                                               Attempt, 63),
                                           1600);
    uint64_t Delay = B.delayMs(Attempt);
    EXPECT_LE(Delay, Envelope) << "attempt " << Attempt;
    EXPECT_GE(Delay, Envelope - uint64_t(Envelope * Fraction))
        << "attempt " << Attempt;
  }
}

TEST(BackoffTest, EnvelopeGrowsMonotonicallyToTheCap) {
  Backoff B(7, 50, 2000, 0.0);
  uint64_t Prev = 0;
  for (uint64_t Attempt = 0; Attempt != 16; ++Attempt) {
    uint64_t Delay = B.delayMs(Attempt);
    EXPECT_GE(Delay, Prev);
    EXPECT_LE(Delay, B.capMs());
    Prev = Delay;
  }
  EXPECT_EQ(Prev, B.capMs());
}
