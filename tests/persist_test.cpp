/**
 * @file
 * Tests for satori::persist: the binary codec, snapshot and WAL file
 * formats (including every corruption mode), the per-class
 * saveState/restoreState round trips, and the checkpointer's
 * crash-kill resume guarantee (byte-identical decision traces).
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "satori/common/io.hpp"
#include "satori/common/logging.hpp"
#include "satori/common/rng.hpp"
#include "satori/config/enumeration.hpp"
#include "satori/core/goal_record.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/harness/scenarios.hpp"
#include "satori/harness/trace.hpp"
#include "satori/persist/checkpoint.hpp"
#include "satori/persist/codec.hpp"
#include "satori/persist/snapshot.hpp"
#include "satori/persist/wal.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace persist {
namespace {

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
dump(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** Expect @p fn to throw FatalError whose message contains @p want. */
template <typename Fn>
void
expectFatalContaining(Fn&& fn, const std::string& want)
{
    try {
        fn();
        FAIL() << "expected FatalError containing: " << want;
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
            << "actual message: " << e.what();
    }
}

// --- codec ---------------------------------------------------------

TEST(CodecTest, ScalarsAndVectorsRoundTrip)
{
    StateWriter w;
    w.putU8(0xAB);
    w.putU32(0xDEADBEEF);
    w.putU64(0x0123456789ABCDEFull);
    w.putI64(-42);
    w.putBool(true);
    w.putBool(false);
    w.putDouble(3.14159);
    w.putSize(12345);
    w.putString("hello \0 world");
    w.putDoubleVec({1.0, -2.5, 1e300});
    w.putIntVec({-1, 0, 7});

    StateReader r(w.bytes(), "test");
    EXPECT_EQ(r.getU8(), 0xAB);
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_TRUE(r.getBool());
    EXPECT_FALSE(r.getBool());
    EXPECT_EQ(r.getDouble(), 3.14159);
    EXPECT_EQ(r.getSize(), 12345u);
    EXPECT_EQ(r.getString(), "hello \0 world");
    EXPECT_EQ(r.getDoubleVec(), (std::vector<double>{1.0, -2.5, 1e300}));
    EXPECT_EQ(r.getIntVec(), (std::vector<int>{-1, 0, 7}));
    EXPECT_TRUE(r.atEnd());
    r.expectEnd();
}

TEST(CodecTest, DoubleBitPatternsRoundTripExactly)
{
    StateWriter w;
    w.putDouble(-0.0);
    w.putDouble(std::numeric_limits<double>::quiet_NaN());
    w.putDouble(std::numeric_limits<double>::denorm_min());
    w.putDouble(std::numeric_limits<double>::infinity());

    StateReader r(w.bytes(), "test");
    const double neg_zero = r.getDouble();
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_TRUE(std::isnan(r.getDouble()));
    EXPECT_EQ(r.getDouble(), std::numeric_limits<double>::denorm_min());
    EXPECT_TRUE(std::isinf(r.getDouble()));
}

TEST(CodecTest, TruncatedReadNamesContextAndOffset)
{
    StateWriter w;
    w.putU32(7);
    StateReader r(w.bytes(), "snap.bin[policy]");
    (void)r.getU32();
    expectFatalContaining([&] { (void)r.getU64(); },
                          "snap.bin[policy]");
    expectFatalContaining(
        [&] {
            StateReader r2(w.bytes(), "ctx");
            (void)r2.getU32();
            (void)r2.getU64();
        },
        "offset 4");
}

TEST(CodecTest, ExpectEndRejectsTrailingBytes)
{
    StateWriter w;
    w.putU32(1);
    w.putU32(2);
    StateReader r(w.bytes(), "ctx");
    (void)r.getU32();
    expectFatalContaining([&] { r.expectEnd(); }, "trailing");
}

TEST(CodecTest, Crc32MatchesKnownVectorAndChains)
{
    // The canonical CRC-32 check value (IEEE 802.3, reflected).
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32("6789", crc32("12345")), crc32("123456789"));
}

// --- snapshot ------------------------------------------------------

TEST(SnapshotTest, RoundTripsSectionsAndStep)
{
    const std::string path = "/tmp/satori_persist_snap.bin";
    SnapshotWriter w;
    w.section("alpha").putU64(11);
    w.section("beta").putString("state");
    w.writeTo(path, /*fingerprint_crc=*/77, /*step=*/120);

    SnapshotReader r(path, 77);
    EXPECT_EQ(r.step(), 120u);
    EXPECT_TRUE(r.hasSection("alpha"));
    EXPECT_FALSE(r.hasSection("gamma"));
    StateReader a = r.section("alpha");
    EXPECT_EQ(a.getU64(), 11u);
    a.expectEnd();
    StateReader b = r.section("beta");
    EXPECT_EQ(b.getString(), "state");
    std::remove(path.c_str());
}

TEST(SnapshotTest, BitFlipInSectionPayloadIsDetected)
{
    const std::string path = "/tmp/satori_persist_snap_flip.bin";
    SnapshotWriter w;
    w.section("alpha").putDoubleVec({1.0, 2.0, 3.0});
    w.writeTo(path, 77, 10);

    std::string bytes = slurp(path);
    bytes[bytes.size() - 5] ^= 0x01; // inside the payload
    dump(path, bytes);
    expectFatalContaining([&] { SnapshotReader r(path, 77); },
                          "CRC mismatch");
    std::remove(path.c_str());
}

TEST(SnapshotTest, VersionMismatchIsRejectedByName)
{
    const std::string path = "/tmp/satori_persist_snap_ver.bin";
    SnapshotWriter w;
    w.section("alpha").putU64(1);
    w.writeTo(path, 77, 10);

    // Patch the version field (offset 8) and re-stamp the header CRC
    // (offset 28, covering the 28 bytes above) so only the version
    // differs - the reader must name the version, not a CRC.
    std::string bytes = slurp(path);
    bytes[8] = static_cast<char>(kSnapshotFormatVersion + 1);
    const std::uint32_t fixed =
        crc32(std::string_view(bytes).substr(0, 28));
    for (int i = 0; i < 4; ++i)
        bytes[28 + i] = static_cast<char>((fixed >> (8 * i)) & 0xFF);
    dump(path, bytes);
    expectFatalContaining([&] { SnapshotReader r(path, 77); },
                          "format version");
    std::remove(path.c_str());
}

TEST(SnapshotTest, FingerprintMismatchIsRejected)
{
    const std::string path = "/tmp/satori_persist_snap_fp.bin";
    SnapshotWriter w;
    w.section("alpha").putU64(1);
    w.writeTo(path, 77, 10);
    expectFatalContaining([&] { SnapshotReader r(path, 78); },
                          "fingerprint mismatch");
    std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedFileIsRejected)
{
    const std::string path = "/tmp/satori_persist_snap_trunc.bin";
    SnapshotWriter w;
    w.section("alpha").putDoubleVec({1.0, 2.0, 3.0, 4.0});
    w.writeTo(path, 77, 10);
    const std::string bytes = slurp(path);
    dump(path, bytes.substr(0, bytes.size() - 9));
    EXPECT_THROW(SnapshotReader(path, 77), FatalError);
    std::remove(path.c_str());
}

TEST(SnapshotTest, MissingSectionIsAnError)
{
    const std::string path = "/tmp/satori_persist_snap_miss.bin";
    SnapshotWriter w;
    w.section("alpha").putU64(1);
    w.writeTo(path, 77, 10);
    SnapshotReader r(path, 77);
    expectFatalContaining([&] { (void)r.section("gamma"); },
                          "missing snapshot section 'gamma'");
    std::remove(path.c_str());
}

// --- WAL -----------------------------------------------------------

IntervalRecord
sampleRecord(std::uint64_t interval)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    IntervalRecord rec;
    rec.interval = interval;
    rec.time = 0.1 * static_cast<double>(interval + 1);
    rec.config = Configuration::equalPartition(p, 2);
    rec.ips = {1e9, 2e9};
    rec.speedups = {0.5, 0.75};
    rec.throughput = 0.6;
    rec.fairness = 0.9;
    rec.faults = interval % 2 ? "noact" : "";
    rec.decision = rec.config;
    return rec;
}

TEST(WalTest, RoundTripsRecords)
{
    const std::string path = "/tmp/satori_persist_wal.bin";
    {
        WalWriter w = WalWriter::create(path, 77);
        for (std::uint64_t i = 0; i < 3; ++i)
            w.append(sampleRecord(i));
    }
    const WalReadResult res = readWal(path, 77);
    EXPECT_FALSE(res.torn_tail);
    ASSERT_EQ(res.records.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
        EXPECT_EQ(res.records[i].interval, i);
        EXPECT_EQ(res.records[i].ips, sampleRecord(i).ips);
        EXPECT_TRUE(res.records[i].config == sampleRecord(i).config);
        EXPECT_EQ(res.records[i].faults, sampleRecord(i).faults);
    }
    std::remove(path.c_str());
}

TEST(WalTest, TornTailStopsCleanly)
{
    const std::string path = "/tmp/satori_persist_wal_torn.bin";
    {
        WalWriter w = WalWriter::create(path, 77);
        w.append(sampleRecord(0));
        w.append(sampleRecord(1));
        w.appendTorn(sampleRecord(2)); // crash mid-append
    }
    const WalReadResult res = readWal(path, 77);
    EXPECT_TRUE(res.torn_tail);
    EXPECT_EQ(res.records.size(), 2u);
    EXPECT_LT(res.valid_bytes, slurp(path).size());
    std::remove(path.c_str());
}

TEST(WalTest, BitFlipIsCorruptionNotATornTail)
{
    const std::string path = "/tmp/satori_persist_wal_flip.bin";
    {
        WalWriter w = WalWriter::create(path, 77);
        w.append(sampleRecord(0));
        w.append(sampleRecord(1));
    }
    std::string bytes = slurp(path);
    bytes[bytes.size() / 2] ^= 0x40; // inside a complete record
    dump(path, bytes);
    expectFatalContaining([&] { (void)readWal(path, 77); },
                          "WAL is corrupt, not merely torn");
    std::remove(path.c_str());
}

TEST(WalTest, ResumeTruncatesTornTailAndAppends)
{
    const std::string path = "/tmp/satori_persist_wal_resume.bin";
    {
        WalWriter w = WalWriter::create(path, 77);
        w.append(sampleRecord(0));
        w.appendTorn(sampleRecord(1));
    }
    const WalReadResult before = readWal(path, 77);
    ASSERT_TRUE(before.torn_tail);
    {
        WalWriter w = WalWriter::resume(path, before.valid_bytes);
        w.append(sampleRecord(1));
        w.append(sampleRecord(2));
    }
    const WalReadResult after = readWal(path, 77);
    EXPECT_FALSE(after.torn_tail);
    ASSERT_EQ(after.records.size(), 3u);
    EXPECT_EQ(after.records[2].interval, 2u);
    std::remove(path.c_str());
}

TEST(WalTest, FingerprintMismatchIsRejected)
{
    const std::string path = "/tmp/satori_persist_wal_fp.bin";
    {
        WalWriter w = WalWriter::create(path, 77);
        w.append(sampleRecord(0));
    }
    expectFatalContaining([&] { (void)readWal(path, 78); },
                          "fingerprint mismatch");
    std::remove(path.c_str());
}

// --- state hooks ---------------------------------------------------

TEST(StateHooksTest, RngContinuesBitIdenticallyAfterRestore)
{
    Rng a(1234);
    for (int i = 0; i < 100; ++i)
        (void)a.uniform();
    (void)a.gaussian(); // leaves a cached spare in flight
    StateWriter w;
    a.saveState(w);

    Rng b(999);
    StateReader r(w.bytes(), "rng");
    b.restoreState(r);
    r.expectEnd();
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(a.uniform(), b.uniform());
        EXPECT_EQ(a.gaussian(), b.gaussian());
    }
}

TEST(StateHooksTest, ServerStateRoundTripsToIdenticalBytes)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    const auto mix = workloads::mixOf({"canneal", "swaptions"});
    sim::SimulatedServer a = harness::makeServer(p, mix, 5);
    for (int i = 0; i < 25; ++i)
        (void)a.step(0.1);

    StateWriter wa;
    a.saveState(wa);

    sim::SimulatedServer b = harness::makeServer(p, mix, 5);
    StateReader r(wa.bytes(), "server");
    b.restoreState(r);
    r.expectEnd();
    StateWriter wb;
    b.saveState(wb);
    EXPECT_EQ(wa.bytes(), wb.bytes());

    // And the restored server evolves identically.
    EXPECT_EQ(a.step(0.1), b.step(0.1));
}

TEST(StateHooksTest, SatoriControllerStateRoundTripsToIdenticalBytes)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    const auto mix = workloads::mixOf({"canneal", "swaptions"});
    sim::SimulatedServer server = harness::makeServer(p, mix, 5);
    auto policy = harness::makePolicy("SATORI", server);
    ASSERT_TRUE(policy->supportsPersistence());

    harness::ExperimentOptions opt;
    opt.duration = 5.0;
    (void)harness::ExperimentRunner(opt).run(server, *policy, "");

    StateWriter wa;
    policy->saveState(wa);

    sim::SimulatedServer server2 = harness::makeServer(p, mix, 5);
    auto policy2 = harness::makePolicy("SATORI", server2);
    StateReader r(wa.bytes(), "policy");
    policy2->restoreState(r);
    r.expectEnd();
    StateWriter wb;
    policy2->saveState(wb);
    EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(StateHooksTest, GoalRecorderRestoreRecomputesInputsBitwise)
{
    // Input vectors are not persisted: restore recomputes each from
    // its sample's configuration and must reproduce it bit for bit.
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 7);
    p.addResource(ResourceKind::LlcWays, 11);
    p.addResource(ResourceKind::MemBandwidth, 10);
    const ConfigurationSpace space(p, 3);
    Rng rng(31);
    core::GoalRecorder a(2, 16);
    for (int i = 0; i < 20; ++i)
        a.add(space.sample(rng), {rng.uniform(), rng.uniform()});

    StateWriter w;
    a.saveState(w);
    core::GoalRecorder b(2, 16);
    StateReader r(w.bytes(), "goal-record");
    b.restoreState(r);
    r.expectEnd();
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const RealVec& xa = a.sample(i).x;
        const RealVec& xb = b.sample(i).x;
        ASSERT_EQ(xa.size(), xb.size()) << "sample " << i;
        EXPECT_EQ(std::memcmp(xa.data(), xb.data(),
                              xa.size() * sizeof(double)),
                  0)
            << "sample " << i;
    }
}

// --- checkpointer --------------------------------------------------

/**
 * In-process crash/resume: because the run fingerprint excludes the
 * duration, a run that completes at interval N is indistinguishable
 * from one killed there, and a longer resume extends it. The resumed
 * trace must be byte-identical to an uninterrupted run's.
 */
TEST(CheckpointerTest, ResumedRunProducesByteIdenticalTrace)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    const auto mix = workloads::mixOf({"canneal", "swaptions"});
    const std::string dir = "/tmp/satori_persist_ckpt";
    const std::string ref_path = dir + "_ref.csv";
    const std::string res_path = dir + "_res.csv";

    { // uninterrupted reference, 120 intervals
        sim::SimulatedServer server = harness::makeServer(p, mix, 5);
        auto policy = harness::makePolicy("SATORI", server);
        harness::TraceWriter trace(ref_path, harness::TraceFormat::Csv);
        harness::ExperimentOptions opt;
        opt.duration = 12.0;
        opt.trace = &trace;
        (void)harness::ExperimentRunner(opt).run(server, *policy, "");
        trace.close();
    }

    CheckpointOptions copt;
    copt.dir = dir;
    copt.every = 25;

    { // first leg: "dies" after 70 intervals
        sim::SimulatedServer server = harness::makeServer(p, mix, 5);
        auto policy = harness::makePolicy("SATORI", server);
        Checkpointer ckpt(copt, "fp");
        harness::ExperimentOptions opt;
        opt.duration = 7.0;
        opt.checkpoint = &ckpt;
        (void)harness::ExperimentRunner(opt).run(server, *policy, "");
    }

    { // resume to the full 120 intervals
        sim::SimulatedServer server = harness::makeServer(p, mix, 5);
        auto policy = harness::makePolicy("SATORI", server);
        copt.resume = true;
        Checkpointer ckpt(copt, "fp");
        harness::TraceWriter trace(res_path, harness::TraceFormat::Csv);
        harness::ExperimentOptions opt;
        opt.duration = 12.0;
        opt.trace = &trace;
        opt.checkpoint = &ckpt;
        (void)harness::ExperimentRunner(opt).run(server, *policy, "");
        trace.close();
        EXPECT_EQ(trace.count(), 120u);
    }

    EXPECT_EQ(slurp(ref_path), slurp(res_path));
    EXPECT_NE(slurp(ref_path).find("SATORI"), std::string::npos);
    std::remove(ref_path.c_str());
    std::remove(res_path.c_str());
    std::filesystem::remove_all(dir);
}

TEST(CheckpointerTest, ResumeFromEmptyDirectoryIsFatal)
{
    const std::string dir = "/tmp/satori_persist_ckpt_empty";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    CheckpointOptions copt;
    copt.dir = dir;
    copt.resume = true;
    Checkpointer ckpt(copt, "fp");
    expectFatalContaining([&] { ckpt.prepare(); },
                          "nothing to resume");
    std::filesystem::remove_all(dir);
}

TEST(CheckpointerTest, DivergentResumeIsFatal)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    const auto mix = workloads::mixOf({"canneal", "swaptions"});
    const std::string dir = "/tmp/satori_persist_ckpt_div";

    CheckpointOptions copt;
    copt.dir = dir;
    copt.every = 0; // WAL only: the resume re-executes from 0

    { // first leg at seed 5
        sim::SimulatedServer server = harness::makeServer(p, mix, 5);
        auto policy = harness::makePolicy("SATORI", server);
        Checkpointer ckpt(copt, "fp");
        harness::ExperimentOptions opt;
        opt.duration = 3.0;
        opt.checkpoint = &ckpt;
        (void)harness::ExperimentRunner(opt).run(server, *policy, "");
    }

    { // "same" run resumed with a different server seed: the WAL
      // replay must catch the divergence, never fork silently.
        sim::SimulatedServer server = harness::makeServer(p, mix, 6);
        auto policy = harness::makePolicy("SATORI", server);
        copt.resume = true;
        Checkpointer ckpt(copt, "fp");
        harness::ExperimentOptions opt;
        opt.duration = 3.0;
        opt.checkpoint = &ckpt;
        expectFatalContaining(
            [&] {
                (void)harness::ExperimentRunner(opt).run(server,
                                                         *policy, "");
            },
            "resume diverged from the WAL");
    }
    std::filesystem::remove_all(dir);
}

TEST(CheckpointerTest, PolicyWithoutPersistenceIsRejected)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 6);
    const auto mix = workloads::mixOf({"canneal", "swaptions"});
    sim::SimulatedServer server = harness::makeServer(p, mix, 5);
    auto policy = harness::makePolicy("Random", server);
    ASSERT_FALSE(policy->supportsPersistence());

    const std::string dir = "/tmp/satori_persist_ckpt_nopersist";
    CheckpointOptions copt;
    copt.dir = dir;
    Checkpointer ckpt(copt, "fp");
    harness::ExperimentOptions opt;
    opt.duration = 1.0;
    opt.checkpoint = &ckpt;
    expectFatalContaining(
        [&] {
            (void)harness::ExperimentRunner(opt).run(server, *policy,
                                                     "");
        },
        "does not support checkpointing");
    std::filesystem::remove_all(dir);
}

// --- output-path validation ---------------------------------------

TEST(IoTest, ValidateOutputFileRejectsMissingDirectory)
{
    expectFatalContaining(
        [] {
            validateOutputFile("--trace", "/nonexistent/dir/out.csv");
        },
        "--trace");
}

TEST(IoTest, AtomicWriteInstallsWholeFile)
{
    const std::string path = "/tmp/satori_persist_atomic.txt";
    atomicWriteFile(path, "payload");
    EXPECT_EQ(slurp(path), "payload");
    EXPECT_FALSE(pathExists(path + ".tmp"));
    std::remove(path.c_str());
}

} // namespace
} // namespace persist
} // namespace satori
