/**
 * @file
 * Tests for the checked environment-variable parsing layer
 * (core/env_util.hh) and the call sites that predate the parse_util
 * migration: REPRO_TRACE_SCALE lives in harness_test.cc;
 * REPRO_BATCH_SWEEP is covered here together with the generic
 * helpers and the REPRO_SERVICE_* knobs. The contract under test:
 * unset/empty selects the default, a valid in-range value is used
 * verbatim, and everything else — trailing garbage, out-of-range,
 * negative where unsigned, unrecognized flag spellings — exits with
 * status 2 after one self-explanatory stderr line naming the
 * variable.
 */

#include "core/env_util.hh"

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/batch_sweep.hh"
#include "service/service_config.hh"

namespace
{

using namespace vpred;

class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char* name_;
};

TEST(EnvUtil, UnsetAndEmptySelectTheDefault)
{
    ::unsetenv("REPRO_TEST_KNOB");
    // REPRO_TEST_KNOB is this test's synthetic knob, not a real
    // configuration surface — keep it out of docs/api.md.
    EXPECT_DOUBLE_EQ(
            envDoubleOr("REPRO_TEST_KNOB",  // repro-lint: allow(api/env-doc-drift)
                        1.5, 0.0, 10.0),
            1.5);
    EXPECT_EQ(envUIntOr("REPRO_TEST_KNOB", 7, 1, 100), 7u);
    EXPECT_TRUE(envFlagOr("REPRO_TEST_KNOB", true));
    ScopedEnv empty("REPRO_TEST_KNOB", "");
    EXPECT_DOUBLE_EQ(envDoubleOr("REPRO_TEST_KNOB", 1.5, 0.0, 10.0), 1.5);
    EXPECT_FALSE(envFlagOr("REPRO_TEST_KNOB", false));
}

TEST(EnvUtil, ValidValuesParse)
{
    {
        ScopedEnv e("REPRO_TEST_KNOB", "2.25");
        EXPECT_DOUBLE_EQ(envDoubleOr("REPRO_TEST_KNOB", 1.0, 0.0, 10.0),
                         2.25);
    }
    {
        ScopedEnv e("REPRO_TEST_KNOB", "42");
        EXPECT_EQ(envUIntOr("REPRO_TEST_KNOB", 1, 1, 100), 42u);
    }
    {
        ScopedEnv e("REPRO_TEST_KNOB", "On");
        EXPECT_TRUE(envFlagOr("REPRO_TEST_KNOB", false));
    }
    {
        ScopedEnv e("REPRO_TEST_KNOB", "no");
        EXPECT_FALSE(envFlagOr("REPRO_TEST_KNOB", true));
    }
}

TEST(EnvUtilDeathTest, TrailingGarbageIsFatal)
{
    ScopedEnv e("REPRO_TEST_KNOB", "1.5x");
    EXPECT_EXIT(envDoubleOr("REPRO_TEST_KNOB", 1.0, 0.0, 10.0),
                ::testing::ExitedWithCode(2), "REPRO_TEST_KNOB");
}

TEST(EnvUtilDeathTest, OutOfRangeIsFatal)
{
    ScopedEnv e("REPRO_TEST_KNOB", "512");
    EXPECT_EXIT(envUIntOr("REPRO_TEST_KNOB", 8, 1, 256),
                ::testing::ExitedWithCode(2), "REPRO_TEST_KNOB");
}

TEST(EnvUtilDeathTest, NegativeUnsignedIsFatal)
{
    // strtoull would wrap -3 to 2^64-3; parseUInt rejects it and the
    // env layer turns the rejection into a hard exit.
    ScopedEnv e("REPRO_TEST_KNOB", "-3");
    EXPECT_EXIT(envUIntOr("REPRO_TEST_KNOB", 8, 1, 256),
                ::testing::ExitedWithCode(2), "REPRO_TEST_KNOB");
}

TEST(EnvUtilDeathTest, UnrecognizedFlagIsFatal)
{
    ScopedEnv e("REPRO_TEST_KNOB", "fales");
    EXPECT_EXIT(envFlagOr("REPRO_TEST_KNOB", true),
                ::testing::ExitedWithCode(2), "REPRO_TEST_KNOB");
}

// --- the migrated call sites ---------------------------------------

TEST(BatchSweepEnv, RecognizedSpellingsToggle)
{
    {
        ScopedEnv on("REPRO_BATCH_SWEEP", "1");
        EXPECT_TRUE(vpred::harness::batchSweepEnabled());
    }
    {
        ScopedEnv off("REPRO_BATCH_SWEEP", "off");
        EXPECT_FALSE(vpred::harness::batchSweepEnabled());
    }
    ::unsetenv("REPRO_BATCH_SWEEP");
    EXPECT_TRUE(vpred::harness::batchSweepEnabled());
}

TEST(BatchSweepEnvDeathTest, GarbageIsFatalNotSilentlyOn)
{
    // "fales" (a typo for "false") used to enable batching — the
    // exact opposite of the user's intent.
    ScopedEnv e("REPRO_BATCH_SWEEP", "fales");
    EXPECT_EXIT(vpred::harness::batchSweepEnabled(),
                ::testing::ExitedWithCode(2), "REPRO_BATCH_SWEEP");
}

TEST(ServiceEnv, ValidValuesConfigureTheService)
{
    ScopedEnv shards("REPRO_SERVICE_SHARDS", "8");
    ScopedEnv ring("REPRO_SERVICE_RING_CAP", "1024");
    const service::ServiceConfig cfg = service::ServiceConfig::fromEnv();
    EXPECT_EQ(cfg.shards, 8u);
    EXPECT_EQ(cfg.ring_capacity, 1024u);
}

TEST(ServiceEnvDeathTest, MalformedShardsIsFatal)
{
    // New REPRO_SERVICE_* knobs use checked parsing from day one —
    // no raw getenv to audit later.
    ScopedEnv e("REPRO_SERVICE_SHARDS", "8x");
    EXPECT_EXIT(service::ServiceConfig::fromEnv(),
                ::testing::ExitedWithCode(2), "REPRO_SERVICE_SHARDS");
}

TEST(ServiceEnvDeathTest, OutOfRangeProducerCapIsFatal)
{
    ScopedEnv e("REPRO_SERVICE_RING_PRODUCERS", "0");
    EXPECT_EXIT(service::ServiceConfig::fromEnv(),
                ::testing::ExitedWithCode(2),
                "REPRO_SERVICE_RING_PRODUCERS");
}

} // namespace
