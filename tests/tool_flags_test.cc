// Table-driven coverage of the shared CLI flag parsers (tools/tool_flags.h).
// The tools all parse `--oracle`/`--mechanism`/`--stream` and the campaign
// identity flags through these helpers; the tables here pin the exact
// vocabulary and validation rules so a drift in any one binary would have to
// change a shared parser and fail this test.

#include "tool_flags.h"

#include <gtest/gtest.h>

#include <string>

namespace ldp::tools {
namespace {

constexpr unsigned kAllIdentityFlags =
    kFlagReporterId | kFlagCampaignKey | kFlagNodeId;

struct IdentityCase {
  const char* flag;
  std::string value;
  unsigned allowed;
  bool consumed;  // recognized as an enabled identity flag
  bool valid;     // no validation error
};

TEST(IdentityFlagTest, Table) {
  const std::string max_id(net::kMaxReporterIdBytes, 'a');
  const IdentityCase kCases[] = {
      {"--reporter-id", "user-7", kAllIdentityFlags, true, true},
      {"--reporter-id", max_id, kAllIdentityFlags, true, true},
      {"--reporter-id", max_id + "a", kAllIdentityFlags, true, false},
      {"--reporter-id", "", kAllIdentityFlags, true, false},
      // A tool that does not enable the flag must leave it unparsed.
      {"--reporter-id", "user-7", kFlagCampaignKey | kFlagNodeId, false, true},
      {"--campaign-key", "hunter2", kAllIdentityFlags, true, true},
      {"--campaign-key", "", kAllIdentityFlags, true, false},
      {"--campaign-key", "hunter2", kFlagReporterId, false, true},
      {"--node-id", "42", kAllIdentityFlags, true, true},
      {"--node-id", "0", kAllIdentityFlags, true, true},
      {"--node-id", "4x2", kAllIdentityFlags, true, false},
      {"--node-id", "-1", kAllIdentityFlags, true, false},
      {"--node-id", "+3", kAllIdentityFlags, true, false},
      {"--node-id", "", kAllIdentityFlags, true, false},
      {"--node-id", "42", kFlagReporterId | kFlagCampaignKey, false, true},
      // Non-identity flags never match, whatever is enabled.
      {"--oracle", "oue", kAllIdentityFlags, false, true},
      {"--schema", "s.schema", kAllIdentityFlags, false, true},
  };
  for (const IdentityCase& c : kCases) {
    SCOPED_TRACE(std::string(c.flag) + "=" + c.value);
    IdentityFlags flags;
    std::string error;
    bool value_taken = false;
    auto next = [&]() -> const char* {
      value_taken = true;
      return c.value.c_str();
    };
    const bool consumed =
        ParseIdentityFlag(c.flag, next, c.allowed, &flags, &error);
    EXPECT_EQ(consumed, c.consumed);
    EXPECT_EQ(value_taken, c.consumed);  // operand pulled iff flag matched
    EXPECT_EQ(error.empty(), c.valid) << error;
  }
}

TEST(IdentityFlagTest, StoresParsedValues) {
  IdentityFlags flags;
  std::string error;
  const char* reporter = "user-7";
  const char* key = "hunter2";
  const char* node = "17";
  EXPECT_TRUE(ParseIdentityFlag(
      "--reporter-id", [&] { return reporter; }, kAllIdentityFlags, &flags,
      &error));
  EXPECT_TRUE(ParseIdentityFlag(
      "--campaign-key", [&] { return key; }, kAllIdentityFlags, &flags,
      &error));
  EXPECT_TRUE(ParseIdentityFlag(
      "--node-id", [&] { return node; }, kAllIdentityFlags, &flags, &error));
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(flags.reporter_id, "user-7");
  EXPECT_EQ(flags.campaign_key, "hunter2");
  EXPECT_EQ(flags.node_id, 17u);
}

TEST(IdentityFlagTest, ReporterIdentityPairingRule) {
  struct PairCase {
    const char* reporter_id;
    const char* campaign_key;
    bool ok;
  };
  const PairCase kCases[] = {
      {"", "", true},             // unauthenticated run
      {"user-7", "hunter2", true},  // authenticated run
      {"user-7", "", false},      // id with nothing to sign it
      {"", "hunter2", false},     // key with nobody to sign for
  };
  for (const PairCase& c : kCases) {
    SCOPED_TRACE(std::string("id=") + c.reporter_id + " key=" +
                 c.campaign_key);
    IdentityFlags flags;
    flags.reporter_id = c.reporter_id;
    flags.campaign_key = c.campaign_key;
    std::string error;
    EXPECT_EQ(CheckReporterIdentity(flags, &error), c.ok);
    EXPECT_EQ(error.empty(), c.ok) << error;
  }
}

TEST(UnsignedFlagTest, Table) {
  struct UnsignedCase {
    const char* text;
    bool ok;
    uint64_t value;
  };
  const UnsignedCase kCases[] = {
      {"0", true, 0},
      {"4", true, 4},
      {"007", true, 7},
      {"18446744073709551615", true, UINT64_MAX},
      {"", false, 0},                      // empty
      {"-1", false, 0},                    // sign (would wrap to 2^64-1)
      {"+4", false, 0},                    // sign
      {" 4", false, 0},                    // leading whitespace
      {"4 ", false, 0},                    // trailing whitespace
      {"4x", false, 0},                    // trailing junk
      {"abc", false, 0},                   // no digits (would read as 0)
      {"0x10", false, 0},                  // not decimal
      {"18446744073709551616", false, 0},  // overflow
  };
  for (const UnsignedCase& c : kCases) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    uint64_t value = 99;
    EXPECT_EQ(ParseUnsignedFlag(c.text, &value), c.ok);
    EXPECT_EQ(value, c.ok ? c.value : 99u);  // untouched on refusal
  }
}

TEST(UnsignedFlagTest, RespectsTheTargetTypesRange) {
  uint32_t narrow = 0;
  EXPECT_TRUE(ParseUnsignedFlag("4294967295", &narrow));
  EXPECT_EQ(narrow, UINT32_MAX);
  EXPECT_FALSE(ParseUnsignedFlag("4294967296", &narrow));
  int timeout_ms = 0;
  EXPECT_TRUE(ParseUnsignedFlag("2147483647", &timeout_ms));
  EXPECT_EQ(timeout_ms, INT32_MAX);
  EXPECT_FALSE(ParseUnsignedFlag("2147483648", &timeout_ms));
  EXPECT_FALSE(ParseUnsignedFlag("-5", &timeout_ms));
  EXPECT_FALSE(ParseUnsignedFlag(nullptr, &timeout_ms));
}

TEST(FiniteDoubleFlagTest, Table) {
  struct DoubleCase {
    const char* text;
    bool ok;
    double value;
  };
  const DoubleCase kCases[] = {
      {"4", true, 4.0},
      {"0.95", true, 0.95},
      {"-2.5", true, -2.5},
      {"1e-3", true, 1e-3},
      {".5", true, 0.5},
      {"", false, 0},       // empty
      {"4x", false, 0},     // trailing junk (strtod would read 4)
      {"4 ", false, 0},     // trailing whitespace
      {" 4", false, 0},     // leading whitespace
      {"abc", false, 0},    // no number (strtod would read 0)
      {"nan", false, 0},    // not finite
      {"inf", false, 0},    // not finite
      {"-inf", false, 0},   // not finite
      {"1e999", false, 0},  // overflow
      {"1e-999", false, 0}, // underflow
  };
  for (const DoubleCase& c : kCases) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    double value = 99.0;
    EXPECT_EQ(ParseFiniteDoubleFlag(c.text, &value), c.ok);
    EXPECT_EQ(value, c.ok ? c.value : 99.0);  // untouched on refusal
  }
  double value = 99.0;
  EXPECT_FALSE(ParseFiniteDoubleFlag(nullptr, &value));
  EXPECT_EQ(value, 99.0);
}

TEST(RelayIntervalFlagTest, Table) {
  struct IntervalCase {
    const char* text;
    bool ok;
    int interval_ms;
  };
  const IntervalCase kCases[] = {
      {"1", true, 1000},
      {"30", true, 30000},
      {"2147483", true, 2147483000},  // INT_MAX / 1000
      {"0", false, 0},                // no interval
      {"2147484", false, 0},          // milliseconds overflow an int
      {"3000000", false, 0},          // likewise
      {"1x", false, 0},               // trailing junk (strtol read 1)
      {"abc", false, 0},              // no digits (strtol read 0)
      {"-1", false, 0},               // sign
      {"1.5", false, 0},              // not whole seconds
      {"", false, 0},                 // empty
  };
  for (const IntervalCase& c : kCases) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    int interval_ms = 99;
    EXPECT_EQ(ParseRelayIntervalFlag(c.text, &interval_ms), c.ok);
    EXPECT_EQ(interval_ms, c.ok ? c.interval_ms : 99);
  }
}

TEST(VocabularyFlagTest, OracleTable) {
  struct OracleCase {
    const char* name;
    bool ok;
    FrequencyOracleKind kind;
  };
  const OracleCase kCases[] = {
      {"oue", true, FrequencyOracleKind::kOue},
      {"grr", true, FrequencyOracleKind::kGrr},
      {"sue", true, FrequencyOracleKind::kSue},
      {"olh", true, FrequencyOracleKind::kOlh},
      {"he", true, FrequencyOracleKind::kHe},
      {"the", true, FrequencyOracleKind::kThe},
      {"OUE", false, FrequencyOracleKind::kOue},
      {"", false, FrequencyOracleKind::kOue},
      {"rappor", false, FrequencyOracleKind::kOue},
  };
  for (const OracleCase& c : kCases) {
    SCOPED_TRACE(c.name);
    FrequencyOracleKind kind = FrequencyOracleKind::kOue;
    EXPECT_EQ(ParseOracleFlag(c.name, &kind), c.ok);
    if (c.ok) {
      EXPECT_EQ(kind, c.kind);
    }
  }
}

TEST(VocabularyFlagTest, MechanismAndWireTables) {
  MechanismKind mechanism = MechanismKind::kHybrid;
  EXPECT_TRUE(ParseMechanismFlag("hm", &mechanism));
  EXPECT_EQ(mechanism, MechanismKind::kHybrid);
  EXPECT_TRUE(ParseMechanismFlag("pm", &mechanism));
  EXPECT_EQ(mechanism, MechanismKind::kPiecewise);
  EXPECT_FALSE(ParseMechanismFlag("laplace", &mechanism));

  api::WirePreference wire = api::WirePreference::kAuto;
  EXPECT_TRUE(ParseWireFlag("auto", &wire));
  EXPECT_EQ(wire, api::WirePreference::kAuto);
  EXPECT_TRUE(ParseWireFlag("mixed", &wire));
  EXPECT_EQ(wire, api::WirePreference::kMixed);
  EXPECT_TRUE(ParseWireFlag("numeric", &wire));
  EXPECT_EQ(wire, api::WirePreference::kNumeric);
  EXPECT_FALSE(ParseWireFlag("binary", &wire));
}

}  // namespace
}  // namespace ldp::tools
