// Checked numeric parsing (util/parse.h): the helper's grammar and
// rejection rules, plus malformed-input coverage for every call site
// that was converted off the raw std::sto*/strto* family — QASM
// angles, endpoint ports, JSON numbers, journal CRC frames, fault
// specs, and the CLI flag/tenant parsers.

#include "util/parse.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include "cli_flags.h"
#include "core/checkpoint.h"
#include "qasm/qasm.h"
#include "service/journal.h"
#include "service/socket.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/json_parser.h"

namespace bgls {
namespace {

using service::Endpoint;
using service::Journal;

TEST(ParseDouble, AcceptsOrdinaryNumbers) {
  EXPECT_EQ(util::try_parse_double("0"), 0.0);
  EXPECT_EQ(util::try_parse_double("-0.5"), -0.5);
  EXPECT_EQ(util::try_parse_double("+0.5"), 0.5);
  EXPECT_EQ(util::try_parse_double(".5"), 0.5);
  EXPECT_EQ(util::try_parse_double("5."), 5.0);
  EXPECT_EQ(util::try_parse_double("1e-3"), 1e-3);
  EXPECT_EQ(util::try_parse_double("2E2"), 200.0);
}

TEST(ParseDouble, RejectsGarbageAndNonFinite) {
  EXPECT_EQ(util::try_parse_double(""), std::nullopt);
  EXPECT_EQ(util::try_parse_double("+"), std::nullopt);
  EXPECT_EQ(util::try_parse_double("++1"), std::nullopt);
  EXPECT_EQ(util::try_parse_double("1.2.3"), std::nullopt);  // stod: 1.2
  EXPECT_EQ(util::try_parse_double("1e"), std::nullopt);     // stod: 1.0
  EXPECT_EQ(util::try_parse_double("1 "), std::nullopt);
  EXPECT_EQ(util::try_parse_double(" 1"), std::nullopt);
  EXPECT_EQ(util::try_parse_double("0x10"), std::nullopt);   // strtod: 16
  EXPECT_EQ(util::try_parse_double("1e999"), std::nullopt);  // overflow
  EXPECT_EQ(util::try_parse_double("inf"), std::nullopt);
  EXPECT_EQ(util::try_parse_double("nan"), std::nullopt);
}

TEST(ParseI64, AcceptsAndRejects) {
  EXPECT_EQ(util::try_parse_i64("-42"), -42);
  EXPECT_EQ(util::try_parse_i64("+42"), 42);
  EXPECT_EQ(util::try_parse_i64("9223372036854775807"),
            INT64_C(9223372036854775807));
  EXPECT_EQ(util::try_parse_i64("9223372036854775808"), std::nullopt);
  EXPECT_EQ(util::try_parse_i64("12x"), std::nullopt);
  EXPECT_EQ(util::try_parse_i64(""), std::nullopt);
}

TEST(ParseU64, AcceptsAndRejects) {
  EXPECT_EQ(util::try_parse_u64("0"), 0u);
  EXPECT_EQ(util::try_parse_u64("18446744073709551615"),
            UINT64_C(18446744073709551615));
  EXPECT_EQ(util::try_parse_u64("18446744073709551616"), std::nullopt);
  EXPECT_EQ(util::try_parse_u64("-1"), std::nullopt);  // stoull wraps this
  EXPECT_EQ(util::try_parse_u64("+1"), std::nullopt);
  EXPECT_EQ(util::try_parse_u64("1.0"), std::nullopt);
  EXPECT_EQ(util::try_parse_u64(""), std::nullopt);
}

TEST(ParseDoubleToInt, ChecksRangeAndIntegrality) {
  EXPECT_EQ(util::try_double_to_int(7.0), 7);
  EXPECT_EQ(util::try_double_to_int(-3.0), -3);
  EXPECT_EQ(util::try_double_to_int(2147483647.0), 2147483647);
  EXPECT_EQ(util::try_double_to_int(2147483648.0), std::nullopt);
  EXPECT_EQ(util::try_double_to_int(-2147483649.0), std::nullopt);
  EXPECT_EQ(util::try_double_to_int(1.5), std::nullopt);
  EXPECT_EQ(util::try_double_to_int(1e300), std::nullopt);
}

TEST(ParseThrowing, NamesTheFieldAndText) {
  EXPECT_EQ(util::parse_u64("17"), 17u);
  try {
    (void)util::parse_double("bogus", "angle");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("angle"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

// --- Call-site coverage ---------------------------------------------------

TEST(ParseCallSites, QasmRejectsMalformedNumbers) {
  // Each of these used to slip through std::stod (silent truncation)
  // or escape as a raw std::out_of_range instead of ParseError.
  EXPECT_THROW(parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrx(1.2.3) q[0];"),
               ParseError);
  EXPECT_THROW(parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrx(1e999) q[0];"),
               ParseError);
  EXPECT_THROW(parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrx(1e) q[0];"),
               ParseError);
}

TEST(ParseCallSites, QasmRejectsOutOfRangeRegisters) {
  // Casting 1e300 to int was undefined behavior before the checked
  // narrowing; the cap turns absurd-but-castable widths into errors.
  EXPECT_THROW(parse_qasm("OPENQASM 2.0;\nqreg q[1e300];"), ParseError);
  EXPECT_THROW(parse_qasm("OPENQASM 2.0;\nqreg q[2000000000];"), ParseError);
  EXPECT_THROW(parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[1e300];"),
               ParseError);
  EXPECT_THROW(parse_qasm("OPENQASM 2.0;\nqreg q[0.5];"), ParseError);
}

TEST(ParseCallSites, QasmBoundsExpressionNesting) {
  std::string qasm = "OPENQASM 2.0;\nqreg q[1];\nrx(";
  for (int i = 0; i < 100000; ++i) qasm += '(';
  EXPECT_THROW(parse_qasm(qasm), ParseError);
  std::string minus = "OPENQASM 2.0;\nqreg q[1];\nrx(";
  minus.append(100000, '-');
  EXPECT_THROW(parse_qasm(minus), ParseError);
}

TEST(ParseCallSites, EndpointRejectsMalformedPorts) {
  EXPECT_EQ(Endpoint::parse("tcp:127.0.0.1:7117").port, 7117);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:"), Error);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:70000"), Error);
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:7x"), Error);
  // 30 digits used to saturate strtol at LONG_MAX before the range
  // check; now the parse itself rejects.
  EXPECT_THROW(Endpoint::parse("tcp:127.0.0.1:999999999999999999999999999999"),
               Error);
}

TEST(ParseCallSites, JsonRejectsMalformedNumbers) {
  EXPECT_THROW(JsonValue::parse("1e999"), ParseError);
  EXPECT_THROW(JsonValue::parse("1.2.3"), ParseError);
  EXPECT_THROW(JsonValue::parse("1e"), ParseError);
  EXPECT_EQ(JsonValue::parse("-0.5").as_double(), -0.5);
  EXPECT_EQ(JsonValue::parse("18446744073709551615").as_u64(),
            UINT64_C(18446744073709551615));
}

TEST(ParseCallSites, JsonBoundsNestingDepth) {
  std::string deep;
  deep.append(100000, '[');
  EXPECT_THROW(JsonValue::parse(deep), ParseError);
  // Moderate nesting still parses.
  std::string ok(64, '[');
  ok += "1";
  ok.append(64, ']');
  EXPECT_EQ(JsonValue::parse(ok).kind(), JsonValue::Kind::kArray);
}

TEST(ParseCallSites, JournalSkipsCorruptCrcDigits) {
  const std::string path = ::testing::TempDir() + "parse_journal_crc.ndjson";
  {
    std::ofstream out(path, std::ios::trunc);
    // Oversized CRC digits used to truncate through strtoull's cast;
    // every line here must be skipped, not matched.
    out << "{\"crc\":99999999999999999999,\"rec\":{\"a\":1}}\n";
    out << "{\"crc\":12x34,\"rec\":{\"a\":1}}\n";
    out << "{\"crc\":,\"rec\":{\"a\":1}}\n";
  }
  std::size_t skipped = 0;
  const auto records = Journal::replay_file(path, &skipped);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(skipped, 3u);
  std::remove(path.c_str());
}

TEST(ParseCallSites, CheckpointRejectsMalformedHistogramKeys) {
  const std::string frame =
      "{\"version\":" + std::to_string(RunCheckpoint::kVersion) +
      ",\"run_key\":7,\"total\":2,"
      "\"shards\":[{\"total\":2,\"completed\":1,"
      "\"histograms\":{\"m\":{\"%s\":1}}}]}";
  const auto with_key = [&](const std::string& key) {
    std::string json = frame;
    json.replace(json.find("%s"), 2, key);
    return RunCheckpoint::from_json(JsonValue::parse(json));
  };
  EXPECT_NO_THROW(with_key("3"));
  // Used to escape as raw std::invalid_argument/std::out_of_range from
  // std::stoull on a corrupt checkpoint.
  EXPECT_THROW(with_key("3x"), Error);
  EXPECT_THROW(with_key("99999999999999999999999"), Error);
}

TEST(ParseCallSites, FaultSpecSkipsMalformedEntries) {
  // Malformed entries must be ignored (fault injection never takes the
  // process down on a typo); well-formed ones arm.
  ::setenv("BGLS_FAULT_INJECT", "good:1.0:7,bad:1..5:3,worse:0.5:12x,empty::1",
           1);
  fault::reload_from_env();
  EXPECT_TRUE(fault::should_fail("good"));
  EXPECT_FALSE(fault::should_fail("bad"));
  EXPECT_FALSE(fault::should_fail("worse"));
  EXPECT_FALSE(fault::should_fail("empty"));
  ::unsetenv("BGLS_FAULT_INJECT");
  fault::disarm_all();
}

TEST(ParseCallSites, CliFlagsRejectMalformedValues) {
  EXPECT_EQ(tools::parse_u64_flag("--reps", "4096"), 4096u);
  EXPECT_THROW(tools::parse_u64_flag("--reps", "-1"), ValueError);
  EXPECT_THROW(tools::parse_u64_flag("--reps", "12x"), ValueError);
  EXPECT_THROW(tools::parse_u64_flag("--reps", "99999999999999999999999"),
               ValueError);
  EXPECT_EQ(tools::parse_double_flag("--max-job-seconds", "1.5"), 1.5);
  EXPECT_THROW(tools::parse_double_flag("--max-job-seconds", "1.5x"),
               ValueError);
  EXPECT_THROW(tools::parse_double_flag("--max-job-seconds", "1e999"),
               ValueError);
}

TEST(ParseCallSites, TenantFlagRejectsMalformedSpecs) {
  const auto [name, quota] = tools::parse_tenant_flag("acme=2.5:8:2");
  EXPECT_EQ(name, "acme");
  EXPECT_EQ(quota.weight, 2.5);
  EXPECT_EQ(quota.max_queued, 8u);
  EXPECT_EQ(quota.max_running, 2u);
  // These used to surface as raw std::invalid_argument from std::stod.
  EXPECT_THROW(tools::parse_tenant_flag("acme=x"), ValueError);
  EXPECT_THROW(tools::parse_tenant_flag("acme=1.0:x"), ValueError);
  EXPECT_THROW(tools::parse_tenant_flag("acme=1.0:1:x"), ValueError);
  EXPECT_THROW(tools::parse_tenant_flag("=1.0"), ValueError);
  EXPECT_THROW(tools::parse_tenant_flag("acme=0"), ValueError);
}

}  // namespace
}  // namespace bgls
