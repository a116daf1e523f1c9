// The shared command-line helpers (src/tools/cli.h) and the name parsers
// behind them: every tool accepts the same protocol and workload names, and
// a bad name or number is a usage error (exit 2).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/tools/cli.h"

namespace optrec {
namespace {

TEST(NameParsers, ProtocolNamesRoundTripWithAliases) {
  for (ProtocolKind kind :
       {ProtocolKind::kDamaniGarg, ProtocolKind::kPessimistic,
        ProtocolKind::kCoordinated, ProtocolKind::kSenderBased,
        ProtocolKind::kCascading, ProtocolKind::kPetersonKearns,
        ProtocolKind::kPlain}) {
    EXPECT_EQ(protocol_from_name(protocol_name(kind)), kind);
  }
  EXPECT_EQ(protocol_from_name("dg"), ProtocolKind::kDamaniGarg);
  EXPECT_EQ(protocol_from_name("pk"), ProtocolKind::kPetersonKearns);
  EXPECT_EQ(protocol_from_name("no-recovery"), ProtocolKind::kPlain);
  EXPECT_EQ(protocol_from_name("none"), ProtocolKind::kPlain);
  EXPECT_EQ(protocol_from_name("plain"), ProtocolKind::kPlain);
  EXPECT_THROW(protocol_from_name("damani"), std::invalid_argument);
}

TEST(NameParsers, WorkloadNamesRoundTrip) {
  for (WorkloadKind kind :
       {WorkloadKind::kCounter, WorkloadKind::kPingPong, WorkloadKind::kBank,
        WorkloadKind::kGossip, WorkloadKind::kService}) {
    WorkloadSpec spec;
    spec.kind = kind;
    EXPECT_EQ(workload_from_name(spec.name()), kind);
  }
  EXPECT_THROW(workload_from_name("Counter"), std::invalid_argument);
}

TEST(Cli, ParseFlagMatchesBareAndValuedForms) {
  std::string value = "unchanged";
  EXPECT_TRUE(cli::parse_flag("--audit", "--audit", &value));
  EXPECT_EQ(value, "");
  EXPECT_TRUE(cli::parse_flag("--n=8", "--n", &value));
  EXPECT_EQ(value, "8");
  EXPECT_FALSE(cli::parse_flag("--nodes=8", "--n", &value));
  EXPECT_FALSE(cli::parse_flag("--seed", "--n", &value));
}

TEST(Cli, ParsesNumbers) {
  EXPECT_EQ(cli::parse_u64("42", "--n"), 42u);
  EXPECT_DOUBLE_EQ(cli::parse_double("0.25", "--drop"), 0.25);
  EXPECT_EQ(cli::parse_protocol("no-recovery"), ProtocolKind::kPlain);
  EXPECT_EQ(cli::parse_workload("bank"), WorkloadKind::kBank);
}

TEST(CliDeathTest, BadNamesAndNumbersExitTwo) {
  cli::tool_name = "optrec_test";
  EXPECT_EXIT(cli::parse_protocol("bogus"), ::testing::ExitedWithCode(2),
              "optrec_test: unknown protocol 'bogus'");
  EXPECT_EXIT(cli::parse_workload("bogus"), ::testing::ExitedWithCode(2),
              "unknown workload 'bogus'");
  EXPECT_EXIT(cli::parse_u64("12x", "--n"), ::testing::ExitedWithCode(2),
              "bad value for --n: '12x'");
  EXPECT_EXIT(cli::parse_double("", "--drop"), ::testing::ExitedWithCode(2),
              "bad value for --drop");
}

}  // namespace
}  // namespace optrec
