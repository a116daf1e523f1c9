// Fleet-scale TCP integration tests (topology.scale, docs/SCALING.md):
// delta clock piggyback over real connections and hierarchical failure-
// token dissemination, validated by the same shared causality oracle the
// flat-mode cluster tests use. The codec- and overlay-level properties
// live in tests/scale/; these tests prove the TRANSPORT integration — the
// part where encode order, connection lifecycle and relay acks could
// diverge from the models.
#include <gtest/gtest.h>

#include "src/tcp/tcp_cluster.h"
#include "src/trace/trace_auditor.h"

namespace optrec {
namespace {

TcpClusterConfig base_config() {
  TcpClusterConfig config;
  config.n = 8;
  config.nodes = 4;
  config.seed = 11;
  config.workload.intensity = 6;
  config.workload.depth = 48;
  config.workload.all_seed = true;
  config.process.flush_interval = millis(10);
  config.process.checkpoint_interval = millis(50);
  config.time_cap = seconds(60);
  return config;
}

TEST(TcpScale, DeltaPiggybackFaultFreeDecodesEverythingAndSavesBytes) {
  // Byte savings need clocks wide enough that only a few of the n entries
  // change between consecutive frames of a stream — at n=8 the fixed
  // per-frame overhead (seq, base_seq, checksum) eats the gain, which is
  // exactly why the knob targets fleets. 32 processes is the smallest
  // configuration where the win is unambiguous on every seed.
  TcpClusterConfig config = base_config();
  config.n = 32;
  config.scale.delta_piggyback = true;
  config.enable_oracle = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
  EXPECT_EQ(result.net.messages_sent, result.net.messages_delivered);
  EXPECT_EQ(result.tcp.protocol_errors, 0u);
  // Every cross-node message went through the codec, and the stateful
  // frames cost less on the wire than their flat equivalents.
  EXPECT_GT(result.tcp.delta_frames_tx, 0u);
  EXPECT_LT(result.tcp.delta_bytes_tx, result.tcp.delta_flat_bytes);
  // A fault-free run never needs a resync.
  EXPECT_EQ(result.tcp.delta_resyncs, 0u);
}

TEST(TcpScale, DeltaPiggybackSurvivesCrashesDropsAndDuplicates) {
  // The hard case for a stateful codec: worker crashes roll clocks back,
  // injected duplicates re-queue the same DeltaSend twice, and drops
  // remove frames BEFORE encoding (sender-side), so the connection stream
  // itself stays gap-free — decode must stay exact throughout.
  TcpClusterConfig config = base_config();
  config.scale.delta_piggyback = true;
  config.process.retransmit_on_failure = true;
  config.faults.duplicate_prob = 0.15;
  config.faults.drop_prob = 0.05;
  config.crashes.push_back({millis(30), 2});
  config.crashes.push_back({millis(60), 5});
  config.enable_oracle = true;
  config.enable_trace = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(result.metrics.crashes, 2u);
  EXPECT_LE(result.metrics.max_rollbacks_per_process_per_failure(), 1u);
  const std::vector<std::string> violations =
      cluster.oracle()->check_consistency();
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
  const AuditReport report = audit_trace(cluster.trace()->events());
  EXPECT_TRUE(report.ok()) << report.summary();
  // At this small n the codec cannot save bytes (see the fault-free test);
  // what matters here is that every frame still decoded exactly — the
  // oracle above — and the accounting is live.
  EXPECT_GT(result.tcp.delta_frames_tx, 0u);
  EXPECT_GT(result.tcp.delta_flat_bytes, 0u);
}

TEST(TcpScale, HierarchicalTokenDisseminationReachesEveryone) {
  // Fanout 2 over 4 nodes: the origin sends 2 relays and interior heads
  // forward — strictly fewer token envelopes than the 3 tracked sends flat
  // mode would make per broadcast, and every process still gets the token
  // (quiescence + oracle prove delivery).
  TcpClusterConfig config = base_config();
  config.scale.token_fanout = 2;
  config.process.retransmit_on_failure = true;
  config.crashes.push_back({millis(30), 2});
  config.crashes.push_back({millis(60), 5});
  config.enable_oracle = true;
  config.enable_trace = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_EQ(result.metrics.crashes, 2u);
  EXPECT_EQ(result.metrics.restarts, 2u);
  EXPECT_LE(result.metrics.max_rollbacks_per_process_per_failure(), 1u);
  const std::vector<std::string> violations =
      cluster.oracle()->check_consistency();
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
  const AuditReport report = audit_trace(cluster.trace()->events());
  EXPECT_TRUE(report.ok()) << report.summary();
  // Relays actually carried the broadcasts; every remote process received
  // its copy (logical sends all delivered, nothing stuck unacked).
  EXPECT_GT(result.tcp.relays_tx, 0u);
  EXPECT_GT(result.net.tokens_delivered, 0u);
  EXPECT_EQ(result.net.tokens_sent, result.net.tokens_delivered);
}

TEST(TcpScale, HierarchicalDisseminationSurvivesPartition) {
  // A partition splits the relay tree mid-broadcast: heads inside the far
  // group are unreachable until heal. Retry-until-acked plus the fallback
  // re-split must still cover every node — the run cannot quiesce before
  // every subtree acked.
  TcpClusterConfig config = base_config();
  config.scale.token_fanout = 2;
  config.process.retransmit_on_failure = true;
  config.crashes.push_back({millis(30), 2});
  PartitionEvent part;
  part.at = millis(50);
  part.heal_at = millis(250);
  part.groups = {{0, 1}, {2, 3}};  // node ids
  config.faults.partitions.push_back(part);
  config.enable_oracle = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
  EXPECT_GT(result.tcp.relays_tx, 0u);
  EXPECT_EQ(result.net.tokens_sent, result.net.tokens_delivered);
}

TEST(TcpScale, DeltaAndHierarchicalComposeUnderFaults) {
  // Both scale features on at once, with every fault class injected: the
  // full ISSUE acceptance scenario at test scale.
  TcpClusterConfig config = base_config();
  config.scale.delta_piggyback = true;
  config.scale.token_fanout = 2;
  config.process.retransmit_on_failure = true;
  config.faults.duplicate_prob = 0.1;
  config.faults.drop_prob = 0.03;
  config.crashes.push_back({millis(30), 2});
  config.crashes.push_back({millis(60), 5});
  config.enable_oracle = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
  EXPECT_LE(result.metrics.max_rollbacks_per_process_per_failure(), 1u);
  EXPECT_GT(result.tcp.delta_frames_tx, 0u);
  EXPECT_GT(result.tcp.relays_tx, 0u);
}

TEST(TcpScale, TunedGcReclaimsStorageOnTheTcpPath) {
  // Aggressive Remark-2 GC wired through TcpClusterConfig.process.gc: the
  // run must stay oracle-clean while actually reclaiming log intervals.
  TcpClusterConfig config = base_config();
  config.workload.depth = 96;
  config.process.enable_stability_tracking = true;
  config.process.enable_gc = true;
  config.process.gc.level = scale::GcLevel::kAggressive;
  config.process.gc.keep_checkpoints = 2;
  config.process.stability_gossip_interval = millis(20);
  config.crashes.push_back({millis(40), 3});
  config.enable_oracle = true;

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
  EXPECT_GT(result.metrics.gc_log_entries_reclaimed, 0u);
}

TEST(TcpScale, FastStabilityGossipStillSettles) {
  // Regression: stability gossip (kControl frames every few ms) is protocol
  // background, not application work. When a node counted it as "frames in
  // flight", the coordinator's settle window kept resetting and this run
  // hit its cap with exit 4 long after the last app delivery.
  TcpClusterConfig config = base_config();
  config.workload.depth = 96;
  config.process.enable_stability_tracking = true;
  config.process.enable_gc = true;
  config.process.gc.level = scale::GcLevel::kAggressive;
  config.process.gc.keep_checkpoints = 2;
  config.process.stability_gossip_interval = millis(2);
  config.crashes.push_back({millis(40), 3});
  config.enable_oracle = true;
  config.time_cap = seconds(10);

  TcpCluster cluster(config);
  const TcpClusterResult result = cluster.run();
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_TRUE(result.quiesced);
  EXPECT_TRUE(cluster.oracle()->check_consistency().empty());
  EXPECT_LT(result.wall_time, seconds(5));
}

}  // namespace
}  // namespace optrec
