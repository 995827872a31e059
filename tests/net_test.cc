#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/dispatcher.h"
#include "net/failure_detector.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace replidb::net {
namespace {

using sim::kHour;
using sim::kMillisecond;
using sim::kSecond;

struct TestEnv {
  sim::Simulator sim;
  NetworkOptions opts;
  std::unique_ptr<Network> net;

  explicit TestEnv(NetworkOptions o = {}) : opts(o) {
    opts.lan_jitter = 0;
    opts.wan_jitter = 0;
    net = std::make_unique<Network>(&sim, opts);
  }
};

TEST(NetworkTest, DeliversWithLanLatency) {
  TestEnv env;
  std::vector<std::string> received;
  sim::TimePoint delivered_at = -1;
  env.net->RegisterNode(1, [](const Message&) {});
  env.net->RegisterNode(2, [&](const Message& m) {
    received.push_back(m.type);
    delivered_at = env.sim.Now();
  });
  env.net->Send(1, 2, "hello", std::string("x"), 1);
  env.sim.Run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "hello");
  EXPECT_EQ(delivered_at, env.opts.lan_latency);
}

TEST(NetworkTest, WanLatencyAppliesAcrossSites) {
  TestEnv env;
  sim::TimePoint delivered_at = -1;
  env.net->RegisterNode(1, [](const Message&) {}, /*site=*/0);
  env.net->RegisterNode(2, [&](const Message&) { delivered_at = env.sim.Now(); },
                        /*site=*/1);
  env.net->Send(1, 2, "m", 0, 1);
  env.sim.Run();
  EXPECT_EQ(delivered_at, env.opts.wan_latency);
}

TEST(NetworkTest, BandwidthAddsTransmissionDelay) {
  TestEnv env;
  sim::TimePoint delivered_at = -1;
  env.net->RegisterNode(1, [](const Message&) {});
  env.net->RegisterNode(2, [&](const Message&) { delivered_at = env.sim.Now(); });
  // 1 Gbps => 125e6 B/s => 1 MiB takes ~8.4ms.
  env.net->Send(1, 2, "big", 0, 1 << 20);
  env.sim.Run();
  EXPECT_GT(delivered_at, env.opts.lan_latency + 8 * kMillisecond);
  EXPECT_LT(delivered_at, env.opts.lan_latency + 10 * kMillisecond);
}

TEST(NetworkTest, BandwidthDelayScalesWithSize) {
  // Regression for the size_bytes plumbing: the same payload must take
  // measurably longer as it grows, on both LAN and WAN links, so codec
  // sizes actually bite in the bandwidth model.
  TestEnv env;
  env.net->RegisterNode(1, [](const Message&) {}, /*site=*/0);
  sim::TimePoint lan_at = -1;
  sim::TimePoint wan_at = -1;
  env.net->RegisterNode(2, [&](const Message&) { lan_at = env.sim.Now(); },
                        /*site=*/0);
  env.net->RegisterNode(3, [&](const Message&) { wan_at = env.sim.Now(); },
                        /*site=*/1);

  auto lan_delay = [&](int64_t size) {
    lan_at = -1;
    sim::TimePoint sent = env.sim.Now();
    env.net->Send(1, 2, "m", 0, size);
    env.sim.Run();
    return lan_at - sent;
  };
  auto wan_delay = [&](int64_t size) {
    wan_at = -1;
    sim::TimePoint sent = env.sim.Now();
    env.net->Send(1, 3, "m", 0, size);
    env.sim.Run();
    return wan_at - sent;
  };

  sim::Duration lan_small = lan_delay(64);
  sim::Duration lan_big = lan_delay(1 << 20);
  // 1 GbE: 1 MiB adds ~8.4ms of transmission over the tiny message.
  EXPECT_GT(lan_big - lan_small, 8 * kMillisecond);
  EXPECT_LT(lan_big - lan_small, 9 * kMillisecond);

  sim::Duration wan_small = wan_delay(64);
  sim::Duration wan_big = wan_delay(1 << 20);
  // 100 Mbps WAN: 1 MiB adds ~83.9ms. The WAN penalty is 10x the LAN one.
  EXPECT_GT(wan_big - wan_small, 80 * kMillisecond);
  EXPECT_LT(wan_big - wan_small, 90 * kMillisecond);
  EXPECT_GT(wan_big - wan_small, 5 * (lan_big - lan_small));
}

TEST(NetworkTest, SendRejectsMissingPayloadSize) {
  TestEnv env;
  env.net->RegisterNode(1, [](const Message&) {});
  env.net->RegisterNode(2, [](const Message&) {});
  EXPECT_DEATH(env.net->Send(1, 2, "m", 0, 0), "positive payload size");
}

TEST(NetworkTest, CrashedReceiverDropsMessage) {
  TestEnv env;
  int delivered = 0;
  env.net->RegisterNode(1, [](const Message&) {});
  env.net->RegisterNode(2, [&](const Message&) { ++delivered; });
  env.net->CrashNode(2);
  env.net->Send(1, 2, "m", 0, 1);
  env.sim.Run();
  EXPECT_EQ(delivered, 0);
  env.net->RestartNode(2);
  env.net->Send(1, 2, "m", 0, 1);
  env.sim.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkTest, CrashedSenderCannotSend) {
  TestEnv env;
  int delivered = 0;
  env.net->RegisterNode(1, [](const Message&) {});
  env.net->RegisterNode(2, [&](const Message&) { ++delivered; });
  env.net->CrashNode(1);
  EXPECT_FALSE(env.net->Send(1, 2, "m", 0, 1));
  env.sim.Run();
  EXPECT_EQ(delivered, 0);
}

TEST(NetworkTest, CrashWhileInFlightDropsMessage) {
  TestEnv env;
  int delivered = 0;
  env.net->RegisterNode(1, [](const Message&) {});
  env.net->RegisterNode(2, [&](const Message&) { ++delivered; });
  env.net->Send(1, 2, "m", 0, 1);
  env.net->CrashNode(2);  // Crash before the delivery event fires.
  env.sim.Run();
  EXPECT_EQ(delivered, 0);
}

TEST(NetworkTest, PartitionBlocksCrossGroupTraffic) {
  TestEnv env;
  int delivered_12 = 0, delivered_13 = 0;
  env.net->RegisterNode(1, [](const Message&) {});
  env.net->RegisterNode(2, [&](const Message&) { ++delivered_12; });
  env.net->RegisterNode(3, [&](const Message&) { ++delivered_13; });
  env.net->Partition({{1, 2}, {3}});
  EXPECT_TRUE(env.net->Reachable(1, 2));
  EXPECT_FALSE(env.net->Reachable(1, 3));
  env.net->Send(1, 2, "m", 0, 1);
  env.net->Send(1, 3, "m", 0, 1);
  env.sim.Run();
  EXPECT_EQ(delivered_12, 1);
  EXPECT_EQ(delivered_13, 0);
  env.net->HealPartition();
  env.net->Send(1, 3, "m", 0, 1);
  env.sim.Run();
  EXPECT_EQ(delivered_13, 1);
}

TEST(NetworkTest, UnlistedNodesFallIntoImplicitGroup) {
  TestEnv env;
  env.net->RegisterNode(1, [](const Message&) {});
  env.net->RegisterNode(2, [](const Message&) {});
  env.net->RegisterNode(3, [](const Message&) {});
  env.net->Partition({{1}});
  EXPECT_FALSE(env.net->Reachable(1, 2));
  EXPECT_TRUE(env.net->Reachable(2, 3));
}

TEST(NetworkTest, LossProbabilityDropsSomeMessages) {
  NetworkOptions o;
  o.lan_loss_probability = 0.5;
  o.seed = 99;
  TestEnv env(o);
  int delivered = 0;
  env.net->RegisterNode(1, [](const Message&) {});
  env.net->RegisterNode(2, [&](const Message&) { ++delivered; });
  for (int i = 0; i < 1000; ++i) env.net->Send(1, 2, "m", 0, 1);
  env.sim.Run();
  EXPECT_GT(delivered, 350);
  EXPECT_LT(delivered, 650);
}

TEST(NetworkTest, StatsCount) {
  TestEnv env;
  env.net->RegisterNode(1, [](const Message&) {});
  env.net->RegisterNode(2, [](const Message&) {});
  env.net->Send(1, 2, "m", 0, 100);
  env.sim.Run();
  EXPECT_EQ(env.net->messages_sent(), 1u);
  EXPECT_EQ(env.net->messages_delivered(), 1u);
  EXPECT_EQ(env.net->bytes_delivered(), 100u);
}

TEST(DispatcherTest, RoutesByType) {
  TestEnv env;
  Dispatcher d1(env.net.get(), 1);
  Dispatcher d2(env.net.get(), 2);
  int a = 0, b = 0;
  d2.On("a", [&](const Message&) { ++a; });
  d2.On("b", [&](const Message&) { ++b; });
  d1.Send(2, "a", 0, 1);
  d1.Send(2, "b", 0, 1);
  d1.Send(2, "c", 0, 1);
  env.sim.Run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(d2.unmatched_messages(), 1u);
}

// A handler that subscribes while a message of its type is dispatched sees
// only later messages. The running handler reads its capture after each
// On(): it captures one pointer, so std::function holds it inline, and a
// handler list that moved its elements would leave it reading freed memory.
TEST(DispatcherTest, HandlerSubscribedDuringDispatchSeesOnlyLaterMessages) {
  TestEnv env;
  Dispatcher d1(env.net.get(), 1);
  Dispatcher d2(env.net.get(), 2);
  struct Context {
    Dispatcher* d;
    std::vector<int> seen;  // Messages each late handler saw.
    int calls = 0;
  } ctx{&d2, {}};
  constexpr int kPerMessage = 40;  // Grows the handler list many times.
  d2.On("a", [c = &ctx](const Message&) {
    ++c->calls;
    for (int i = 0; i < kPerMessage; ++i) {
      size_t slot = c->seen.size();
      c->seen.push_back(0);
      c->d->On("a", [c, slot](const Message&) { ++c->seen[slot]; });
    }
  });
  for (int i = 0; i < 3; ++i) d1.Send(2, "a", 0, 1);
  env.sim.Run();
  EXPECT_EQ(ctx.calls, 3);
  ASSERT_EQ(ctx.seen.size(), 3u * kPerMessage);
  for (size_t s = 0; s < ctx.seen.size(); ++s) {
    // Subscribed during message k (0-based) of 3: sees the 2 - k after it.
    EXPECT_EQ(ctx.seen[s], 2 - static_cast<int>(s / kPerMessage))
        << "handler " << s;
  }
}

// --- Heartbeat detector ------------------------------------------------

struct HbEnv : TestEnv {
  Dispatcher monitor{net.get(), 100};
  Dispatcher target{net.get(), 200};
  HeartbeatResponder responder{&sim, &target};
};

TEST(HeartbeatDetectorTest, DetectsCrashWithinExpectedWindow) {
  HbEnv env;
  HeartbeatOptions opts;
  opts.period = 500 * kMillisecond;
  opts.timeout = 200 * kMillisecond;
  opts.miss_threshold = 3;
  HeartbeatDetector det(&env.sim, &env.monitor, opts);
  det.Watch(200);
  sim::TimePoint detected_at = -1;
  det.OnSuspicionChange([&](NodeId n, bool suspect) {
    if (n == 200 && suspect) detected_at = env.sim.Now();
  });
  env.sim.RunUntil(2 * kSecond);
  EXPECT_FALSE(det.IsSuspect(200));
  sim::TimePoint crash_time = env.sim.Now();
  env.net->CrashNode(200);
  env.sim.RunUntil(crash_time + 10 * kSecond);
  ASSERT_TRUE(det.IsSuspect(200));
  // Detection latency ~ 3 missed periods + timeout.
  EXPECT_LE(detected_at - crash_time, 3 * opts.period + opts.timeout + opts.period);
  EXPECT_EQ(det.false_positives(), 0u);
}

TEST(HeartbeatDetectorTest, RecoversOnRestart) {
  HbEnv env;
  HeartbeatOptions opts;
  opts.period = 100 * kMillisecond;
  opts.timeout = 50 * kMillisecond;
  HeartbeatDetector det(&env.sim, &env.monitor, opts);
  det.Watch(200);
  env.sim.RunUntil(1 * kSecond);
  env.net->CrashNode(200);
  env.sim.RunUntil(3 * kSecond);
  ASSERT_TRUE(det.IsSuspect(200));
  env.net->RestartNode(200);
  env.sim.RunUntil(5 * kSecond);
  EXPECT_FALSE(det.IsSuspect(200));  // Failback detected.
}

TEST(HeartbeatDetectorTest, OverloadedNodeCausesFalsePositive) {
  HbEnv env;
  HeartbeatOptions opts;
  opts.period = 100 * kMillisecond;
  opts.timeout = 50 * kMillisecond;
  opts.miss_threshold = 2;
  HeartbeatDetector det(&env.sim, &env.monitor, opts);
  det.Watch(200);
  env.sim.RunUntil(1 * kSecond);
  EXPECT_FALSE(det.IsSuspect(200));
  // Node is up but answers slower than the timeout: classified failed.
  env.responder.set_response_delay(300 * kMillisecond);
  env.sim.RunUntil(3 * kSecond);
  EXPECT_GE(det.false_positives(), 1u);
}

TEST(HeartbeatDetectorTest, GenerousTimeoutToleratesLoad) {
  HbEnv env;
  HeartbeatOptions opts;
  opts.period = 1 * kSecond;
  opts.timeout = 900 * kMillisecond;
  opts.miss_threshold = 3;
  HeartbeatDetector det(&env.sim, &env.monitor, opts);
  det.Watch(200);
  env.responder.set_response_delay(300 * kMillisecond);
  env.sim.RunUntil(20 * kSecond);
  EXPECT_FALSE(det.IsSuspect(200));
  EXPECT_EQ(det.false_positives(), 0u);
}

// --- TCP keep-alive detector -------------------------------------------

struct KaEnv : TestEnv {
  Dispatcher monitor{net.get(), 100};
  Dispatcher target{net.get(), 200};
  TcpKeepAliveResponder responder{&target};
};

TEST(TcpKeepAliveTest, DefaultDetectionTakesOverTwoHours) {
  KaEnv env;
  TcpKeepAliveDetector det(&env.sim, &env.monitor);  // Linux defaults.
  det.Watch(200);
  sim::TimePoint detected_at = -1;
  det.OnSuspicionChange([&](NodeId n, bool s) {
    if (n == 200 && s) detected_at = env.sim.Now();
  });
  env.net->CrashNode(200);
  env.sim.RunUntil(4 * kHour);
  ASSERT_TRUE(det.IsSuspect(200));
  // idle (2h) + 9 probes * 75s ≈ 2h11m15s.
  EXPECT_GE(detected_at, 2 * kHour);
  EXPECT_LE(detected_at, 2 * kHour + 12 * sim::kMinute);
}

TEST(TcpKeepAliveTest, ActivityPostponesDetection) {
  KaEnv env;
  TcpKeepAliveOptions opts;
  opts.idle = 10 * kSecond;
  opts.probe_interval = 1 * kSecond;
  opts.probe_count = 3;
  TcpKeepAliveDetector det(&env.sim, &env.monitor, opts);
  det.Watch(200);
  // App-level acks arrive every 5s: idle timer never expires.
  sim::PeriodicTask traffic(&env.sim, 5 * kSecond, [&] { det.NoteActivity(200); });
  traffic.Start();
  env.sim.RunUntil(60 * kSecond);
  EXPECT_FALSE(det.IsSuspect(200));
  traffic.Stop();
  env.net->CrashNode(200);
  env.sim.RunUntil(120 * kSecond);
  EXPECT_TRUE(det.IsSuspect(200));
}

TEST(TcpKeepAliveTest, AliveTargetNeverSuspected) {
  KaEnv env;
  TcpKeepAliveOptions opts;
  opts.idle = 5 * kSecond;
  opts.probe_interval = 1 * kSecond;
  opts.probe_count = 2;
  TcpKeepAliveDetector det(&env.sim, &env.monitor, opts);
  det.Watch(200);
  env.sim.RunUntil(60 * kSecond);
  // Idle expires, probes go out, but the "kernel" answers them.
  EXPECT_FALSE(det.IsSuspect(200));
}

TEST(TcpKeepAliveTest, TunedSettingsDetectFaster) {
  KaEnv env;
  TcpKeepAliveOptions opts;
  opts.idle = 10 * kSecond;
  opts.probe_interval = 2 * kSecond;
  opts.probe_count = 3;
  TcpKeepAliveDetector det(&env.sim, &env.monitor, opts);
  det.Watch(200);
  sim::TimePoint detected_at = -1;
  det.OnSuspicionChange([&](NodeId n, bool s) {
    if (n == 200 && s) detected_at = env.sim.Now();
  });
  env.net->CrashNode(200);
  env.sim.RunUntil(60 * kSecond);
  ASSERT_TRUE(det.IsSuspect(200));
  EXPECT_LE(detected_at, 17 * kSecond + kSecond);
}

}  // namespace
}  // namespace replidb::net
