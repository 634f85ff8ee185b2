#include <gtest/gtest.h>

#include <string>

#include "net/network.h"
#include "rpc/rpc.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "trace/trace.h"
#include "xdr/xdr.h"

namespace gvfs::rpc {
namespace {

constexpr std::uint32_t kProg = 100003;
constexpr std::uint32_t kProcEcho = 1;
constexpr std::uint32_t kProcSlow = 2;
constexpr std::uint32_t kProcCount = 3;

sim::Task<Body> EchoHandler(CallContext, Body args) { co_return std::move(args); }

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : network_(sched_), domain_(sched_, network_) {
    client_host_ = network_.AddHost("client");
    server_host_ = network_.AddHost("server");
    network_.Connect(client_host_, server_host_,
                     net::LinkConfig{Milliseconds(20), 4'000'000});
    client_ = &domain_.CreateNode(client_host_, 1000, "client");
    server_ = &domain_.CreateNode(server_host_, 2049, "server");
    server_->RegisterHandler(kProg, kProcEcho, EchoHandler);
  }

  net::Address ServerAddr() const { return server_->address(); }

  static CallOptions Opts(std::string label) {
    CallOptions o;
    o.label = std::move(label);
    return o;
  }

  sim::Scheduler sched_;
  net::Network network_;
  Domain domain_;
  HostId client_host_ = 0, server_host_ = 0;
  RpcNode* client_ = nullptr;
  RpcNode* server_ = nullptr;
};

struct CallResult {
  bool done = false;
  bool ok = false;
  RpcError error = RpcError::kTimedOut;
  Bytes body;
  SimTime finished_at = -1;
};

sim::Task<void> DoCall(RpcNode* node, net::Address dst, std::uint32_t proc,
                       Bytes args, CallOptions opts, sim::Scheduler* sched,
                       CallResult* out) {
  auto r = co_await node->Call(dst, kProg, proc, std::move(args), std::move(opts));
  out->done = true;
  out->ok = r.has_value();
  if (r.has_value()) {
    out->body = r->Flatten();
  } else {
    out->error = r.error();
  }
  out->finished_at = sched->Now();
}

TEST_F(RpcTest, EchoRoundTrip) {
  CallResult result;
  sim::Spawn(DoCall(client_, ServerAddr(), kProcEcho, Bytes{9, 8, 7}, Opts("ECHO"),
                    &sched_, &result));
  sched_.Run();
  ASSERT_TRUE(result.done);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.body, (Bytes{9, 8, 7}));
  // One RTT (40 ms) plus transmission time of the two small datagrams.
  EXPECT_GE(result.finished_at, Milliseconds(40));
  EXPECT_LE(result.finished_at, Milliseconds(42));
}

TEST_F(RpcTest, HandlerCanSleepInVirtualTime) {
  server_->RegisterHandler(kProg, kProcSlow,
                           [this](CallContext, Body) -> sim::Task<Body> {
                             co_await sim::Sleep(sched_, Seconds(3));
                             co_return Bytes{1};
                           });
  CallResult result;
  CallOptions opts = Opts("SLOW");
  opts.timeout = Seconds(10);
  sim::Spawn(
      DoCall(client_, ServerAddr(), kProcSlow, {}, std::move(opts), &sched_, &result));
  sched_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_GE(result.finished_at, Seconds(3) + Milliseconds(40));
}

TEST_F(RpcTest, UnknownProcedureReturnsProcUnavail) {
  CallResult result;
  sim::Spawn(DoCall(client_, ServerAddr(), 999, {}, Opts("BOGUS"), &sched_, &result));
  sched_.Run();
  ASSERT_TRUE(result.done);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.error, RpcError::kProcUnavail);
}

TEST_F(RpcTest, TimesOutWhenLinkDown) {
  network_.SetLinkUp(client_host_, server_host_, false);
  CallResult result;
  CallOptions opts = Opts("ECHO");
  opts.timeout = Seconds(1);
  opts.max_retries = 2;
  sim::Spawn(
      DoCall(client_, ServerAddr(), kProcEcho, {}, std::move(opts), &sched_, &result));
  sched_.Run();
  ASSERT_TRUE(result.done);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, RpcError::kTimedOut);
  // 3 attempts x 1 s timeout.
  EXPECT_EQ(result.finished_at, Seconds(3));
}

TEST_F(RpcTest, RetransmitSucceedsAfterPartitionHeals) {
  network_.SetLinkUp(client_host_, server_host_, false);
  sched_.At(Milliseconds(1500), [&] { network_.SetLinkUp(client_host_, server_host_, true); });

  CallResult result;
  CallOptions opts = Opts("ECHO");
  opts.timeout = Seconds(1);
  opts.max_retries = 5;
  sim::Spawn(DoCall(client_, ServerAddr(), kProcEcho, Bytes{5}, std::move(opts),
                    &sched_, &result));
  sched_.Run();
  ASSERT_TRUE(result.done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.body, (Bytes{5}));
  // First attempt at t=0 dropped; second at t=1 s dropped; third at t=2 s
  // goes through.
  EXPECT_GE(result.finished_at, Seconds(2));
}

TEST_F(RpcTest, DuplicateRequestCachePreventsReExecution) {
  int executions = 0;
  server_->RegisterHandler(kProg, kProcCount,
                           [this, &executions](CallContext, Body) -> sim::Task<Body> {
                             ++executions;
                             // Slower than the client's retransmit timer, so a
                             // retransmission always arrives mid-execution.
                             co_await sim::Sleep(sched_, Milliseconds(500));
                             co_return Bytes{static_cast<std::uint8_t>(executions)};
                           });
  CallResult result;
  CallOptions opts = Opts("COUNT");
  opts.timeout = Milliseconds(200);
  opts.max_retries = 10;
  sim::Spawn(
      DoCall(client_, ServerAddr(), kProcCount, {}, std::move(opts), &sched_, &result));
  sched_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(executions, 1);  // duplicates suppressed while in progress
  EXPECT_EQ(result.body, (Bytes{1}));
}

TEST_F(RpcTest, DuplicateAfterCompletionResendsCachedReply) {
  int executions = 0;
  server_->RegisterHandler(kProg, kProcCount,
                           [&executions](CallContext, Body) -> sim::Task<Body> {
                             ++executions;
                             co_return Bytes{static_cast<std::uint8_t>(executions)};
                           });
  // Simulate a lost reply: requests get through, the first reply is dropped.
  network_.SetOneWayUp(server_host_, client_host_, false);
  sched_.At(Milliseconds(100),
            [&] { network_.SetOneWayUp(server_host_, client_host_, true); });

  CallResult result;
  CallOptions opts = Opts("COUNT");
  opts.timeout = Milliseconds(300);
  opts.max_retries = 5;
  sim::Spawn(
      DoCall(client_, ServerAddr(), kProcCount, {}, std::move(opts), &sched_, &result));
  sched_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(executions, 1);  // second request served from the DRC
  EXPECT_EQ(result.body, (Bytes{1}));
}

TEST_F(RpcTest, DrcRetainsOnlyEachRepliesOwnBytes) {
  // Large replies first, so the encode arena holds big recycled buffers;
  // then enough small replies to fill the DRC. Every small reply is
  // encoded into one of those recycled buffers, but the DRC must keep only
  // its few inline bytes.
  constexpr std::uint32_t kProcBig = 4;
  constexpr std::uint32_t kProcSmall = 5;
  server_->RegisterHandler(kProg, kProcBig, [](CallContext, Body) -> sim::Task<Body> {
    xdr::Encoder enc;
    enc.PutOpaque(Bytes(64 * 1024, 0xbb));
    co_return enc.Finish();
  });
  server_->RegisterHandler(kProg, kProcSmall, [](CallContext, Body) -> sim::Task<Body> {
    xdr::Encoder enc;
    enc.PutU32(7);
    co_return enc.Finish();
  });
  for (int i = 0; i < 8; ++i) {
    CallResult big;
    sim::Spawn(DoCall(client_, ServerAddr(), kProcBig, {}, Opts("BIG"), &sched_, &big));
    sched_.Run();
    ASSERT_TRUE(big.ok);
  }
  constexpr std::size_t kSmallCalls = 2100;  // past the DRC's 2048 entries
  for (std::size_t i = 0; i < kSmallCalls; ++i) {
    CallResult small;
    sim::Spawn(DoCall(client_, ServerAddr(), kProcSmall, {}, Opts("SMALL"), &sched_, &small));
    sched_.Run();
    ASSERT_TRUE(small.ok);
  }
  EXPECT_EQ(server_->DrcRetainedBytes(), 2048u * 4u);
}

TEST_F(RpcTest, DrcResendsSplicedReplyByteForByte) {
  // A READ-shaped reply whose data rides as a spliced block. The first reply
  // is lost; the retransmitted request is answered from the DRC, which must
  // resend the same bytes (sharing the block, not a copy of it).
  const BlockRef data = BlockRef::Copy(Bytes(4095, 0x42));
  int executions = 0;
  server_->RegisterHandler(kProg, kProcCount,
                           [&executions, &data](CallContext, Body) -> sim::Task<Body> {
                             ++executions;
                             xdr::Encoder enc;
                             enc.PutU32(0);
                             enc.PutBlock(data);
                             co_return enc.Finish();
                           });
  network_.SetOneWayUp(server_host_, client_host_, false);
  sched_.At(Milliseconds(100),
            [&] { network_.SetOneWayUp(server_host_, client_host_, true); });

  Bytes expected;
  {
    xdr::Encoder flat;
    flat.PutU32(0);
    flat.PutOpaque(data.view());
    expected = flat.Take();
  }
  CallResult result;
  CallOptions opts = Opts("COUNT");
  opts.timeout = Milliseconds(300);
  sim::Spawn(
      DoCall(client_, ServerAddr(), kProcCount, {}, std::move(opts), &sched_, &result));
  sched_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(executions, 1);  // the retransmission was a DRC hit
  EXPECT_EQ(result.body, expected);
  // Both the lost reply and the resent one were charged the flat size.
  const net::LinkStats down = network_.StatsFor(server_host_, client_host_);
  EXPECT_EQ(down.dropped, 1u);
  EXPECT_EQ(down.bytes, 12u + 4u + expected.size() + 100u);
}

TEST_F(RpcTest, DownServerDropsRequests) {
  server_->SetDown(true);
  CallResult result;
  CallOptions opts = Opts("ECHO");
  opts.timeout = Milliseconds(500);
  opts.max_retries = 1;
  sim::Spawn(
      DoCall(client_, ServerAddr(), kProcEcho, {}, std::move(opts), &sched_, &result));
  sched_.Run();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, RpcError::kTimedOut);
}

TEST_F(RpcTest, ServerRecoversAfterRestart) {
  server_->SetDown(true);
  sched_.At(Milliseconds(700), [&] { server_->SetDown(false); });
  CallResult result;
  CallOptions opts = Opts("ECHO");
  opts.timeout = Milliseconds(500);
  opts.max_retries = 5;
  sim::Spawn(DoCall(client_, ServerAddr(), kProcEcho, Bytes{1}, std::move(opts),
                    &sched_, &result));
  sched_.Run();
  EXPECT_TRUE(result.ok);
}

TEST_F(RpcTest, DownClientCannotCall) {
  client_->SetDown(true);
  CallResult result;
  sim::Spawn(DoCall(client_, ServerAddr(), kProcEcho, {}, Opts("ECHO"), &sched_,
                    &result));
  sched_.Run();
  ASSERT_TRUE(result.done);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, RpcError::kHostDown);
}

TEST_F(RpcTest, StatsCountOutgoingCallsByLabel) {
  StatsMap stats;
  client_->SetStatsSink(&stats);
  CallResult r1, r2, r3;
  sim::Spawn(DoCall(client_, ServerAddr(), kProcEcho, {}, Opts("GETATTR"), &sched_, &r1));
  sim::Spawn(DoCall(client_, ServerAddr(), kProcEcho, {}, Opts("GETATTR"), &sched_, &r2));
  sim::Spawn(DoCall(client_, ServerAddr(), kProcEcho, {}, Opts("LOOKUP"), &sched_, &r3));
  sched_.Run();
  EXPECT_EQ(stats.Calls("GETATTR"), 2u);
  EXPECT_EQ(stats.Calls("LOOKUP"), 1u);
  EXPECT_EQ(stats.TotalCalls(), 3u);
  EXPECT_GT(stats.TotalBytes(), 0u);
}

TEST_F(RpcTest, LoopbackCallsAreNotCounted) {
  StatsMap stats;
  RpcNode& proxy = domain_.CreateNode(client_host_, 3000, "proxy");
  proxy.RegisterHandler(kProg, kProcEcho, EchoHandler);
  client_->SetStatsSink(&stats);
  CallResult result;
  sim::Spawn(DoCall(client_, proxy.address(), kProcEcho, Bytes{1}, Opts("GETATTR"),
                    &sched_, &result));
  sched_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(stats.TotalCalls(), 0u);  // same-host traffic excluded
}

TEST_F(RpcTest, ServerToClientCallbackWorks) {
  // The GVFS pattern: the "server" node calls back into the "client" node.
  client_->RegisterHandler(kProg, kProcEcho, EchoHandler);
  CallResult result;
  sim::Spawn(DoCall(server_, client_->address(), kProcEcho, Bytes{3}, Opts("CALLBACK"),
                    &sched_, &result));
  sched_.Run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.body, (Bytes{3}));
}

TEST_F(RpcTest, ConcurrentCallsMatchRepliesByXid) {
  server_->RegisterHandler(kProg, kProcSlow,
                           [this](CallContext, Body args) -> sim::Task<Body> {
                             // Delay inversely proportional to payload value so
                             // replies return out of order.
                             Bytes data = args.Flatten();
                             co_await sim::Sleep(sched_, Seconds(10 - data.at(0)));
                             co_return data;
                           });
  CallResult r1, r2;
  CallOptions opts = Opts("SLOW");
  opts.timeout = Seconds(30);
  sim::Spawn(DoCall(client_, ServerAddr(), kProcSlow, Bytes{1}, opts, &sched_, &r1));
  sim::Spawn(DoCall(client_, ServerAddr(), kProcSlow, Bytes{9}, opts, &sched_, &r2));
  sched_.Run();
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r1.body, (Bytes{1}));
  EXPECT_EQ(r2.body, (Bytes{9}));
  EXPECT_LT(r2.finished_at, r1.finished_at);  // out-of-order completion
}

TEST_F(RpcTest, RetransmitsMatchTraceAndLinkDropAccounting) {
  trace::TraceBuffer buffer(1 << 10);
  domain_.SetTracer(trace::Tracer(&buffer, sched_.NowPtr()));

  // Requests dropped until t=1.5 s: the attempt at t=0 and the retransmit at
  // t=1 s are lost; the retransmit at t=2 s gets through.
  network_.SetLinkUp(client_host_, server_host_, false);
  sched_.At(Milliseconds(1500),
            [&] { network_.SetLinkUp(client_host_, server_host_, true); });

  CallResult result;
  CallOptions opts = Opts("ECHO");
  opts.timeout = Seconds(1);
  opts.max_retries = 5;
  sim::Spawn(DoCall(client_, ServerAddr(), kProcEcho, Bytes{5}, std::move(opts),
                    &sched_, &result));
  sched_.Run();
  ASSERT_TRUE(result.ok);

  std::uint64_t sends = 0, retransmits = 0, replies = 0, timeouts = 0;
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    switch (buffer.at(i).type) {
      case trace::EventType::kRpcSend: ++sends; break;
      case trace::EventType::kRpcRetransmit: ++retransmits; break;
      case trace::EventType::kRpcReply: ++replies; break;
      case trace::EventType::kRpcTimeout: ++timeouts; break;
      default: break;
    }
  }
  EXPECT_EQ(sends, 1u);
  EXPECT_EQ(retransmits, 2u);
  EXPECT_EQ(replies, 1u);
  EXPECT_EQ(timeouts, 0u);

  // Accounting identity: every attempt the tracer saw either died on the
  // partitioned link or was carried by it.
  const net::LinkStats to_server = network_.StatsFor(client_host_, server_host_);
  EXPECT_EQ(to_server.dropped, 2u);
  EXPECT_EQ(to_server.dropped + to_server.packets, sends + retransmits);
  EXPECT_EQ(network_.StatsFor(server_host_, client_host_).dropped, 0u);
}

TEST(StatsMapHistogram, PercentilesFromLogBuckets) {
  StatsMap stats;
  // 90 fast calls (1 ms) and 10 slow outliers (1 s).
  for (int i = 0; i < 90; ++i) {
    stats.BeginCall();
    stats.EndCall("GETATTR", Milliseconds(1));
  }
  for (int i = 0; i < 10; ++i) {
    stats.BeginCall();
    stats.EndCall("GETATTR", Seconds(1));
  }
  // p50 lands in the [512 us, 1024 us) bucket and reports its upper bound;
  // tail percentiles land in the outlier bucket, clamped to the true max.
  EXPECT_EQ(stats.LatencyP50("GETATTR"), Microseconds(1024));
  EXPECT_EQ(stats.LatencyP95("GETATTR"), Seconds(1));
  EXPECT_EQ(stats.LatencyP99("GETATTR"), Seconds(1));
  EXPECT_EQ(stats.LatencyMax("GETATTR"), Seconds(1));
  EXPECT_EQ(stats.LatencyAvg("GETATTR"),
            (90 * Milliseconds(1) + 10 * Seconds(1)) / 100);
  EXPECT_EQ(stats.LatencyPercentile("UNKNOWN", 50), 0);
}

TEST(StatsMapHistogram, ExactBucketEdges) {
  StatsMap stats;
  // Sub-microsecond latencies truncate to 0 and land in the zero bucket; the
  // clamp against the nanosecond max keeps the report exact.
  stats.BeginCall();
  stats.EndCall("NULL", Duration{500});
  EXPECT_EQ(stats.LatencyP50("NULL"), Duration{500});

  // A latency exactly on a power-of-two edge opens the next bucket: 1024 us
  // is the first value of [1024 us, 2048 us), so with 99 samples just below
  // the edge and one exactly on it, p50 reports the lower bucket's upper
  // bound — exactly the edge — and p99 clamps the higher bucket to the max.
  for (int i = 0; i < 99; ++i) {
    stats.BeginCall();
    stats.EndCall("EDGE", Microseconds(1023));
  }
  stats.BeginCall();
  stats.EndCall("EDGE", Microseconds(1024));
  EXPECT_EQ(stats.LatencyP50("EDGE"), Microseconds(1024));
  EXPECT_EQ(stats.LatencyP99("EDGE"), Microseconds(1024));
  EXPECT_EQ(stats.LatencyMax("EDGE"), Microseconds(1024));
}

TEST(StatsMapHistogram, SingleValuePercentilesClampToMax) {
  StatsMap stats;
  stats.BeginCall();
  stats.EndCall("READ", Milliseconds(10));
  // 10 ms sits in the [8192 us, 16384 us) bucket; clamping to max keeps the
  // report exact for a single sample.
  EXPECT_EQ(stats.LatencyP50("READ"), Milliseconds(10));
  EXPECT_EQ(stats.LatencyP99("READ"), Milliseconds(10));
}

}  // namespace
}  // namespace gvfs::rpc
