// Tests for the parc message-passing runtime: point-to-point semantics,
// collectives built on p2p, all-to-all, the ABM active-message layer and the
// LogP-style virtual clock.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "parc/parc.hpp"

namespace hotlib::parc {
namespace {

TEST(Parc, PingPong) {
  Runtime::run(2, [](Rank& r) {
    if (r.rank() == 0) {
      r.send_value(1, 7, 12345);
      EXPECT_EQ(r.recv_value<int>(1, 8), 54321);
    } else {
      EXPECT_EQ(r.recv_value<int>(0, 7), 12345);
      r.send_value(0, 8, 54321);
    }
  });
}

TEST(Parc, TagMatchingOutOfOrder) {
  Runtime::run(2, [](Rank& r) {
    if (r.rank() == 0) {
      r.send_value(1, 1, 10);
      r.send_value(1, 2, 20);
    } else {
      // Receive in reverse tag order.
      EXPECT_EQ(r.recv_value<int>(0, 2), 20);
      EXPECT_EQ(r.recv_value<int>(0, 1), 10);
    }
  });
}

TEST(Parc, WildcardReceive) {
  Runtime::run(3, [](Rank& r) {
    if (r.rank() != 0) {
      r.send_value(0, 5, r.rank());
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        Message m = r.recv(kAnySource, 5);
        sum += m.as<int>();
      }
      EXPECT_EQ(sum, 3);
    }
  });
}

TEST(Parc, FifoPerSourceAndTag) {
  Runtime::run(2, [](Rank& r) {
    if (r.rank() == 0) {
      for (int i = 0; i < 100; ++i) r.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 100; ++i) ASSERT_EQ(r.recv_value<int>(0, 3), i);
    }
  });
}

class ParcCollectives : public ::testing::TestWithParam<int> {};

TEST_P(ParcCollectives, Barrier) {
  const int p = GetParam();
  std::atomic<int> arrived{0};
  Runtime::run(p, [&](Rank& r) {
    arrived.fetch_add(1);
    r.barrier();
    EXPECT_EQ(arrived.load(), p);  // nobody passes before everyone arrives
    r.barrier();
  });
}

TEST_P(ParcCollectives, Broadcast) {
  const int p = GetParam();
  Runtime::run(p, [&](Rank& r) {
    for (int root = 0; root < p; ++root) {
      const double v = r.rank() == root ? 3.25 + root : -1.0;
      EXPECT_DOUBLE_EQ(r.broadcast(v, root), 3.25 + root);
    }
  });
}

TEST_P(ParcCollectives, AllreduceSumMinMax) {
  const int p = GetParam();
  Runtime::run(p, [&](Rank& r) {
    const int me = r.rank() + 1;
    EXPECT_EQ(r.allreduce(me, Sum{}), p * (p + 1) / 2);
    EXPECT_EQ(r.allreduce(me, Min{}), 1);
    EXPECT_EQ(r.allreduce(me, Max{}), p);
  });
}

TEST_P(ParcCollectives, ReduceToEveryRoot) {
  const int p = GetParam();
  Runtime::run(p, [&](Rank& r) {
    for (int root = 0; root < p; ++root) {
      const int v = r.reduce(r.rank(), Sum{}, root);
      if (r.rank() == root) {
        EXPECT_EQ(v, p * (p - 1) / 2);
      }
      r.barrier();
    }
  });
}

TEST_P(ParcCollectives, Allgather) {
  const int p = GetParam();
  Runtime::run(p, [&](Rank& r) {
    const auto all = r.allgather(10 * r.rank());
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int i = 0; i < p; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], 10 * i);
  });
}

TEST_P(ParcCollectives, AllgatherVectorVariableSizes) {
  const int p = GetParam();
  Runtime::run(p, [&](Rank& r) {
    std::vector<int> mine(static_cast<std::size_t>(r.rank()), r.rank());
    const auto all = r.allgather_vector<int>(mine);
    for (int i = 0; i < p; ++i) {
      ASSERT_EQ(all[static_cast<std::size_t>(i)].size(), static_cast<std::size_t>(i));
      for (int v : all[static_cast<std::size_t>(i)]) EXPECT_EQ(v, i);
    }
  });
}

TEST_P(ParcCollectives, ExscanSum) {
  const int p = GetParam();
  Runtime::run(p, [&](Rank& r) {
    const int v = r.exscan(1, Sum{}, 0);
    EXPECT_EQ(v, r.rank());
  });
}

TEST_P(ParcCollectives, AlltoallvExchangesPersonalizedData) {
  const int p = GetParam();
  Runtime::run(p, [&](Rank& r) {
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d)
      out[static_cast<std::size_t>(d)] =
          std::vector<int>(static_cast<std::size_t>(d + 1), 100 * r.rank() + d);
    const auto in = r.alltoallv_typed<int>(out);
    for (int s = 0; s < p; ++s) {
      const auto& block = in[static_cast<std::size_t>(s)];
      ASSERT_EQ(block.size(), static_cast<std::size_t>(r.rank() + 1));
      for (int v : block) EXPECT_EQ(v, 100 * s + r.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParcCollectives, ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(ParcAbm, RoundTripRequestResponse) {
  // Rank 0 asks every other rank to double a value; replies arrive via a
  // second handler. Exactly the request/response shape of the tree walk.
  Runtime::run(4, [](Rank& r) {
    std::vector<int> replies;
    const int reply_h = r.am_register(
        [&replies](Rank&, int, std::span<const std::uint8_t> body) {
          Message m;
          m.payload.assign(body.begin(), body.end());
          replies.push_back(m.as<int>());
        });
    const int request_h = r.am_register(
        [reply_h](Rank& me, int src, std::span<const std::uint8_t> body) {
          Message m;
          m.payload.assign(body.begin(), body.end());
          me.am_post_value(src, reply_h, 2 * m.as<int>());
        });

    if (r.rank() == 0) {
      for (int d = 1; d < r.size(); ++d) r.am_post_value(d, request_h, d);
    }
    r.am_quiesce();
    if (r.rank() == 0) {
      ASSERT_EQ(replies.size(), 3u);
      int sum = 0;
      for (int v : replies) sum += v;
      EXPECT_EQ(sum, 2 * (1 + 2 + 3));
    } else {
      EXPECT_TRUE(replies.empty());
    }
  });
}

TEST(ParcAbm, BatchingCoalescesMessages) {
  // 1000 small posts to one destination with a large batch limit must produce
  // far fewer fabric messages than posts.
  Runtime::run(2, [](Rank& r) {
    const int h = r.am_register([](Rank&, int, std::span<const std::uint8_t>) {});
    if (r.rank() == 0) {
      r.am_set_batch_limit(1 << 20);
      for (int i = 0; i < 1000; ++i) r.am_post_value(1, h, i);
    }
    r.am_quiesce();
    // Poster counts posts, receiver dispatches; both total 1000 records...
    EXPECT_EQ(r.am_posted() + r.am_dispatched(), 1000u);
    // ...but the fabric saw only a handful of batched messages (plus the
    // quiescence allreduce traffic), not one per record.
    EXPECT_LT(r.fabric().messages_delivered(), 100u);
  });
}

TEST(ParcAbm, AutoFlushOnBatchLimit) {
  Runtime::run(2, [](Rank& r) {
    const int h = r.am_register([](Rank&, int, std::span<const std::uint8_t>) {});
    if (r.rank() == 0) {
      r.am_set_batch_limit(64);  // tiny: forces eager sends
      for (int i = 0; i < 100; ++i) r.am_post_value(1, h, i);
      EXPECT_GT(r.fabric().messages_delivered(), 5u);
    }
    r.am_quiesce();
  });
}

TEST(ParcAbm, CascadedHandlersTerminate) {
  // Handlers that re-post (a chain of length 20 across ranks) must still
  // quiesce.
  Runtime::run(3, [](Rank& r) {
    std::atomic<int>* counter = nullptr;
    static std::atomic<int> hits{0};
    if (r.rank() == 0) hits = 0;
    (void)counter;
    const int h = r.am_register([](Rank& me, int, std::span<const std::uint8_t> body) {
      Message m;
      m.payload.assign(body.begin(), body.end());
      const int remaining = m.as<int>();
      hits.fetch_add(1);
      if (remaining > 0)
        me.am_post_value((me.rank() + 1) % me.size(), 0, remaining - 1);
    });
    if (r.rank() == 0) r.am_post_value(1, h, 20);
    r.am_quiesce();
    r.barrier();
    if (r.rank() == 0) {
      EXPECT_EQ(hits.load(), 21);
    }
  });
}

TEST(ParcNetworkParams, TransferTimeIsLatencyPlusBytesOverBandwidth) {
  NetworkParams net{.latency_s = 1e-3, .bandwidth_Bps = 1e6};
  EXPECT_DOUBLE_EQ(net.transfer_time(0), 1e-3);
  EXPECT_DOUBLE_EQ(net.transfer_time(500000), 1e-3 + 0.5);
  // Zero bandwidth means infinite: transfer cost degenerates to latency.
  NetworkParams infinite{.latency_s = 2e-3, .bandwidth_Bps = 0.0};
  EXPECT_DOUBLE_EQ(infinite.transfer_time(1 << 30), 2e-3);
}

TEST(ParcNetworkParams, EffectiveLatencyAddsBothOverheads) {
  // The LogP software-to-software latency of a small message: wire latency
  // plus the per-message CPU occupancy charged at *both* endpoints.
  NetworkParams net{.latency_s = 100e-6, .overhead_s = 54e-6};
  EXPECT_DOUBLE_EQ(net.effective_latency(), 100e-6 + 2 * 54e-6);
  EXPECT_DOUBLE_EQ(NetworkParams{}.effective_latency(), 0.0);
}

TEST(ParcNetworkParams, ComputeTimeScalesWithRate) {
  NetworkParams net{.flops_per_s = 200e6};
  EXPECT_DOUBLE_EQ(net.compute_time(100e6), 0.5);
  // Zero rate means compute is free (pure correctness mode).
  EXPECT_DOUBLE_EQ(NetworkParams{}.compute_time(1e12), 0.0);
}

TEST(ParcNetworkParams, OverheadChargedAtSenderAndReceiver) {
  // One small message: the sender's clock advances by o at send; the
  // receiver ends at depart + latency + o = 2o + L total — the virtual
  // clock realises effective_latency() end to end.
  NetworkParams net{.latency_s = 1e-3, .bandwidth_Bps = 0, .overhead_s = 250e-6};
  std::vector<double> clocks(2);
  Runtime::run(
      2,
      [&](Rank& r) {
        if (r.rank() == 0) r.send_value(1, 3, 1);
        else (void)r.recv(0, 3);
        clocks[static_cast<std::size_t>(r.rank())] = r.vclock();
      },
      net);
  EXPECT_DOUBLE_EQ(clocks[0], 250e-6);
  EXPECT_DOUBLE_EQ(clocks[1], net.effective_latency());
}

TEST(ParcVclock, ComputeChargesAdvanceClock) {
  NetworkParams net{.latency_s = 1e-4, .bandwidth_Bps = 1e7, .flops_per_s = 1e8};
  const RunStats stats = Runtime::run(
      2,
      [](Rank& r) {
        r.charge_flops(1e8);  // 1 second of modelled compute
        r.barrier();
      },
      net);
  EXPECT_GE(stats.max_vclock, 1.0);
  EXPECT_LT(stats.max_vclock, 1.1);
}

TEST(ParcVclock, MessageCostLatencyPlusBandwidth) {
  NetworkParams net{.latency_s = 1e-3, .bandwidth_Bps = 1e6, .flops_per_s = 0};
  const RunStats stats = Runtime::run(
      2,
      [](Rank& r) {
        if (r.rank() == 0) {
          std::vector<std::uint8_t> big(1000000);  // 1 s at 1 MB/s
          r.send(1, 9, big);
        } else {
          (void)r.recv(0, 9);
        }
      },
      net);
  EXPECT_NEAR(stats.max_vclock, 1.001, 0.01);
}

TEST(ParcVclock, CausalityThroughForwardChain) {
  // 0 -> 1 -> 2 chained messages accumulate two latencies.
  NetworkParams net{.latency_s = 0.5, .bandwidth_Bps = 0, .flops_per_s = 0};
  const RunStats stats = Runtime::run(
      3,
      [](Rank& r) {
        if (r.rank() == 0) r.send_value(1, 1, 1);
        if (r.rank() == 1) {
          (void)r.recv(0, 1);
          r.send_value(2, 2, 1);
        }
        if (r.rank() == 2) (void)r.recv(1, 2);
      },
      net);
  EXPECT_NEAR(stats.max_vclock, 1.0, 1e-9);
}

// ---- fault injection + reliable ABM mode ----

TEST(ParcFaults, DrawsAreDeterministicAndSeedSensitive) {
  FaultPlan plan{.seed = 9, .drop_prob = 0.3, .duplicate_prob = 0.2,
                 .delay_prob = 0.2, .reorder_prob = 0.2, .truncate_prob = 0.1};
  int differs = 0;
  for (std::uint64_t s = 0; s < 200; ++s) {
    const FaultDraw a = plan.draw(0, 1, s, 64);
    const FaultDraw b = plan.draw(0, 1, s, 64);
    EXPECT_EQ(a.drop, b.drop);
    EXPECT_EQ(a.duplicate, b.duplicate);
    EXPECT_EQ(a.reorder, b.reorder);
    EXPECT_EQ(a.delay_deliveries, b.delay_deliveries);
    EXPECT_EQ(a.truncate_to, b.truncate_to);
    FaultPlan other = plan;
    other.seed = 10;
    const FaultDraw c = other.draw(0, 1, s, 64);
    if (a.drop != c.drop || a.duplicate != c.duplicate) ++differs;
  }
  EXPECT_GT(differs, 10);  // a different seed is a different adversary
}

TEST(ParcFaults, ScopeExemptsCollectivesAndUserTags) {
  FaultPlan plan{.drop_prob = 1.0};
  EXPECT_TRUE(plan.applies(kAmTag));
  EXPECT_TRUE(plan.applies(kAmAckTag));
  EXPECT_FALSE(plan.applies(3));               // user tag, default scope
  EXPECT_FALSE(plan.applies(1 << 30));         // collective: always exempt
  plan.include_user_tags = true;
  EXPECT_TRUE(plan.applies(3));
  EXPECT_FALSE(plan.applies(1 << 30));
  EXPECT_FALSE(FaultPlan{}.applies(kAmTag));   // inactive plan faults nothing
}

TEST(ParcFaults, CollectivesSurviveAnActivePlan) {
  // Collective traffic is out of scope by construction; a hostile plan must
  // not perturb reductions or barriers.
  FaultPlan plan{.seed = 3, .drop_prob = 0.5, .duplicate_prob = 0.3};
  Runtime::run(
      4,
      [](Rank& r) {
        for (int i = 0; i < 20; ++i) {
          EXPECT_EQ(r.allreduce(r.rank(), Sum{}), 6);
          r.barrier();
        }
      },
      {}, plan);
}

TEST(ParcFaults, ReliableModeAutoEnablesWithPlan) {
  FaultPlan plan{.seed = 1, .drop_prob = 0.1};
  Runtime::run(2, [](Rank& r) { EXPECT_TRUE(r.am_reliable()); }, {}, plan);
  Runtime::run(2, [](Rank& r) { EXPECT_FALSE(r.am_reliable()); });
}

TEST(ParcFaults, ReliableDeliveryIsExactlyOnceAndInOrder) {
  // 500 records through a fabric that drops, duplicates, delays, reorders
  // and truncates: the receiver must see 0..499 exactly once, in order.
  FaultPlan plan{.seed = 1234, .drop_prob = 0.15, .duplicate_prob = 0.10,
                 .delay_prob = 0.10, .reorder_prob = 0.15, .truncate_prob = 0.10};
  const RunStats stats = Runtime::run(
      2,
      [](Rank& r) {
        std::vector<int> seen;
        const int h = r.am_register([&seen](Rank&, int, std::span<const std::uint8_t> b) {
          Message m;
          m.payload.assign(b.begin(), b.end());
          seen.push_back(m.as<int>());
        });
        if (r.rank() == 0) {
          r.am_set_batch_limit(256);  // many small batches => many fault draws
          for (int i = 0; i < 500; ++i) r.am_post_value(1, h, i);
        }
        r.am_quiesce();
        if (r.rank() == 1) {
          ASSERT_EQ(seen.size(), 500u);
          for (int i = 0; i < 500; ++i) ASSERT_EQ(seen[static_cast<std::size_t>(i)], i);
          const auto health = r.am_health();
          EXPECT_FALSE(health.degraded());
        }
        EXPECT_EQ(r.am_abandoned(), 0u);
      },
      {}, plan);
  EXPECT_GT(stats.faults.total(), 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(stats.abandoned_records, 0u);
}

TEST(ParcFaults, ReliableModeWithoutFaultsIsTransparent) {
  // Forced reliability on a clean fabric: same semantics, acks flow, no
  // retransmits needed (quiescence outpaces every timeout).
  Runtime::run(3, [](Rank& r) {
    r.am_set_reliable(true);
    std::vector<int> seen;
    const int h = r.am_register([&seen](Rank&, int, std::span<const std::uint8_t> b) {
      Message m;
      m.payload.assign(b.begin(), b.end());
      seen.push_back(m.as<int>());
    });
    for (int d = 0; d < r.size(); ++d)
      if (d != r.rank())
        for (int i = 0; i < 50; ++i) r.am_post_value(d, h, i);
    r.am_quiesce();
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_EQ(r.am_health().abandoned_records, 0u);
  });
}

TEST(ParcFaults, BoundedRetriesAbandonAndQuiesceStillTerminates) {
  // A black-hole link: every AM message vanishes. Bounded retries must give
  // up, surface the loss in the health report, and am_quiesce must still
  // terminate via the abandoned-record accounting.
  FaultPlan blackhole{.seed = 2, .drop_prob = 1.0};
  const RunStats stats = Runtime::run(
      2,
      [](Rank& r) {
        r.am_set_retry_params({.base_timeout_ticks = 1, .max_backoff_shift = 1,
                               .max_attempts = 2});
        int got = 0;
        const int h = r.am_register(
            [&got](Rank&, int, std::span<const std::uint8_t>) { ++got; });
        if (r.rank() == 0) for (int i = 0; i < 10; ++i) r.am_post_value(1, h, i);
        r.am_quiesce();
        if (r.rank() == 0) {
          EXPECT_EQ(r.am_abandoned(), 10u);
          const auto health = r.am_health();
          EXPECT_TRUE(health.degraded());
          ASSERT_EQ(health.peers.size(), 1u);
          EXPECT_EQ(health.peers[0].peer, 1);
          EXPECT_TRUE(health.peers[0].dead);
          EXPECT_GT(health.retransmits, 0u);
        } else {
          EXPECT_EQ(got, 0);
        }
      },
      {}, blackhole);
  EXPECT_EQ(stats.abandoned_records, 10u);
}

TEST(ParcFaults, DelayedMessagesCannotDeadlockBlockingRecv) {
  // User-tag scope + 100% delay probability: a blocking recv must still get
  // the message (deferred mail is force-released before the receiver waits).
  FaultPlan plan{.seed = 6, .delay_prob = 1.0, .max_delay_deliveries = 4,
                 .include_user_tags = true};
  Runtime::run(
      2,
      [](Rank& r) {
        if (r.rank() == 0) r.send_value(1, 5, 77);
        else EXPECT_EQ(r.recv_value<int>(0, 5), 77);
      },
      {}, plan);
}

TEST(ParcRuntime, PropagatesExceptions) {
  EXPECT_THROW(Runtime::run(3,
                            [](Rank& r) {
                              if (r.rank() == 1) throw std::runtime_error("boom");
                              // Other ranks exit without communication.
                            }),
               std::runtime_error);
}

TEST(ParcRuntime, RejectsNonPositiveRanks) {
  EXPECT_THROW(Runtime::run(0, [](Rank&) {}), std::invalid_argument);
}

}  // namespace
}  // namespace hotlib::parc
