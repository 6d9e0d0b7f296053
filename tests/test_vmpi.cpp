// Virtual MPI substrate: collectives, point-to-point, abort propagation,
// byte accounting.

#include "vmpi/runtime.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>

namespace paralagg::vmpi {
namespace {

TEST(Runtime, RunsEveryRankExactlyOnce) {
  std::atomic<int> visits{0};
  std::array<std::atomic<bool>, 8> seen{};
  run(8, [&](Comm& comm) {
    ++visits;
    seen[static_cast<std::size_t>(comm.rank())] = true;
    EXPECT_EQ(comm.size(), 8);
  });
  EXPECT_EQ(visits.load(), 8);
  for (const auto& s : seen) EXPECT_TRUE(s.load());
}

TEST(Runtime, SingleRankWorld) {
  run(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.allreduce<int>(5, ReduceOp::kSum), 5);
    comm.barrier();
  });
}

TEST(Runtime, RejectsNonPositiveRankCount) {
  EXPECT_THROW(run(0, [](Comm&) {}), std::invalid_argument);
}

TEST(Runtime, PropagatesRankException) {
  EXPECT_THROW(run(4,
                   [&](Comm& comm) {
                     if (comm.rank() == 2) throw std::runtime_error("rank 2 died");
                     // Other ranks block; abort must release them.
                     comm.barrier();
                     comm.barrier();
                   }),
               std::runtime_error);
}

TEST(Runtime, AbortReleasesBlockedRecv) {
  EXPECT_THROW(run(2,
                   [&](Comm& comm) {
                     if (comm.rank() == 0) throw std::runtime_error("boom");
                     (void)comm.recv(0, 1);  // would block forever without abort
                   }),
               std::runtime_error);
}

TEST(Allreduce, SumMinMax) {
  run(7, [&](Comm& comm) {
    const int r = comm.rank();
    EXPECT_EQ(comm.allreduce<int>(r, ReduceOp::kSum), 21);
    EXPECT_EQ(comm.allreduce<int>(r, ReduceOp::kMin), 0);
    EXPECT_EQ(comm.allreduce<int>(r, ReduceOp::kMax), 6);
  });
}

TEST(Allreduce, LogicalOps) {
  run(4, [&](Comm& comm) {
    const std::uint8_t mine = comm.rank() == 2 ? 0 : 1;
    EXPECT_EQ(comm.allreduce<std::uint8_t>(mine, ReduceOp::kLand), 0);
    EXPECT_EQ(comm.allreduce<std::uint8_t>(mine, ReduceOp::kLor), 1);
  });
}

TEST(Allreduce, RepeatedCallsDoNotInterfere) {
  run(5, [&](Comm& comm) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(comm.allreduce<int>(comm.rank() + i, ReduceOp::kSum),
                10 + 5 * i);
    }
  });
}

TEST(Allreduce, EachFoldsElementwiseInOneCall) {
  run(5, [&](Comm& comm) {
    const auto r = static_cast<std::uint64_t>(comm.rank());
    std::array<std::uint64_t, 3> v{r, 10 * r, 7};
    const auto calls0 = comm.stats().calls_of(vmpi::Op::kAllreduce);
    comm.allreduce_each(std::span<std::uint64_t>(v), ReduceOp::kSum);
    EXPECT_EQ(comm.stats().calls_of(vmpi::Op::kAllreduce) - calls0, 1u);
    EXPECT_EQ(v, (std::array<std::uint64_t, 3>{10, 100, 35}));
    std::array<std::uint64_t, 2> m{r, 4 - r};
    comm.allreduce_each(std::span<std::uint64_t>(m), ReduceOp::kMax);
    EXPECT_EQ(m, (std::array<std::uint64_t, 2>{4, 4}));
  });
}

TEST(Allgather, CollectsInRankOrder) {
  run(6, [&](Comm& comm) {
    const auto all = comm.allgather<std::uint64_t>(comm.rank() * 11u);
    ASSERT_EQ(all.size(), 6u);
    for (int r = 0; r < 6; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 11u);
  });
}

TEST(Bcast, ValueReachesAllRanks) {
  run(5, [&](Comm& comm) {
    const std::uint64_t v = comm.rank() == 3 ? 777 : 0;
    EXPECT_EQ(comm.bcast_value<std::uint64_t>(3, v), 777u);
  });
}

TEST(Bcast, BufferReachesAllRanks) {
  run(3, [&](Comm& comm) {
    Bytes data;
    if (comm.rank() == 0) {
      BufferWriter w;
      for (std::uint64_t i = 0; i < 100; ++i) w.put(i);
      data = w.take();
    }
    auto out = comm.bcast(0, data);
    BufferReader r(out);
    for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(r.get<std::uint64_t>(), i);
    EXPECT_TRUE(r.done());
  });
}

TEST(Gatherv, RootSeesAllBuffers) {
  run(4, [&](Comm& comm) {
    BufferWriter w;
    w.put<std::uint64_t>(comm.rank() * 2u);
    const auto mine = w.take();
    auto all = comm.gatherv(1, mine);
    if (comm.rank() == 1) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        BufferReader rd(all[static_cast<std::size_t>(r)]);
        EXPECT_EQ(rd.get<std::uint64_t>(), r * 2u);
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Alltoallv, PersonalizedExchange) {
  run(4, [&](Comm& comm) {
    const int n = comm.size();
    // Rank r sends value r*10+d to rank d.
    std::vector<std::vector<std::uint64_t>> send(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      send[static_cast<std::size_t>(d)].push_back(
          static_cast<std::uint64_t>(comm.rank() * 10 + d));
    }
    auto got = comm.alltoallv_t(send);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      ASSERT_EQ(got[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(got[static_cast<std::size_t>(s)][0],
                static_cast<std::uint64_t>(s * 10 + comm.rank()));
    }
  });
}

TEST(Alltoallv, EmptyAndAsymmetricBuffers) {
  run(3, [&](Comm& comm) {
    std::vector<std::vector<std::uint32_t>> send(3);
    // Only rank 0 sends, and only to rank 2.
    if (comm.rank() == 0) send[2] = {1, 2, 3};
    auto got = comm.alltoallv_t(send);
    std::size_t total = 0;
    for (const auto& b : got) total += b.size();
    EXPECT_EQ(total, comm.rank() == 2 ? 3u : 0u);
  });
}

TEST(PointToPoint, SendRecvByTag) {
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      BufferWriter w;
      w.put<std::uint64_t>(111);
      const auto first = w.take();
      BufferWriter w2;
      w2.put<std::uint64_t>(222);
      const auto second = w2.take();
      comm.isend(1, /*tag=*/7, first);
      comm.isend(1, /*tag=*/9, second);
    } else {
      // Receive out of order by tag.
      auto nine = comm.recv(0, 9);
      auto seven = comm.recv(0, 7);
      EXPECT_EQ(BufferReader(nine).get<std::uint64_t>(), 222u);
      EXPECT_EQ(BufferReader(seven).get<std::uint64_t>(), 111u);
    }
  });
}

TEST(PointToPoint, WildcardSourceAndTag) {
  run(3, [&](Comm& comm) {
    if (comm.rank() != 0) {
      BufferWriter w;
      w.put<std::uint64_t>(static_cast<std::uint64_t>(comm.rank()));
      comm.isend(0, comm.rank(), w.take());
    } else {
      std::uint64_t sum = 0;
      for (int i = 0; i < 2; ++i) {
        int src = -2, tag = -2;
        auto data = comm.recv(kAnySource, kAnyTag, &src, &tag);
        EXPECT_EQ(src, tag);  // we used rank as tag
        sum += BufferReader(data).get<std::uint64_t>();
      }
      EXPECT_EQ(sum, 3u);
    }
    comm.barrier();
  });
}

TEST(PointToPoint, IprobeSeesPendingMessage) {
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      BufferWriter w;
      w.put<int>(1);
      comm.isend(1, 5, w.take());
      comm.barrier();
    } else {
      comm.barrier();  // ensure the send happened
      EXPECT_TRUE(comm.iprobe(0, 5));
      EXPECT_TRUE(comm.iprobe(kAnySource, kAnyTag));
      EXPECT_FALSE(comm.iprobe(0, 6));
      (void)comm.recv(0, 5);
      EXPECT_FALSE(comm.iprobe(0, 5));
    }
  });
}

TEST(PointToPoint, WildcardMatchingIsFifoPerPattern) {
  // Among queued messages matching a wildcard pattern, the earliest
  // enqueued must be delivered first — the async engine's drain loop
  // depends on arrival order being preserved per tag.
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      for (std::uint64_t i = 0; i < 4; ++i) {
        BufferWriter w;
        w.put(i);
        // Alternate tags; wildcard receives must still see 0,1,2,3.
        comm.isend(1, /*tag=*/static_cast<int>(10 + i % 2), w.take());
      }
      comm.barrier();
    } else {
      comm.barrier();  // all four messages are queued now
      for (std::uint64_t i = 0; i < 4; ++i) {
        int tag = -2;
        auto data = comm.recv(kAnySource, kAnyTag, nullptr, &tag);
        EXPECT_EQ(BufferReader(data).get<std::uint64_t>(), i);
        EXPECT_EQ(tag, static_cast<int>(10 + i % 2));
      }
    }
    comm.barrier();
    // Second wave: tag-filtered wildcard-source receive skips non-matching
    // messages but stays FIFO within the tag.
    if (comm.rank() == 0) {
      for (std::uint64_t i = 0; i < 4; ++i) {
        BufferWriter w;
        w.put(i);
        comm.isend(1, static_cast<int>(20 + i % 2), w.take());
      }
      comm.barrier();
    } else {
      comm.barrier();
      int src = -2;
      auto a = comm.recv(kAnySource, 21, &src);  // second-enqueued message
      EXPECT_EQ(BufferReader(a).get<std::uint64_t>(), 1u);
      EXPECT_EQ(src, 0);
      auto b = comm.recv(kAnySource, 21);
      EXPECT_EQ(BufferReader(b).get<std::uint64_t>(), 3u);
      auto c = comm.recv(kAnySource, 20);
      EXPECT_EQ(BufferReader(c).get<std::uint64_t>(), 0u);
      auto d = comm.recv(kAnySource, 20);
      EXPECT_EQ(BufferReader(d).get<std::uint64_t>(), 2u);
    }
  });
}

TEST(PointToPoint, DrainDeliversAllQueuedForTag) {
  run(3, [&](Comm& comm) {
    if (comm.rank() != 0) {
      for (int i = 0; i < 3; ++i) {
        BufferWriter w;
        w.put<std::uint64_t>(static_cast<std::uint64_t>(comm.rank() * 10 + i));
        comm.isend(0, /*tag=*/5, w.take());
      }
      BufferWriter other;
      other.put<std::uint64_t>(999);
      comm.isend(0, /*tag=*/6, other.take());
      comm.barrier();
    } else {
      comm.barrier();  // 6 tag-5 messages and 2 tag-6 messages queued
      std::vector<std::uint64_t> got;
      std::vector<int> sources;
      const auto n = comm.drain(5, [&](int src, Bytes payload) {
        sources.push_back(src);
        got.push_back(BufferReader(payload).get<std::uint64_t>());
      });
      EXPECT_EQ(n, 6u);
      EXPECT_EQ(got.size(), 6u);
      // Per-source arrival order is preserved.
      std::uint64_t prev1 = 0, prev2 = 0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        auto& prev = sources[i] == 1 ? prev1 : prev2;
        EXPECT_GE(got[i], prev);
        prev = got[i];
      }
      // The tag-6 messages are untouched.
      EXPECT_EQ(comm.drain(5, [](int, Bytes) {}), 0u);
      std::size_t sixes = comm.drain(6, [](int, Bytes) {});
      EXPECT_EQ(sixes, 2u);
    }
    comm.barrier();
  });
}

TEST(Stats, P2PMessageAndByteCountersMatchTraffic) {
  std::vector<CommStats> per_rank;
  run_collect(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          BufferWriter w;
          for (int i = 0; i < 4; ++i) w.put<std::uint64_t>(1);
          comm.isend(1, 3, w.take());  // 32 bytes
          BufferWriter w2;
          w2.put<std::uint64_t>(2);
          comm.isend(1, 3, w2.take());  // 8 bytes
          comm.barrier();
        } else {
          (void)comm.recv(0, 3);
          (void)comm.recv(0, 3);
          comm.barrier();
        }
      },
      per_rank);
  EXPECT_EQ(per_rank[0].messages_sent, 2u);
  EXPECT_EQ(per_rank[0].messages_received, 0u);
  EXPECT_EQ(per_rank[1].messages_received, 2u);
  EXPECT_EQ(per_rank[1].p2p_bytes_received, 40u);
}

TEST(Stats, WaitSecondsAccumulatesOnBlockedRecv) {
  std::vector<CommStats> per_rank;
  run_collect(
      2,
      [&](Comm& comm) {
        if (comm.rank() == 0) {
          // Make rank 1 block in recv for a measurable moment.
          const auto t0 = std::chrono::steady_clock::now();
          while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(20)) {
          }
          BufferWriter w;
          w.put<std::uint64_t>(7);
          comm.isend(1, 2, w.take());
        } else {
          (void)comm.recv(0, 2);
        }
      },
      per_rank);
  EXPECT_GT(per_rank[1].wait_seconds, 0.0);
}

TEST(Stats, AlltoallvCountsRemoteVsLocalBytes) {
  std::vector<CommStats> per_rank;
  run_collect(
      4,
      [&](Comm& comm) {
        std::vector<std::vector<std::uint64_t>> send(4);
        for (int d = 0; d < 4; ++d) send[static_cast<std::size_t>(d)] = {1, 2};
        (void)comm.alltoallv_t(send);
      },
      per_rank);
  for (const auto& st : per_rank) {
    // 2 values * 8 bytes to each of 3 remote ranks; 16 bytes to self.
    EXPECT_EQ(st.remote_bytes(Op::kAlltoallv), 3u * 16u);
    EXPECT_EQ(st.bytes_local[static_cast<std::size_t>(Op::kAlltoallv)], 16u);
  }
}

TEST(Stats, AllreduceVoteCostsOneIntegerPerRank) {
  // The paper stresses that the join-planning vote moves a single small
  // integer; verify the accounting shows exactly that.
  std::vector<CommStats> per_rank;
  run_collect(
      8, [&](Comm& comm) { (void)comm.allreduce<std::uint32_t>(1, ReduceOp::kSum); },
      per_rank);
  for (const auto& st : per_rank) {
    EXPECT_EQ(st.remote_bytes(Op::kAllreduce), sizeof(std::uint32_t) * 7);
  }
}

TEST(Stats, PerKindCountersSplitIntraVsCrossNodeBytes) {
  // Under a grouped topology every collective kind carries its own
  // locality split: 4 ranks on 2 nodes of 2 means each rank's n-1 remote
  // blocks divide into 1 on-node peer and 2 off-node peers, per kind.
  RunOptions options;
  options.topology = Topology::grouped(4, 2);
  std::vector<CommStats> per_rank;
  run_collect(
      4, options,
      [&](Comm& comm) {
        (void)comm.allreduce<std::uint64_t>(1, ReduceOp::kSum);
        (void)comm.allgather<std::uint64_t>(2);
        std::vector<std::vector<std::uint64_t>> send(4);
        for (auto& s : send) s = {1, 2, 3};
        (void)comm.alltoallv_t(send);
      },
      per_rank);
  for (const auto& st : per_rank) {
    for (const Op op : {Op::kAllreduce, Op::kAllgather}) {
      EXPECT_EQ(st.remote_bytes(op), 24u);
      EXPECT_EQ(st.intra_node_bytes(op), 8u);
      EXPECT_EQ(st.cross_node_bytes(op), 16u);
    }
    EXPECT_EQ(st.remote_bytes(Op::kAlltoallv), 72u);
    EXPECT_EQ(st.intra_node_bytes(Op::kAlltoallv), 24u);
    EXPECT_EQ(st.cross_node_bytes(Op::kAlltoallv), 48u);
    // Per-kind splits are exhaustive: intra + cross == remote, and the
    // world totals are the per-kind sums.
    std::uint64_t cross = 0;
    for (const Op op : {Op::kAllreduce, Op::kAllgather, Op::kAlltoallv}) {
      EXPECT_EQ(st.intra_node_bytes(op) + st.cross_node_bytes(op), st.remote_bytes(op));
      cross += st.cross_node_bytes(op);
    }
    EXPECT_EQ(st.total_cross_node_bytes(), cross);
  }
}

TEST(Stats, PauseSuppressesAccounting) {
  std::vector<CommStats> per_rank;
  run_collect(
      2,
      [&](Comm& comm) {
        {
          StatsPause pause(comm);
          (void)comm.allreduce<std::uint64_t>(1, ReduceOp::kSum);
        }
        EXPECT_TRUE(comm.stats_enabled());
      },
      per_rank);
  for (const auto& st : per_rank) {
    EXPECT_EQ(st.total_remote_bytes(), 0u);
  }
}

TEST(Stats, TotalsAggregateAcrossRanks) {
  const auto total = run(3, [&](Comm& comm) {
    (void)comm.allgather<std::uint64_t>(1);
  });
  EXPECT_EQ(total.remote_bytes(Op::kAllgather), 3u * 2u * sizeof(std::uint64_t));
  EXPECT_EQ(total.calls[static_cast<std::size_t>(Op::kAllgather)], 3u);
}

TEST(Serialize, RoundTripMixedTypes) {
  BufferWriter w;
  w.put<std::uint64_t>(42);
  w.put<double>(2.5);
  const std::uint32_t arr[] = {7, 8, 9};
  w.put_span(std::span<const std::uint32_t>(arr, 3));
  const auto bytes = w.take();

  BufferReader r(bytes);
  EXPECT_EQ(r.get<std::uint64_t>(), 42u);
  EXPECT_EQ(r.get<double>(), 2.5);
  std::uint32_t out[3];
  r.get_into(std::span<std::uint32_t>(out, 3));
  EXPECT_EQ(out[2], 9u);
  EXPECT_TRUE(r.done());
}

TEST(Bruck, MatchesDenseAlltoallv) {
  for (const int ranks : {2, 3, 5, 8, 13}) {  // includes non-powers-of-two
    run(ranks, [&](Comm& comm) {
      const int n = comm.size();
      std::vector<Bytes> send(static_cast<std::size_t>(n));
      std::vector<Bytes> send2(static_cast<std::size_t>(n));
      for (int d = 0; d < n; ++d) {
        BufferWriter w;
        // Variable-size payloads, some empty.
        const int count = (comm.rank() + d) % 4;
        for (int i = 0; i < count; ++i) {
          w.put<std::uint64_t>(static_cast<std::uint64_t>(comm.rank() * 1000 + d * 10 + i));
        }
        send[static_cast<std::size_t>(d)] = w.take();
        send2[static_cast<std::size_t>(d)] = send[static_cast<std::size_t>(d)];
      }
      const auto dense = comm.alltoallv(std::move(send));
      const auto bruck = comm.alltoallv_bruck(std::move(send2));
      ASSERT_EQ(bruck.size(), dense.size());
      for (int s = 0; s < n; ++s) {
        EXPECT_EQ(bruck[static_cast<std::size_t>(s)], dense[static_cast<std::size_t>(s)])
            << "ranks=" << ranks << " from=" << s;
      }
    });
  }
}

TEST(Bruck, LogarithmicMessageCount) {
  std::vector<CommStats> per_rank;
  run_collect(
      16,
      [&](Comm& comm) {
        std::vector<Bytes> send(16);
        for (auto& b : send) {
          BufferWriter w;
          w.put<std::uint64_t>(1);
          b = w.take();
        }
        (void)comm.alltoallv_bruck(std::move(send));
      },
      per_rank);
  for (const auto& st : per_rank) {
    EXPECT_EQ(st.messages_sent, 4u);  // log2(16) rounds, one message each
  }
}

TEST(Bruck, BackToBackCallsDoNotCrossMatch) {
  run(4, [&](Comm& comm) {
    for (int round = 0; round < 5; ++round) {
      std::vector<Bytes> send(4);
      BufferWriter w;
      w.put<std::uint64_t>(static_cast<std::uint64_t>(comm.rank() * 100 + round));
      send[static_cast<std::size_t>((comm.rank() + 1) % 4)] = w.take();
      const auto got = comm.alltoallv_bruck(std::move(send));
      const int src = (comm.rank() + 3) % 4;
      BufferReader r(got[static_cast<std::size_t>(src)]);
      EXPECT_EQ(r.get<std::uint64_t>(), static_cast<std::uint64_t>(src * 100 + round));
    }
  });
}

TEST(MailboxAlltoallv, MatchesDenseAlltoallv) {
  for (const int ranks : {1, 2, 3, 5, 8, 13}) {
    run(ranks, [&](Comm& comm) {
      const int n = comm.size();
      std::vector<Bytes> send(static_cast<std::size_t>(n));
      std::vector<Bytes> send2(static_cast<std::size_t>(n));
      for (int d = 0; d < n; ++d) {
        BufferWriter w;
        // Variable-size payloads, some empty.
        const int count = (comm.rank() + d) % 4;
        for (int i = 0; i < count; ++i) {
          w.put<std::uint64_t>(static_cast<std::uint64_t>(comm.rank() * 1000 + d * 10 + i));
        }
        send[static_cast<std::size_t>(d)] = w.take();
        send2[static_cast<std::size_t>(d)] = send[static_cast<std::size_t>(d)];
      }
      const auto dense = comm.alltoallv(std::move(send));
      const auto mailbox = comm.alltoallv_mailbox(std::move(send2));
      ASSERT_EQ(mailbox.size(), dense.size());
      for (int s = 0; s < n; ++s) {
        EXPECT_EQ(mailbox[static_cast<std::size_t>(s)], dense[static_cast<std::size_t>(s)])
            << "ranks=" << ranks << " from=" << s;
      }
    });
  }
}

TEST(MailboxAlltoallv, BackToBackCallsDoNotCrossMatch) {
  run(3, [&](Comm& comm) {
    const auto n = static_cast<std::size_t>(comm.size());
    auto make_send = [&](std::uint64_t wave) {
      std::vector<Bytes> send(n);
      for (std::size_t d = 0; d < n; ++d) {
        BufferWriter w;
        w.put<std::uint64_t>(wave * 1000 + static_cast<std::uint64_t>(comm.rank()));
        send[d] = w.take();
      }
      return send;
    };
    // A fast rank's wave-2 frames can be queued before a slow peer drained
    // wave 1: the per-call tag sequence must keep the two calls apart.
    const auto got1 = comm.alltoallv_mailbox(make_send(1));
    const auto got2 = comm.alltoallv_mailbox(make_send(2));
    for (std::size_t s = 0; s < n; ++s) {
      EXPECT_EQ(BufferReader(got1[s]).get<std::uint64_t>(), 1000u + s);
      EXPECT_EQ(BufferReader(got2[s]).get<std::uint64_t>(), 2000u + s);
    }
  });
}

TEST(MailboxAlltoallv, StatsAttributeToAlltoallvNotP2P) {
  std::vector<CommStats> per_rank;
  run_collect(
      4,
      [&](Comm& comm) {
        std::vector<Bytes> send(4);
        for (int d = 0; d < 4; ++d) {
          BufferWriter w;
          w.put<std::uint64_t>(1);
          w.put<std::uint64_t>(2);
          send[static_cast<std::size_t>(d)] = w.take();
        }
        (void)comm.alltoallv_mailbox(std::move(send));
      },
      per_rank);
  for (const auto& st : per_rank) {
    // Same attribution as the blocking collective: 16 bytes to each of 3
    // remote ranks, 16 to self — and none of it double-counted as p2p.
    EXPECT_EQ(st.remote_bytes(Op::kAlltoallv), 3u * 16u);
    EXPECT_EQ(st.bytes_local[static_cast<std::size_t>(Op::kAlltoallv)], 16u);
    EXPECT_EQ(st.calls_of(Op::kAlltoallv), 1u);
    EXPECT_EQ(st.steps_of(Op::kAlltoallv), 1u);
    EXPECT_EQ(st.remote_bytes(Op::kP2P), 0u);
    EXPECT_EQ(st.messages_sent, 0u);
    EXPECT_EQ(st.messages_received, 0u);
  }
}

TEST(Split, GroupsByColorOrderedByKey) {
  run(8, [&](Comm& comm) {
    // Even ranks -> color 0, odd -> color 1; key reverses the rank order.
    const int color = comm.rank() % 2;
    auto sub = comm.split(color, /*key=*/-comm.rank());
    EXPECT_EQ(sub.comm().size(), 4);
    // Reversed key: parent rank 6 becomes sub-rank 1 of color 0, etc.
    const int expected = (comm.size() - 2 - (comm.rank() - color)) / 2;
    EXPECT_EQ(sub.comm().rank(), expected);
  });
}

TEST(Split, SubCommunicatorCollectivesAreIsolated) {
  run(6, [&](Comm& comm) {
    const int color = comm.rank() < 2 ? 0 : 1;  // groups of 2 and 4
    auto sub = comm.split(color, comm.rank());
    const auto sum = sub.comm().allreduce<std::uint64_t>(1, ReduceOp::kSum);
    EXPECT_EQ(sum, color == 0 ? 2u : 4u);
    // Group-local gather sees only group members.
    const auto all = sub.comm().allgather<std::uint64_t>(
        static_cast<std::uint64_t>(comm.rank()));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(sub.comm().size()));
    for (const auto v : all) {
      EXPECT_EQ(color == 0 ? v < 2 : v >= 2, true);
    }
    comm.barrier();  // parent still usable afterwards
  });
}

TEST(Split, RepeatedSplitsDoNotCollide) {
  run(4, [&](Comm& comm) {
    for (int i = 0; i < 3; ++i) {
      auto sub = comm.split(comm.rank() % 2, comm.rank());
      EXPECT_EQ(sub.comm().size(), 2);
      sub.comm().barrier();
    }
  });
}

TEST(ManyRanks, CollectivesScaleTo64Threads) {
  run(64, [&](Comm& comm) {
    const auto sum = comm.allreduce<std::uint64_t>(1, ReduceOp::kSum);
    EXPECT_EQ(sum, 64u);
    comm.barrier();
  });
}

TEST(MailboxAlltoallv, SecondFrameFromOneSourceIsTypedDecodeError) {
  // Rank 1 queues two stray frames on the first call's tag (the base of the
  // mailbox-alltoallv tag space) ahead of the exchange.  Rank 0 then sees
  // rank 1 twice before rank 2 — a broken exchange, which must surface as
  // FrameDecodeError, never as rank 1's bytes standing in for rank 2's.
  constexpr int kFirstCallTag = 0x41A20000;
  run(3, [&](Comm& comm) {
    if (comm.rank() == 1) {
      const Bytes stray(8, std::byte{0x5A});
      comm.isend(0, kFirstCallTag, stray);
      comm.isend(0, kFirstCallTag, stray);
    }
    comm.barrier();  // both strays are queued before anyone exchanges
    std::vector<Bytes> send(static_cast<std::size_t>(comm.size()));
    if (comm.rank() == 0) {
      EXPECT_THROW((void)comm.alltoallv_mailbox(std::move(send)), FrameDecodeError);
    } else {
      // Ranks 1 and 2 still get one frame from every peer.
      const auto got = comm.alltoallv_mailbox(std::move(send));
      for (const auto& b : got) EXPECT_TRUE(b.empty());
    }
  });
}

TEST(MailboxAlltoallv, AllEmptySendsCompleteWithoutTraffic) {
  for (const int ranks : {1, 2, 5}) {
    run(ranks, [&](Comm& comm) {
      std::vector<Bytes> send(static_cast<std::size_t>(comm.size()));
      const auto got = comm.alltoallv_mailbox(std::move(send));
      ASSERT_EQ(got.size(), static_cast<std::size_t>(comm.size()));
      for (const auto& b : got) EXPECT_TRUE(b.empty());
    });
  }
}

}  // namespace
}  // namespace paralagg::vmpi
