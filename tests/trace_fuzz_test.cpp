// Property/fuzz tests for the dPerf trace text format, mirroring
// spec_fuzz_test.cpp: random traces must survive save -> load -> save
// byte-identically, a corpus of malformed documents must be rejected with a
// "trace parse error" diagnostic instead of crashing, and random token-level
// mutations of valid documents must never produce a trace that re-renders
// differently from what was parsed. The CI ASan job runs these with a fixed
// iteration budget (PDC_FUZZ_ITERS).
#include "dperf/trace.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "support/env.hpp"
#include "support/rng.hpp"

namespace pdc {
namespace {

int fuzz_iters() { return env_int("PDC_FUZZ_ITERS", 150); }

dperf::Trace random_trace(Rng& rng) {
  dperf::Trace t;
  t.nprocs = static_cast<int>(rng.uniform_int(1, 16));
  t.rank = static_cast<int>(rng.uniform_int(0, t.nprocs - 1));
  t.host_hz = rng.uniform(1e8, 5e9);
  const int events = static_cast<int>(rng.uniform_int(0, 64));
  for (int i = 0; i < events; ++i) {
    dperf::TraceEvent e;
    using K = dperf::TraceEvent::Kind;
    switch (rng.uniform_int(0, 4)) {
      case 0:
        e.kind = K::Compute;
        e.ns = rng.next_u64() % 1000000000ull;
        break;
      case 1:
        e.kind = K::Send;
        e.peer = static_cast<int>(rng.uniform_int(0, t.nprocs - 1));
        e.bytes = rng.uniform(0.0, 1e9);
        e.tag = static_cast<int>(rng.uniform_int(0, 99)) - 50;
        break;
      case 2:
        e.kind = K::Recv;
        e.peer = static_cast<int>(rng.uniform_int(0, t.nprocs - 1));
        e.tag = static_cast<int>(rng.uniform_int(0, 99)) - 50;
        break;
      case 3:
        e.kind = K::Allreduce;
        break;
      default:
        e.kind = K::IterMark;
        e.iter_id = static_cast<long long>(rng.uniform_int(0, 100000));
        break;
    }
    t.events.push_back(e);
  }
  return t;
}

TEST(TraceFuzz, SaveLoadRoundTripsByteIdentically) {
  Rng rng(20260808);
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    const dperf::Trace t = random_trace(rng);
    const std::string text = dperf::save_trace(t);
    dperf::Trace back;
    try {
      back = dperf::load_trace(text);
    } catch (const std::runtime_error& e) {
      FAIL() << "rejected own output (iter " << i << "): " << e.what() << "\n" << text;
    }
    EXPECT_EQ(back.rank, t.rank);
    EXPECT_EQ(back.nprocs, t.nprocs);
    ASSERT_EQ(back.events.size(), t.events.size());
    for (std::size_t k = 0; k < t.events.size(); ++k)
      EXPECT_TRUE(back.events[k] == t.events[k]) << "event " << k << " differs (iter "
                                                 << i << ")";
    // The canonical text is a fixed point: re-rendering the parsed trace
    // reproduces the input byte for byte (%.17g round-trips the doubles).
    EXPECT_EQ(dperf::save_trace(back), text) << "iter " << i;
  }
}

TEST(TraceFuzz, RejectsMalformedDocuments) {
  const char* corpus[] = {
      "",
      "dperf-trace v2\nproc 0 of 1 hz 1e9\nend\n",
      "dperf-trace v1\n",
      "dperf-trace v1\nproc 0 of 1 hz 1e9\n",               // missing end
      "dperf-trace v1\nproc zero of 1 hz 1e9\nend\n",
      "dperf-trace v1\nproc 0 from 1 hz 1e9\nend\n",
      "dperf-trace v1\nproc 0 of 1 hz 1e9 extra\nend\n",    // trailing token
      "dperf-trace v1\nproc 0 of 0 hz 1e9\nend\n",          // nprocs <= 0
      "dperf-trace v1\nproc 0 of -3 hz 1e9\nend\n",
      "dperf-trace v1\nproc 2 of 2 hz 1e9\nend\n",          // rank out of range
      "dperf-trace v1\nproc -1 of 2 hz 1e9\nend\n",
      "dperf-trace v1\nproc 0 of 1 hz 0\nend\n",            // hz not positive
      "dperf-trace v1\nproc 0 of 1 hz -2e9\nend\n",
      "dperf-trace v1\nproc 0 of 1 hz 1e9\nteleport 3\nend\n",
      "dperf-trace v1\nproc 0 of 1 hz 1e9\ncompute\nend\n",
      "dperf-trace v1\nproc 0 of 1 hz 1e9\ncompute ten\nend\n",
      "dperf-trace v1\nproc 0 of 1 hz 1e9\nsend 0 64 flag 1\nend\n",
      "dperf-trace v1\nproc 0 of 1 hz 1e9\nsend 0 64 tag\nend\n",
      "dperf-trace v1\nproc 0 of 2 hz 1e9\nsend 2 64 tag 1\nend\n",  // peer >= nprocs
      "dperf-trace v1\nproc 0 of 2 hz 1e9\nsend -1 64 tag 1\nend\n",
      "dperf-trace v1\nproc 0 of 2 hz 1e9\nrecv 2 tag 1\nend\n",
      "dperf-trace v1\nproc 0 of 2 hz 1e9\nrecv -1 tag 1\nend\n",
      "dperf-trace v1\nproc 0 of 1 hz 1e9\nrecv 0 label 1\nend\n",
      "dperf-trace v1\nproc 0 of 1 hz 1e9\niter x\nend\n",
      "dperf-trace v1\nproc 0 of 1 hz 1e9\ncompute -5\nend\n",          // negative ns
      "dperf-trace v1\nproc 0 of 2 hz 1e9\nsend 1 -64 tag 1\nend\n",    // negative bytes
      "dperf-trace v1\nproc 0 of 1 hz 1e9\ncompute 5 junk\nend\n",      // trailing token
      "dperf-trace v1\nproc 0 of 1 hz 1e9\nallreduce 7\nend\n",
      "dperf-trace v1\nproc 0 of 2 hz 1e9\nrecv 1 tag 1 2\nend\n",
  };
  for (const char* doc : corpus) {
    try {
      dperf::load_trace(doc);
      FAIL() << "accepted malformed document:\n" << doc;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("trace parse error"), std::string::npos)
          << e.what();
    }
  }
}

// Token-splice fuzz: mutate random positions of a valid document. The parser
// must either reject with a trace parse error or accept a trace whose
// re-rendering is a parse fixed point — never crash, never accept garbage it
// cannot reproduce.
TEST(TraceFuzz, SplicedDocumentsNeverCrashTheParser) {
  Rng rng(987654321);
  const char* tokens[] = {"proc",  "of",  "hz",   "compute", "send", "recv",
                          "tag",   "end", "iter", "-1",      "0",    "99",
                          "1e309", "nan", "x",    ""};
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    std::string text = dperf::save_trace(random_trace(rng));
    const int splices = static_cast<int>(rng.uniform_int(1, 3));
    for (int s = 0; s < splices; ++s) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
      const char* tok = tokens[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(std::size(tokens)) - 1))];
      if (rng.bernoulli(0.5) && pos < text.size())
        text[pos] = tok[0] != '\0' ? tok[0] : ' ';
      else
        text.insert(pos, tok);
    }
    try {
      const dperf::Trace t = dperf::load_trace(text);
      const std::string canon = dperf::save_trace(t);
      EXPECT_EQ(dperf::save_trace(dperf::load_trace(canon)), canon)
          << "accepted a non-fixed-point document (iter " << i << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("trace parse error"), std::string::npos)
          << e.what();
    }
  }
}

// The hardened extrapolate preconditions: every rejection names the rank and
// echoes sample/target/chunk so batch callers can locate the bad trace.
TEST(TraceFuzz, ExtrapolateRejectionsCarryContext) {
  dperf::Trace t;
  t.rank = 3;
  t.nprocs = 4;
  const auto expect_throw_with = [&](int sample, int target, int chunk) {
    try {
      dperf::extrapolate(t, sample, target, chunk);
      FAIL() << "accepted sample=" << sample << " target=" << target
             << " chunk=" << chunk;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("rank 3"), std::string::npos) << msg;
      EXPECT_NE(msg.find("sample " + std::to_string(sample)), std::string::npos) << msg;
      EXPECT_NE(msg.find("target " + std::to_string(target)), std::string::npos) << msg;
      EXPECT_NE(msg.find("chunk " + std::to_string(chunk)), std::string::npos) << msg;
    }
  };
  expect_throw_with(0, 10, 1);    // sample_iters <= 0 (even though target != sample)
  expect_throw_with(-5, -5, 1);   // negative sample rejected before the equality out
  expect_throw_with(6, 12, 0);    // chunk <= 0
  expect_throw_with(6, 12, 3);    // sample < 3*chunk
  expect_throw_with(9, 8, 3);     // target < sample
  expect_throw_with(9, 13, 3);    // remainder not a multiple of chunk
  expect_throw_with(9, 12, 3);    // marker count mismatch (t has no markers)
}

}  // namespace
}  // namespace pdc
