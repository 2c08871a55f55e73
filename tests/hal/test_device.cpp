// DeviceEngine tests: allocation registry, byte accounting, and the
// parallel_for execution contract (including threaded chunking).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

#include "geom/cylinder.hpp"
#include "hal/device.hpp"
#include "harvey/device_solver.hpp"
#include "lbm/kernels.hpp"

using hemo::hal::DeviceEngine;

TEST(DeviceEngine, AllocateTracksOwnershipAndSize) {
  DeviceEngine eng;
  void* p = eng.allocate(128);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(eng.owns(p));
  EXPECT_EQ(eng.allocation_size(p), 128u);
  EXPECT_EQ(eng.live_allocations(), 1u);
  EXPECT_TRUE(eng.deallocate(p));
  EXPECT_FALSE(eng.owns(p));
  EXPECT_EQ(eng.live_allocations(), 0u);
}

TEST(DeviceEngine, DeallocateUnknownPointerFails) {
  DeviceEngine eng;
  int x = 0;
  EXPECT_FALSE(eng.deallocate(&x));
}

TEST(DeviceEngine, ZeroByteAllocationYieldsValidPointer) {
  DeviceEngine eng;
  void* p = eng.allocate(0);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(eng.deallocate(p));
}

TEST(DeviceEngine, CopiesMoveBytesAndCount) {
  DeviceEngine eng;
  void* d = eng.allocate(64);
  std::vector<std::uint8_t> host(64);
  std::iota(host.begin(), host.end(), 0);

  eng.copy_h2d(d, host.data(), 64);
  std::vector<std::uint8_t> back(64, 0);
  eng.copy_d2h(back.data(), d, 64);
  EXPECT_EQ(back, host);

  EXPECT_EQ(eng.counters().bytes_h2d, 64);
  EXPECT_EQ(eng.counters().bytes_d2h, 64);
  eng.deallocate(d);
}

TEST(DeviceEngine, ParallelForVisitsEveryIndexOnce) {
  DeviceEngine eng;
  std::vector<int> hits(1000, 0);
  eng.parallel_for(1000, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(eng.counters().kernel_launches, 1);
  EXPECT_EQ(eng.counters().kernel_indices, 1000);
}

TEST(DeviceEngine, ThreadedChunkingVisitsEveryIndexOnce) {
  DeviceEngine eng;
  eng.set_threads(4);
  std::vector<std::atomic<int>> hits(5000);
  eng.parallel_for(5000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(DeviceEngine, ParallelForAcceptsMoveOnlyFunctors) {
  // The functor is a template parameter, not a std::function, so it need
  // not be copyable; it is shared by reference across worker chunks.
  for (const int threads : {1, 3}) {
    DeviceEngine eng;
    eng.set_threads(threads);
    std::atomic<std::int64_t> sum{0};
    auto base = std::make_unique<std::int64_t>(100);
    eng.parallel_for(10, [base = std::move(base), &sum](std::int64_t i) {
      sum.fetch_add(*base + i);
    });
    EXPECT_EQ(sum.load(), 10 * 100 + 45) << "threads " << threads;
  }
}

TEST(DeviceEngine, EveryIndexOnceForRaggedChunks) {
  // Ranges not divisible by the thread count, including ranges too short
  // to split (n < 2 * threads runs inline).
  for (const int threads : {1, 2, 3, 7}) {
    for (const std::int64_t n : {1, 13, 29, 1001}) {
      DeviceEngine eng;
      eng.set_threads(threads);
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      eng.parallel_for(n, [&](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
      for (std::int64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "threads " << threads << " n " << n << " index " << i;
      EXPECT_EQ(eng.counters().kernel_launches, 1);
      EXPECT_EQ(eng.counters().kernel_indices, n);
    }
  }
}

TEST(DeviceEngine, CoarsenedSolverStepCountsBlocksNotPoints) {
  // One stream-collide launch per step, one work item per block of
  // lbm::kBlock points; the CUDA-shaped dialects round the grid up to
  // whole 256-thread blocks.
  hemo::geom::CylinderSpec spec;
  spec.scale = 1.0;
  spec.radius_per_scale = 4.0;
  spec.axial_per_scale = 11.0;
  const auto lattice = hemo::geom::make_cylinder_lattice(
      spec, hemo::geom::CylinderEnds::kPeriodic);
  const std::int64_t blocks = hemo::lbm::block_count(lattice->size());
  ASSERT_EQ(blocks, (lattice->size() + 3) / 4);
  auto& eng = DeviceEngine::instance();
  for (const auto pattern : {hemo::lbm::Propagation::kPullSoA,
                             hemo::lbm::Propagation::kAAInPlace}) {
    hemo::lbm::SolverOptions o;
    o.propagation = pattern;
    for (const auto model : hemo::hal::kAllModels) {
      hemo::harvey::DeviceSolver solver(lattice, o, model);
      const hemo::hal::EngineCounters before = eng.counters();
      solver.run(2);  // one even and one odd AA step
      const hemo::hal::EngineCounters& after = eng.counters();
      const bool cuda_shaped = model == hemo::hal::Model::kCuda ||
                               model == hemo::hal::Model::kHip;
      const std::int64_t per_step =
          cuda_shaped ? (blocks + 255) / 256 * 256 : blocks;
      EXPECT_EQ(after.kernel_launches - before.kernel_launches, 2)
          << hemo::hal::name_of(model);
      EXPECT_EQ(after.kernel_indices - before.kernel_indices, 2 * per_step)
          << hemo::hal::name_of(model);
    }
  }
}

TEST(DeviceEngine, EmptyRangeLaunchesButExecutesNothing) {
  DeviceEngine eng;
  bool ran = false;
  eng.parallel_for(0, [&](std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.counters().kernel_launches, 1);
  EXPECT_EQ(eng.counters().kernel_indices, 0);
}

TEST(DeviceEngine, ResetCountersClearsEverything) {
  DeviceEngine eng;
  void* p = eng.allocate(8);
  eng.parallel_for(10, [](std::int64_t) {});
  eng.reset_counters();
  EXPECT_EQ(eng.counters().allocations, 0);
  EXPECT_EQ(eng.counters().kernel_launches, 0);
  EXPECT_EQ(eng.counters().kernel_indices, 0);
  eng.deallocate(p);
}
