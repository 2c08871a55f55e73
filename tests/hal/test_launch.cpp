// hal::launch / DeviceArray / ModelRuntime: the single dispatch point from
// a hal::Model to its dialect API must run every index exactly once, in
// one launch whose geometry is the dialect's own, and move data through
// the dialect's memory API without leaking.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "hal/device.hpp"
#include "hal/launch.hpp"

namespace hal = hemo::hal;

TEST(Launch, EveryModelRunsEachIndexOnceInOneLaunchOfItsGeometry) {
  constexpr std::int64_t kItems = 1000;  // not a multiple of 256
  auto& eng = hal::DeviceEngine::instance();
  for (const hal::Model model : hal::kAllModels) {
    const hal::ModelRuntime runtime(model);
    std::vector<int> hits(kItems, 0);
    const hal::EngineCounters before = eng.counters();
    hal::launch(model, kItems, [&hits](std::int64_t i) {
      ++hits[static_cast<std::size_t>(i)];
    });
    const hal::EngineCounters& after = eng.counters();
    for (std::int64_t i = 0; i < kItems; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1)
          << hal::name_of(model) << " index " << i;
    EXPECT_EQ(after.kernel_launches - before.kernel_launches, 1)
        << hal::name_of(model);
    // CUDA-shaped grids cover whole 256-thread blocks; SYCL ranges and
    // Kokkos range policies cover exactly the items.
    const bool cuda_shaped =
        model == hal::Model::kCuda || model == hal::Model::kHip;
    EXPECT_EQ(after.kernel_indices - before.kernel_indices,
              cuda_shaped ? 1024 : kItems)
        << hal::name_of(model);
  }
}

TEST(DeviceArray, RoundTripsThroughEveryModelAndFreesWhatItHolds) {
  const std::vector<double> host = {1.5, -2.0, 3.25, 0.0, 1e-300};
  const auto bytes = static_cast<std::int64_t>(host.size() * sizeof(double));
  auto& eng = hal::DeviceEngine::instance();
  for (const hal::Model model : hal::kAllModels) {
    const hal::ModelRuntime runtime(model);
    const std::size_t live_before = eng.live_allocations();
    {
      const hal::EngineCounters before = eng.counters();
      hal::DeviceArray<double> a(model, std::span<const double>(host));
      EXPECT_EQ(a.size(), host.size());
      EXPECT_TRUE(eng.owns(a.data())) << hal::name_of(model);
      EXPECT_EQ(a.download(), host) << hal::name_of(model);
      EXPECT_EQ(eng.counters().bytes_h2d - before.bytes_h2d, bytes);
      EXPECT_EQ(eng.counters().bytes_d2h - before.bytes_d2h, bytes);

      hal::DeviceArray<double> b(model, host.size());
      b = std::move(a);  // swaps: `a` now releases b's old allocation
      EXPECT_EQ(b.download(), host) << hal::name_of(model);
      const hal::DeviceArray<double> c(std::move(b));
      EXPECT_EQ(b.data(), nullptr);
      EXPECT_EQ(c.download(), host) << hal::name_of(model);
      EXPECT_EQ(eng.live_allocations(), live_before + 2);
    }
    EXPECT_EQ(eng.live_allocations(), live_before) << hal::name_of(model);
  }
}

TEST(ModelRuntime, FinalizesOnlyAKokkosRuntimeItStarted) {
  namespace kx = hal::kokkosx;
  ASSERT_FALSE(kx::is_initialized());
  {
    const hal::ModelRuntime plain(hal::Model::kSycl);
    EXPECT_FALSE(kx::is_initialized());
  }
  {
    const hal::ModelRuntime outer(hal::Model::kKokkosHip);
    EXPECT_TRUE(kx::is_initialized());
    EXPECT_EQ(kx::current_backend(), hal::Backend::kHip);
    { const hal::ModelRuntime inner(hal::Model::kKokkosHip); }
    EXPECT_TRUE(kx::is_initialized());
  }
  EXPECT_FALSE(kx::is_initialized());
}
