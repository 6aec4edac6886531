#include <gtest/gtest.h>

#include "core/cache_cluster.hpp"
#include "core/table_sharing.hpp"

namespace sf::core {
namespace {

TEST(TableSharing, StatefulTablesGoToSoftware) {
  ServiceProfile snat{"snat", 0.5, 1.0, 1000, true, 900};
  EXPECT_EQ(decide_placement(snat, SharingPolicy{}), Placement::kSoftware);
}

TEST(TableSharing, HugeTablesGoToSoftware) {
  ServiceProfile huge{"huge", 0.5, 1.0, 500'000'000, false, 900};
  EXPECT_EQ(decide_placement(huge, SharingPolicy{}), Placement::kSoftware);
}

TEST(TableSharing, VolatileTablesGoToSoftware) {
  ServiceProfile churny{"churny", 0.5, 1000.0, 1000, false, 900};
  EXPECT_EQ(decide_placement(churny, SharingPolicy{}),
            Placement::kSoftware);
}

TEST(TableSharing, NewbornServicesGoToSoftware) {
  ServiceProfile newborn{"beta", 0.5, 1.0, 1000, false, 2};
  EXPECT_EQ(decide_placement(newborn, SharingPolicy{}),
            Placement::kSoftware);
}

TEST(TableSharing, StableHotTablesGoToHardware) {
  ServiceProfile routing{"routing", 0.9, 1.0, 1'000'000, false, 900};
  EXPECT_EQ(decide_placement(routing, SharingPolicy{}),
            Placement::kHardware);
}

TEST(TableSharing, DefaultCatalogKeepsSoftwareShareUnderPaperBound) {
  const auto catalog = default_service_catalog();
  const auto placements = decide_catalog(catalog, SharingPolicy{});
  const double share = software_traffic_share(catalog, placements);
  // Fig. 22: the software path carries < 0.2 per mille of traffic.
  EXPECT_LT(share, 0.002);
  EXPECT_GT(share, 0.0);
  // The major forwarding services land in hardware.
  EXPECT_EQ(placements[0], Placement::kHardware);
  EXPECT_EQ(placements[1], Placement::kHardware);  // cross-region
  EXPECT_EQ(placements[2], Placement::kHardware);  // IDC
}

TEST(TableSharing, MismatchedSpansThrow) {
  const auto catalog = default_service_catalog();
  std::vector<Placement> short_placements(2);
  EXPECT_THROW(software_traffic_share(catalog, short_placements),
               std::invalid_argument);
}

TEST(CacheCluster, PaperArithmetic) {
  // §8: 25% active entries, 4 cache clusters + 1 backup -> 4x performance
  // at 2x cost, provided the active set's traffic share is high enough.
  CacheClusterPlan plan({4, 0.25});
  std::vector<TenantActivity> tenants;
  // 10 hot tenants: 2.5% of entries each, 9% of traffic each.
  for (int i = 0; i < 10; ++i) tenants.push_back({0.025, 0.09});
  // Cold tail: 75% of entries, 10% of traffic.
  for (int i = 0; i < 30; ++i) tenants.push_back({0.025, 0.10 / 30});
  const auto analysis = plan.analyze(tenants);
  EXPECT_NEAR(analysis.hit_rate, 0.9, 1e-9);
  EXPECT_NEAR(analysis.cost_ratio, 2.0, 1e-9);
  EXPECT_NEAR(analysis.load_multiplier, 4.0 / 0.9, 1e-6);
  EXPECT_EQ(analysis.active_tenants, 10u);
}

TEST(CacheCluster, BackupBoundsLowHitRates) {
  CacheClusterPlan plan({4, 0.25});
  std::vector<TenantActivity> tenants = {{0.25, 0.5}, {0.75, 0.5}};
  const auto analysis = plan.analyze(tenants);
  EXPECT_NEAR(analysis.hit_rate, 0.5, 1e-9);
  // Backup becomes the bottleneck: 1/(1-0.5) = 2 < 4/0.5 = 8.
  EXPECT_NEAR(analysis.load_multiplier, 2.0, 1e-9);
}

TEST(CacheCluster, GreedyPicksDensestTenants) {
  CacheClusterPlan plan({2, 0.3});
  std::vector<TenantActivity> tenants = {
      {0.3, 0.1},   // big, lukewarm
      {0.1, 0.5},   // small, hot -> picked first
      {0.2, 0.35},  // medium, hot -> picked second
  };
  const auto analysis = plan.analyze(tenants);
  EXPECT_NEAR(analysis.hit_rate, 0.85, 1e-9);
  EXPECT_EQ(analysis.active_tenants, 2u);
}

TEST(CacheCluster, SteerSendsMissesToBackup) {
  CacheClusterPlan plan({4, 0.25});
  std::vector<bool> active = {true, false, true};
  EXPECT_LT(plan.steer(0, active), 4u);
  EXPECT_EQ(plan.steer(1, active), 4u);  // backup index
  EXPECT_LT(plan.steer(2, active), 4u);
}

TEST(CacheCluster, RejectsBadConfig) {
  EXPECT_THROW(CacheClusterPlan({0, 0.25}), std::invalid_argument);
  EXPECT_THROW(CacheClusterPlan({4, 0.0}), std::invalid_argument);
  EXPECT_THROW(CacheClusterPlan({4, 1.5}), std::invalid_argument);
}

}  // namespace
}  // namespace sf::core
