//===- tests/query_test.cpp - query-policy unit tests ---------*- C++ -*-===//
//
// Pins the QueryPolicy layer in isolation: token parsing round-trips,
// the cs_active-style binary search's envelope properties, the
// AlmThreshold variance floor, the CostRange cost-range test, and the
// determinism contract — identical consultation streams produce
// identical decision streams, with no hidden state beyond the labels
// fed through onLabel().
//
//===----------------------------------------------------------------------===//

#include "core/QueryPolicy.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace alic;

TEST(QueryPolicyTest, ParseAndTokenRoundTrip) {
  for (const char *Token :
       {"always", "alm:0:0.05", "alm:0.1:0.3", "cost:0.1:0.03",
        "cost:0.5:0.001"}) {
    QueryPolicyConfig Cfg;
    ASSERT_TRUE(parseQueryPolicy(Token, Cfg)) << Token;
    EXPECT_EQ(queryPolicyToken(Cfg), Token);
  }
}

TEST(QueryPolicyTest, ParseDefaultsAndPartials) {
  QueryPolicyConfig Cfg;
  ASSERT_TRUE(parseQueryPolicy("alm", Cfg));
  EXPECT_EQ(Cfg.Kind, QueryPolicyKind::AlmThreshold);
  EXPECT_EQ(Cfg.AbsFloor, 0.0);
  EXPECT_EQ(Cfg.RelFloor, 0.05);

  ASSERT_TRUE(parseQueryPolicy("cost", Cfg));
  EXPECT_EQ(Cfg.Kind, QueryPolicyKind::CostRange);
  EXPECT_EQ(Cfg.Mellowness, 0.1);
  EXPECT_EQ(Cfg.RangeC1, 0.03);

  ASSERT_TRUE(parseQueryPolicy("cost:0.2", Cfg));
  EXPECT_EQ(Cfg.Mellowness, 0.2);
  EXPECT_EQ(Cfg.RangeC1, 0.03); // second number keeps its default
}

TEST(QueryPolicyTest, ParseRejectsMalformedTokens) {
  QueryPolicyConfig Cfg;
  for (const char *Bad : {"", "sometimes", "always:1", "alm:1:2:3",
                          "cost:x", "cost:", "alm:0.1:", "alm:inf",
                          "cost:nan", "alm:1e999"}) {
    EXPECT_FALSE(parseQueryPolicy(Bad, Cfg)) << "accepted '" << Bad << "'";
  }
}

TEST(QueryPolicyTest, AlwaysCreatesNoPolicyObject) {
  // The Always fast path must not consult any policy code at all; the
  // learner's bit-identity to pre-policy builds rests on this nullptr.
  EXPECT_EQ(QueryPolicy::create(QueryPolicyConfig()), nullptr);
  QueryPolicyConfig Cost;
  Cost.Kind = QueryPolicyKind::CostRange;
  EXPECT_NE(QueryPolicy::create(Cost), nullptr);
}

TEST(QueryPolicyTest, BinarySearchEnvelope) {
  // The admissible weight W satisfies W * (F^2 - (F - S*W)^2) <= Delta
  // (up to tolerance) and never exceeds the F/S cap.
  for (double Fhat : {0.5, 1.0, 2.0}) {
    for (double Sens : {0.01, 0.1, 1.0}) {
      for (double Delta : {1e-4, 1e-2, 1.0}) {
        double W = queryBinarySearch(Fhat, Delta, Sens, 1e-6);
        EXPECT_GE(W, 0.0);
        EXPECT_LE(W, Fhat / Sens + 1e-9);
        double Probe = Fhat - Sens * W;
        EXPECT_LE(W * (Fhat * Fhat - Probe * Probe), Delta * (1.0 + 1e-3));
      }
    }
  }
}

TEST(QueryPolicyTest, BinarySearchMonotoneInBudget) {
  // A looser regret budget admits a wider importance weight.
  double Last = 0.0;
  for (double Delta : {1e-4, 1e-3, 1e-2, 1e-1}) {
    double W = queryBinarySearch(1.0, Delta, 0.25, 1e-6);
    EXPECT_GE(W, Last);
    Last = W;
  }
  EXPECT_GT(Last, 0.0);
}

TEST(QueryPolicyTest, AlmThresholdSkipsBelowRelativeFloor) {
  QueryPolicyConfig Cfg;
  Cfg.Kind = QueryPolicyKind::AlmThreshold;
  Cfg.AbsFloor = 0.0;
  Cfg.RelFloor = 0.1;
  auto P = QueryPolicy::create(Cfg);
  ASSERT_NE(P, nullptr);

  QueryDecision D;
  D.Variance = 1.0; // establishes the peak
  EXPECT_TRUE(P->shouldQuery(D));
  D.Variance = 0.5;
  EXPECT_TRUE(P->shouldQuery(D));
  D.Variance = 0.05; // below 0.1 * peak(1.0)
  EXPECT_FALSE(P->shouldQuery(D));
  D.Variance = 2.0; // new peak
  EXPECT_TRUE(P->shouldQuery(D));
  D.Variance = 0.15; // below 0.1 * peak(2.0) now
  EXPECT_FALSE(P->shouldQuery(D));
}

TEST(QueryPolicyTest, AlmThresholdAbsoluteFloorDominates) {
  QueryPolicyConfig Cfg;
  Cfg.Kind = QueryPolicyKind::AlmThreshold;
  Cfg.AbsFloor = 1e30; // unreachable: every consultation is a skip
  auto P = QueryPolicy::create(Cfg);
  QueryDecision D;
  D.Variance = 1e6;
  EXPECT_FALSE(P->shouldQuery(D));
}

TEST(QueryPolicyTest, CostRangeBootstrapsThenSkipsSettledPredictions) {
  QueryPolicyConfig Cfg;
  Cfg.Kind = QueryPolicyKind::CostRange;
  auto P = QueryPolicy::create(Cfg);
  ASSERT_NE(P, nullptr);

  // No labels yet: no cost scale, so the policy must query.
  QueryDecision D;
  D.Mean = 5.0;
  D.Variance = 1e-12;
  D.StreamPosition = 1;
  EXPECT_TRUE(P->shouldQuery(D));

  P->onLabel(1.0);
  EXPECT_TRUE(P->shouldQuery(D)); // one label: still no range
  P->onLabel(9.0);

  // A settled prediction (tiny variance) inside a wide cost range is
  // uninformative; a highly uncertain one still buys its label.
  D.Variance = 1e-12;
  EXPECT_FALSE(P->shouldQuery(D));
  D.Variance = 64.0;
  EXPECT_TRUE(P->shouldQuery(D));
}

TEST(QueryPolicyTest, CostRangeTightensWithStreamPosition) {
  // The same marginal prediction is queried early and declined late:
  // delta_t = c0 * log(t+1)/t shrinks the admissible interval.
  QueryPolicyConfig Cfg;
  Cfg.Kind = QueryPolicyKind::CostRange;
  auto probe = [&](uint64_t T) {
    auto P = QueryPolicy::create(Cfg);
    P->onLabel(0.0);
    P->onLabel(1.0);
    QueryDecision D;
    D.Mean = 0.5;
    D.Variance = 0.002;
    D.StreamPosition = T;
    return P->shouldQuery(D);
  };
  EXPECT_TRUE(probe(1));
  EXPECT_FALSE(probe(4000));
}

TEST(QueryPolicyTest, DecisionStreamIsDeterministic) {
  // The contract serve snapshots rely on: replaying the same labels and
  // consultations yields bit-identical decisions.
  QueryPolicyConfig Cfg;
  Cfg.Kind = QueryPolicyKind::CostRange;
  auto Run = [&] {
    auto P = QueryPolicy::create(Cfg);
    std::vector<bool> Decisions;
    double Label = 0.37;
    for (uint64_t T = 1; T <= 200; ++T) {
      QueryDecision D;
      D.Mean = std::sin(double(T) * 0.7) * 3.0;
      D.Variance = std::fabs(std::cos(double(T) * 1.3)) * 0.05;
      D.StreamPosition = T;
      bool Q = P->shouldQuery(D);
      Decisions.push_back(Q);
      if (Q) {
        Label = Label * 1.1 + 0.1;
        P->onLabel(Label);
      }
    }
    return Decisions;
  };
  EXPECT_EQ(Run(), Run());
}
