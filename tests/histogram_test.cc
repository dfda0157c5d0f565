#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dpaudit {
namespace {

TEST(HistogramTest, BinsValues) {
  Histogram h(0.0, 1.0, 4);
  h.Add(0.1);   // bin 0
  h.Add(0.3);   // bin 1
  h.Add(0.3);   // bin 1
  h.Add(0.99);  // bin 3
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(2), 0u);
  EXPECT_EQ(h.bin_count(3), 1u);
}

TEST(HistogramTest, OutOfRangeClampsToEdgeBins) {
  Histogram h(0.0, 1.0, 2);
  h.Add(-5.0);
  h.Add(5.0);
  h.Add(1.0);  // exactly hi clamps into last bin
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, CentersAndFractions) {
  Histogram h(0.0, 2.0, 2);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_center(1), 1.5);
  EXPECT_DOUBLE_EQ(h.bin_fraction(0), 0.0);  // empty histogram
  h.AddAll({0.1, 0.2, 1.5, 1.6});
  EXPECT_DOUBLE_EQ(h.bin_fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_fraction(1), 0.5);
}

TEST(HistogramTest, RenderTextContainsBars) {
  Histogram h(0.0, 1.0, 2);
  h.AddAll({0.1, 0.1, 0.9});
  std::ostringstream os;
  h.RenderText(os, 10);
  std::string text = os.str();
  EXPECT_NE(text.find("##########"), std::string::npos);  // peak bin
  EXPECT_NE(text.find("2"), std::string::npos);
}

TEST(HistogramDeathTest, InvalidConstructionDies) {
  EXPECT_DEATH(Histogram(1.0, 0.0, 4), "CHECK failed");
  EXPECT_DEATH(Histogram(0.0, 1.0, 0), "CHECK failed");
}

}  // namespace
}  // namespace dpaudit
