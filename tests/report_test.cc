#include "core/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/dpsgd.h"

namespace dpaudit {
namespace {

PrivacyPlan TestPlan() {
  IdentifiabilityRequirement requirement;
  requirement.bound = 0.9;
  requirement.delta = 0.001;
  requirement.steps = 30;
  return *MakePrivacyPlan(requirement);
}

DiExperimentSummary TestSummary(double belief) {
  DiExperimentSummary summary;
  DiTrialResult win;
  win.trained_on_d = true;
  win.adversary_says_d = true;
  win.final_belief_d = belief;
  win.max_belief_d = belief;
  win.steps.resize(2);
  for (StepRecord& step : win.steps) {
    step.sigma = 1.0;
    step.local_sensitivity = 0.5;
  }
  DiTrialResult loss = win;
  loss.adversary_says_d = false;
  loss.final_belief_d = 0.4;
  loss.max_belief_d = 0.55;
  summary.trials = {win, win, win, loss};
  return summary;
}

TEST(BuildAuditReportTest, PopulatesEveryField) {
  auto report = BuildAuditReport(TestPlan(), TestSummary(0.7), "unit blob");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->repetitions, 4u);
  EXPECT_DOUBLE_EQ(report->empirical_advantage, 0.5);
  EXPECT_DOUBLE_EQ(report->max_belief, 0.7);
  EXPECT_DOUBLE_EQ(report->empirical_delta, 0.0);
  EXPECT_GT(report->epsilons.epsilon_from_sensitivities, 0.0);
  EXPECT_EQ(report->dataset_description, "unit blob");
}

TEST(BuildAuditReportTest, RejectsEmptySummary) {
  DiExperimentSummary empty;
  EXPECT_FALSE(BuildAuditReport(TestPlan(), empty, "x").ok());
}

TEST(AuditReportDocumentTest, MarkdownContainsSections) {
  auto report = BuildAuditReport(TestPlan(), TestSummary(0.7), "blob data");
  ASSERT_TRUE(report.ok());
  std::string md = report->ToMarkdown();
  EXPECT_NE(md.find("# DPSGD identifiability audit"), std::string::npos);
  EXPECT_NE(md.find("## Privacy plan"), std::string::npos);
  EXPECT_NE(md.find("## Empirical audit"), std::string::npos);
  EXPECT_NE(md.find("## Empirical privacy loss"), std::string::npos);
  EXPECT_NE(md.find("## Verdict"), std::string::npos);
  EXPECT_NE(md.find("blob data"), std::string::npos);
  EXPECT_NE(md.find("rho_beta"), std::string::npos);
}

TEST(AuditReportDocumentTest, VerdictCategories) {
  AuditReportDocument document;
  document.plan = TestPlan();
  document.epsilons.epsilon_from_sensitivities = document.plan.dp.epsilon;
  EXPECT_NE(document.Verdict().find("TIGHT"), std::string::npos);
  document.epsilons.epsilon_from_sensitivities =
      0.3 * document.plan.dp.epsilon;
  EXPECT_NE(document.Verdict().find("LOOSE"), std::string::npos);
  document.epsilons.epsilon_from_sensitivities =
      1.5 * document.plan.dp.epsilon;
  EXPECT_NE(document.Verdict().find("OVER BUDGET"), std::string::npos);
}

TEST(WriteAuditReportTest, WritesFile) {
  auto report = BuildAuditReport(TestPlan(), TestSummary(0.6), "file test");
  ASSERT_TRUE(report.ok());
  std::string path = ::testing::TempDir() + "/dpaudit_report_test.md";
  ASSERT_TRUE(WriteAuditReport(path, *report).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("## Verdict"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dpaudit
