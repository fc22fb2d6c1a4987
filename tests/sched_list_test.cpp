#include "sched/list.hpp"

#include <gtest/gtest.h>

#include "apps/papergraphs.hpp"
#include "graph/builder.hpp"
#include "sched/adf.hpp"

namespace tpdf::sched {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using symbolic::Environment;

void expectValidSchedule(const CanonicalPeriod& cp, const Platform& platform,
                         const ListSchedule& ls) {
  ASSERT_EQ(ls.entries.size(), cp.size());

  // Dependencies are honoured.
  for (std::size_t v = 0; v < cp.size(); ++v) {
    for (std::size_t s : cp.successors(v)) {
      EXPECT_GE(ls.of(s).start, ls.of(v).finish - 1e-9)
          << cp.nodeName(s) << " starts before " << cp.nodeName(v)
          << " finishes";
    }
  }

  // No two occurrences overlap on one PE.
  for (const ScheduledOccurrence& a : ls.entries) {
    for (const ScheduledOccurrence& b : ls.entries) {
      if (a.node == b.node || a.pe != b.pe) continue;
      EXPECT_TRUE(a.finish <= b.start + 1e-9 || b.finish <= a.start + 1e-9)
          << cp.nodeName(a.node) << " overlaps " << cp.nodeName(b.node);
    }
  }

  // PEs stay within the platform (+1 for the dedicated control PE).
  const std::size_t maxPe =
      platform.peCount + (platform.dedicatedControlPe ? 1 : 0);
  for (const ScheduledOccurrence& e : ls.entries) {
    EXPECT_LT(e.pe, maxPe);
  }
}

TEST(ListSchedule, Figure2ValidOnFourPes) {
  const Graph g = apps::fig2Tpdf();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{{"p", 2}});
  const Platform platform{.peCount = 4};
  const ListSchedule ls = listSchedule(cp, platform);
  expectValidSchedule(cp, platform, ls);
  EXPECT_GT(ls.makespan, 0.0);
}

TEST(ListSchedule, ControlActorOnDedicatedPe) {
  const Graph g = apps::fig2Tpdf();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{{"p", 1}});
  const Platform platform{.peCount = 2, .dedicatedControlPe = true};
  const ListSchedule ls = listSchedule(cp, platform);
  // C1 (the only control occurrence) sits on the extra PE, index 2,
  // exactly like Figure 5's "C1 is mapped onto a separate PE".
  const std::size_t c1 = cp.indexOf(*g.findActor("C"), 0);
  EXPECT_EQ(ls.of(c1).pe, 2u);
  // No kernel occupies the control PE.
  for (const ScheduledOccurrence& e : ls.entries) {
    if (e.node == c1) continue;
    EXPECT_LT(e.pe, 2u);
  }
}

TEST(ListSchedule, MoreProcessorsNeverHurtMakespan) {
  const Graph g = apps::fig2Tpdf();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{{"p", 4}});
  double previous = std::numeric_limits<double>::infinity();
  for (std::size_t pes : {1u, 2u, 4u, 8u}) {
    const ListSchedule ls = listSchedule(cp, Platform{.peCount = pes});
    EXPECT_LE(ls.makespan, previous + 1e-9) << pes << " PEs";
    previous = ls.makespan;
  }
}

TEST(ListSchedule, SinglePeMakespanIsSerialTime) {
  const Graph g = apps::fig1Csdf();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  const ListSchedule ls = listSchedule(
      cp, Platform{.peCount = 1, .dedicatedControlPe = false});
  // All execution times default to 1.0; 7 occurrences → makespan 7.
  EXPECT_DOUBLE_EQ(ls.makespan, 7.0);
}

TEST(ListSchedule, ControlPriorityPrefersControlActors) {
  // A control occurrence and a kernel occurrence become ready together;
  // with rule 1 the control one is scheduled first on its PE.
  const Graph g = GraphBuilder("tie")
      .kernel("S").out("d", "[1]").out("t", "[1]")
      .control("C").in("i", "[1]").ctlOut("o", "[1]")
      .kernel("K").in("i", "[1]").ctlIn("c", "[1]")
      .channel("data", "S.d", "K.i")
      .channel("trig", "S.t", "C.i")
      .channel("ctl", "C.o", "K.c")
      .build();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  const Platform oneWorker{.peCount = 1, .dedicatedControlPe = false};
  const ListSchedule ls = listSchedule(cp, oneWorker);
  const std::size_t c = cp.indexOf(*g.findActor("C"), 0);
  const std::size_t k = cp.indexOf(*g.findActor("K"), 0);
  EXPECT_LT(ls.of(c).start, ls.of(k).start);
}

TEST(ListSchedule, ControlEdgesCarryNoLinkLatency) {
  const Graph g = GraphBuilder("latency")
      .kernel("S").out("d", "[1]").out("t", "[1]")
      .control("C").in("i", "[1]").ctlOut("o", "[1]")
      .kernel("K").in("i", "[1]").ctlIn("c", "[1]")
      .channel("data", "S.d", "K.i")
      .channel("trig", "S.t", "C.i")
      .channel("ctl", "C.o", "K.c")
      .build();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  const Platform platform{.peCount = 2, .linkLatency = 10.0,
                          .dedicatedControlPe = true};
  const ListSchedule ls = listSchedule(cp, platform);
  const std::size_t s = cp.indexOf(*g.findActor("S"), 0);
  const std::size_t k = cp.indexOf(*g.findActor("K"), 0);
  // K waits for S's data over the link (latency 10) but NOT for the
  // control token (latency-free, rule 2): start = finish(S) + 10.
  if (ls.of(k).pe != ls.of(s).pe) {
    EXPECT_DOUBLE_EQ(ls.of(k).start, ls.of(s).finish + 10.0);
  } else {
    EXPECT_GE(ls.of(k).start, ls.of(s).finish);
  }
}

TEST(ListSchedule, ZeroPesRejected) {
  const Graph g = apps::fig1Csdf();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  EXPECT_THROW(listSchedule(cp, Platform{.peCount = 0}), support::Error);
}

TEST(ListSchedule, GanttRenderingMentionsEveryPe) {
  const Graph g = apps::fig1Csdf();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{});
  const ListSchedule ls =
      listSchedule(cp, Platform{.peCount = 2, .dedicatedControlPe = false});
  const std::string text = ls.toString(cp);
  EXPECT_NE(text.find("PE0:"), std::string::npos);
  EXPECT_NE(text.find("makespan:"), std::string::npos);
  EXPECT_NE(text.find("a3"), std::string::npos);
}

// ---- Actor Dependence Function -----------------------------------------

TEST(Adf, RejectedBranchFiringsAreUnnecessary) {
  // Figure 2 with F selecting only e6 (from D): E's firings serve no one.
  const Graph g = apps::fig2Tpdf();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{{"p", 1}});
  const core::ModeSpec takeD{"take_D", core::Mode::SelectOne,
                             {*g.findPort("F.iD")}, {}};
  const std::vector<bool> unnecessary =
      unnecessaryFirings(cp, g, *g.findActor("F"), takeD);

  EXPECT_TRUE(unnecessary[cp.indexOf(*g.findActor("E"), 0)]);
  EXPECT_TRUE(unnecessary[cp.indexOf(*g.findActor("E"), 1)]);
  // Everything else still contributes.
  EXPECT_FALSE(unnecessary[cp.indexOf(*g.findActor("A"), 0)]);
  EXPECT_FALSE(unnecessary[cp.indexOf(*g.findActor("B"), 0)]);
  EXPECT_FALSE(unnecessary[cp.indexOf(*g.findActor("C"), 0)]);
  EXPECT_FALSE(unnecessary[cp.indexOf(*g.findActor("D"), 0)]);
  EXPECT_FALSE(unnecessary[cp.indexOf(*g.findActor("F"), 0)]);
}

TEST(Adf, OtherModeCancelsOtherBranch) {
  const Graph g = apps::fig2Tpdf();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{{"p", 1}});
  const core::ModeSpec takeE{"take_E", core::Mode::SelectOne,
                             {*g.findPort("F.iE")}, {}};
  const std::vector<bool> unnecessary =
      unnecessaryFirings(cp, g, *g.findActor("F"), takeE);
  EXPECT_TRUE(unnecessary[cp.indexOf(*g.findActor("D"), 0)]);
  EXPECT_FALSE(unnecessary[cp.indexOf(*g.findActor("E"), 0)]);
  // B still feeds C (control) and E: necessary.
  EXPECT_FALSE(unnecessary[cp.indexOf(*g.findActor("B"), 1)]);
}

TEST(Adf, EmptyActiveListKeepsEverything) {
  const Graph g = apps::fig2Tpdf();
  const CanonicalPeriod cp(core::AnalysisContext(g), Environment{{"p", 1}});
  const core::ModeSpec waitAll{"all", core::Mode::WaitAll, {}, {}};
  const std::vector<bool> unnecessary =
      unnecessaryFirings(cp, g, *g.findActor("F"), waitAll);
  for (std::size_t i = 0; i < cp.size(); ++i) {
    EXPECT_FALSE(unnecessary[i]) << cp.nodeName(i);
  }
}

}  // namespace
}  // namespace tpdf::sched
