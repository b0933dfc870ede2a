// Tests for dependency planning: analyzer -> pinned requirements -> minimal
// environment (the paper's Parsl/static-analysis integration).
#include <gtest/gtest.h>

#include "flow/plan.h"
#include "pkg/index.h"

namespace lfm::flow {
namespace {

const pkg::PackageIndex& index() {
  const pkg::PackageIndex& idx = pkg::standard_index();
  return idx;
}

TEST(Plan, FunctionPlanPinsInstalledVersions) {
  const char* src = R"(
def analyze(events):
    import numpy as np
    import coffea
    hist = np.histogram(events)
    return coffea.process(hist)
)";
  const auto plan = plan_function_dependencies(src, "analyze", index());
  EXPECT_EQ(plan.import_names, (std::set<std::string>{"numpy", "coffea"}));
  // python + numpy + coffea, pinned exactly.
  bool saw_numpy = false, saw_python = false;
  for (const auto& req : plan.requirements) {
    if (req.name == "numpy") {
      saw_numpy = true;
      EXPECT_EQ(req.str(), "numpy==1.19.2");
    }
    if (req.name == "python") saw_python = true;
  }
  EXPECT_TRUE(saw_numpy);
  EXPECT_TRUE(saw_python);
}

TEST(Plan, StdlibImportsExcluded) {
  const char* src = "def f():\n    import os\n    import json\n    return 1\n";
  const auto plan = plan_function_dependencies(src, "f", index());
  EXPECT_TRUE(plan.import_names.empty());
  // Only the interpreter remains.
  ASSERT_EQ(plan.requirements.size(), 1u);
  EXPECT_EQ(plan.requirements[0].name, "python");
}

TEST(Plan, ImportAliasTranslation) {
  const char* src = "def f():\n    import sklearn\n    return sklearn\n";
  const auto plan = plan_function_dependencies(src, "f", index());
  bool saw = false;
  for (const auto& req : plan.requirements) {
    if (req.name == "scikit-learn") saw = true;
  }
  EXPECT_TRUE(saw) << "sklearn import should map to the scikit-learn package";
}

TEST(Plan, UnknownImportProducesWarning) {
  const char* src = "def f():\n    import not_a_real_pkg\n    return 1\n";
  const auto plan = plan_function_dependencies(src, "f", index());
  bool warned = false;
  for (const auto& d : plan.diagnostics) {
    if (d.message.find("not_a_real_pkg") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(Plan, ModulePlanSeesAllImports) {
  const char* src = R"(
import pandas

def f():
    import numpy
    return numpy
)";
  const auto module_plan = plan_module_dependencies(src, index());
  EXPECT_EQ(module_plan.import_names, (std::set<std::string>{"pandas", "numpy"}));
  const auto fn_plan = plan_function_dependencies(src, "f", index());
  EXPECT_EQ(fn_plan.import_names, (std::set<std::string>{"numpy"}));
}

TEST(Plan, BuildEnvironmentSolvesClosure) {
  const char* src = "def f():\n    import tensorflow as tf\n    return tf\n";
  const auto plan = plan_function_dependencies(src, "f", index());
  const auto env = build_environment("tf-fn", plan, index());
  ASSERT_TRUE(env.ok());
  EXPECT_GT(env.value().package_count(), 15u);
  EXPECT_NE(env.value().requirements_txt().find("tensorflow==2.3.1"),
            std::string::npos);
}

TEST(Plan, MinimalEnvironmentIsSmallerThanKitchenSink) {
  // The §V.B motivation: per-function environments are much smaller than
  // the user's full installation.
  const char* light_src = "def f():\n    import six\n    return six\n";
  const char* heavy_src = "def f():\n    import tensorflow\n    return tensorflow\n";
  const auto light =
      build_environment("light", plan_function_dependencies(light_src, "f", index()), index());
  const auto heavy =
      build_environment("heavy", plan_function_dependencies(heavy_src, "f", index()), index());
  ASSERT_TRUE(light.ok());
  ASSERT_TRUE(heavy.ok());
  EXPECT_LT(light.value().total_size(), heavy.value().total_size() / 5);
}

TEST(Plan, MissingFunctionSurfacesErrorDiagnostic) {
  const auto plan = plan_function_dependencies("x = 1\n", "ghost", index());
  ASSERT_FALSE(plan.diagnostics.empty());
  EXPECT_EQ(plan.diagnostics[0].severity, pysrc::Diagnostic::Severity::kError);
  EXPECT_TRUE(plan.import_names.empty());
}

TEST(Plan, DefaultAliasesCoverCommonCases) {
  const auto& aliases = default_import_aliases();
  EXPECT_EQ(aliases.at("sklearn"), "scikit-learn");
  EXPECT_EQ(aliases.at("PIL"), "pillow");
  EXPECT_EQ(aliases.at("work_queue"), "work-queue");
}

TEST(Plan, RealisticHepFunctionEndToEnd) {
  const char* src = R"(
@python_app
def process_events(chunk):
    import numpy as np
    import coffea
    from coffea import hist
    import awkward
    events = awkward.from_buffers(chunk)
    h = hist.Hist("pt")
    h.fill(pt=np.asarray(events))
    return h
)";
  const auto plan = plan_function_dependencies(src, "process_events", index());
  EXPECT_EQ(plan.import_names,
            (std::set<std::string>{"numpy", "coffea", "awkward"}));
  const auto env = build_environment("hep", plan, index());
  ASSERT_TRUE(env.ok());
  // The HEP env contains the coffea stack but NOT tensorflow.
  EXPECT_NE(env.value().requirements_txt().find("coffea"), std::string::npos);
  EXPECT_EQ(env.value().requirements_txt().find("tensorflow"), std::string::npos);
}


TEST(Plan, NonSelfContainedFunctionWarns) {
  const char* src = R"(
WEIGHTS = load_weights()

def predict(batch):
    import numpy
    return WEIGHTS @ numpy.asarray(batch)
)";
  const auto plan = plan_function_dependencies(src, "predict", index());
  bool warned = false;
  for (const auto& d : plan.diagnostics) {
    if (d.message.find("WEIGHTS") != std::string::npos &&
        d.message.find("undefined on the worker") != std::string::npos) {
      warned = true;
    }
  }
  EXPECT_TRUE(warned);
}

TEST(Plan, FunctionUnderAModuleLevelIfIsCheckedForSelfContainment) {
  // The import scan and the scope check find the def under the `if` alike:
  // the plan warns as it does for the same def at top level.
  const char* src = "X = 3\nif True:\n    def f(a):\n        return a + X\n";
  const auto plan = plan_function_dependencies(src, "f", index());
  ASSERT_EQ(plan.diagnostics.size(), 1u);
  EXPECT_NE(plan.diagnostics[0].message.find("references 'X' from enclosing scope"),
            std::string::npos)
      << plan.diagnostics[0].message;
}

TEST(Plan, DynamicImportInALoopHeaderIsPlanned) {
  // The loop's condition imports scipy on every pass: the worker needs it.
  const char* src = R"(
def fit(xs):
    while __import__('scipy').optimize.step(xs):
        xs = xs[1:]
    return xs
)";
  const auto plan = plan_function_dependencies(src, "fit", index());
  EXPECT_EQ(plan.import_names, (std::set<std::string>{"scipy"}));
  bool saw_scipy = false;
  for (const auto& req : plan.requirements) {
    if (req.name == "scipy") saw_scipy = true;
  }
  EXPECT_TRUE(saw_scipy);
}

}  // namespace
}  // namespace lfm::flow
