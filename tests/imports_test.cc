// Unit tests for the static dependency analyzer (paper §V.B).
#include <gtest/gtest.h>

#include "pysrc/imports.h"
#include "pysrc/parser.h"

namespace lfm::pysrc {
namespace {

const ImportRecord* find_import(const ImportScan& scan, const std::string& module) {
  for (const auto& rec : scan.imports) {
    if (rec.module == module) return &rec;
  }
  return nullptr;
}

TEST(Imports, PlainImports) {
  const auto scan = scan_source("import numpy\nimport scipy.stats\n");
  ASSERT_EQ(scan.imports.size(), 2u);
  EXPECT_EQ(scan.imports[0].module, "numpy");
  EXPECT_EQ(scan.imports[1].module, "scipy.stats");
  EXPECT_EQ(scan.imports[1].top_level(), "scipy");
}

TEST(Imports, AliasedImports) {
  const auto scan = scan_source("import numpy as np\nfrom pandas import DataFrame as DF\n");
  EXPECT_EQ(scan.imports[0].asname, "np");
  EXPECT_EQ(scan.imports[1].name, "DataFrame");
  EXPECT_EQ(scan.imports[1].asname, "DF");
}

TEST(Imports, FromImports) {
  const auto scan = scan_source("from sklearn.cluster import KMeans, DBSCAN\n");
  ASSERT_EQ(scan.imports.size(), 2u);
  EXPECT_EQ(scan.imports[0].module, "sklearn.cluster");
  EXPECT_EQ(scan.imports[0].name, "KMeans");
  EXPECT_EQ(scan.imports[0].top_level(), "sklearn");
}

TEST(Imports, RelativeImportsExcludedFromTopLevel) {
  const auto scan = scan_source("from . import sibling\nfrom ..pkg import mod\n");
  EXPECT_EQ(scan.imports.size(), 2u);
  EXPECT_EQ(scan.imports[0].level, 1);
  EXPECT_EQ(scan.imports[1].level, 2);
  EXPECT_TRUE(scan.top_level_packages().empty());
}

TEST(Imports, StarImportFlaggedWithWarning) {
  const auto scan = scan_source("from numpy import *\n");
  ASSERT_EQ(scan.imports.size(), 1u);
  EXPECT_TRUE(scan.imports[0].star);
  ASSERT_FALSE(scan.diagnostics.empty());
  EXPECT_EQ(scan.diagnostics[0].severity, Diagnostic::Severity::kWarning);
}

TEST(Imports, ConditionalImportsMarked) {
  const auto scan = scan_source(
      "if use_gpu:\n    import cupy\nelse:\n    import numpy\n");
  const auto* cupy = find_import(scan, "cupy");
  ASSERT_NE(cupy, nullptr);
  EXPECT_TRUE(cupy->conditional);
}

TEST(Imports, TryExceptImportErrorGuarded) {
  const auto scan = scan_source(
      "try:\n    import ujson as json\nexcept ImportError:\n    import json\n");
  const auto* ujson = find_import(scan, "ujson");
  ASSERT_NE(ujson, nullptr);
  EXPECT_TRUE(ujson->guarded);
  const auto* fallback = find_import(scan, "json");
  ASSERT_NE(fallback, nullptr);
  EXPECT_TRUE(fallback->conditional);  // handler body
}

TEST(Imports, TryExceptOtherErrorNotGuarded) {
  const auto scan = scan_source(
      "try:\n    import numpy\nexcept KeyError:\n    pass\n");
  const auto* rec = find_import(scan, "numpy");
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->guarded);
}

TEST(Imports, FunctionScopedImportsMarked) {
  const auto scan = scan_source("def f():\n    import torch\n    return torch\n");
  const auto* rec = find_import(scan, "torch");
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->in_function);
}

TEST(Imports, ClassScopedImportsMarked) {
  const auto scan = scan_source("class C:\n    import abc\n");
  const auto* rec = find_import(scan, "abc");
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->in_class);
}

TEST(Imports, DynamicImportLiteral) {
  const auto scan = scan_source(
      "mod = __import__('tensorflow')\n"
      "other = importlib.import_module('mxnet')\n");
  const auto* tf = find_import(scan, "tensorflow");
  ASSERT_NE(tf, nullptr);
  EXPECT_TRUE(tf->dynamic);
  const auto* mx = find_import(scan, "mxnet");
  ASSERT_NE(mx, nullptr);
  EXPECT_TRUE(mx->dynamic);
}

TEST(Imports, DynamicImportFoundInEveryStatementForm) {
  // A statement's own expressions run in the statement's context: the `if`
  // header runs whatever the condition says, the body only when it holds;
  // a default, a decorator and a base run where the def or class stands.
  const char* src = R"(
if __import__('in_if_header'):
    __import__('in_if_body')
for item in __import__('in_for_header'):
    pass
while __import__('in_while_header'):
    break
with __import__('in_with_header') as handle:
    pass
total += __import__('in_aug_assign')
typed: int = __import__('in_ann_assign')
assert __import__('in_assert')
raise __import__('in_raise')
def f(arg=__import__('in_default')):
    pass
@__import__('in_decorator')
def g():
    pass
class C(__import__('in_class_base')):
    pass
)";
  const auto scan = scan_source(src);
  for (const char* module :
       {"in_if_header", "in_if_body", "in_for_header", "in_while_header",
        "in_with_header", "in_aug_assign", "in_ann_assign", "in_assert", "in_raise",
        "in_default", "in_decorator", "in_class_base"}) {
    int found = 0;
    for (const auto& rec : scan.imports) {
      if (rec.module != module) continue;
      ++found;
      EXPECT_TRUE(rec.dynamic) << module;
      EXPECT_FALSE(rec.in_function) << module;
      EXPECT_FALSE(rec.in_class) << module;
    }
    EXPECT_EQ(found, 1) << module;
  }
  ASSERT_NE(find_import(scan, "in_if_header"), nullptr);
  EXPECT_FALSE(find_import(scan, "in_if_header")->conditional);
  ASSERT_NE(find_import(scan, "in_if_body"), nullptr);
  EXPECT_TRUE(find_import(scan, "in_if_body")->conditional);
  EXPECT_TRUE(scan.diagnostics.empty());
}

TEST(Imports, DynamicImportNonLiteralWarns) {
  const auto scan = scan_source("mod = __import__(name)\n");
  EXPECT_TRUE(scan.imports.empty());
  ASSERT_FALSE(scan.diagnostics.empty());
  EXPECT_NE(scan.diagnostics[0].message.find("dynamic import"), std::string::npos);
}

TEST(Imports, TopLevelPackagesDeduplicated) {
  const auto scan = scan_source(
      "import numpy\nfrom numpy import array\nimport numpy.linalg\n");
  const auto pkgs = scan.top_level_packages();
  EXPECT_EQ(pkgs, (std::set<std::string>{"numpy"}));
}

TEST(Imports, ExternalPackagesFiltersStdlib) {
  const auto scan = scan_source(
      "import os\nimport sys\nimport json\nimport numpy\nimport coffea\n");
  const auto ext = scan.external_packages(default_stdlib_modules());
  EXPECT_EQ(ext, (std::set<std::string>{"numpy", "coffea"}));
}

TEST(Imports, ScanFunctionIsolation) {
  const char* src = R"(
import module_level_dep

def target():
    import numpy
    from scipy import stats
    return stats.norm(0, 1)

def other():
    import pandas
)";
  const Module m = parse_module(src);
  const auto scan = scan_function(m, "target");
  const auto pkgs = scan.top_level_packages();
  // Only the target function's imports; neither module-level nor sibling.
  EXPECT_EQ(pkgs, (std::set<std::string>{"numpy", "scipy"}));
}

TEST(Imports, ScanFunctionMissingFunctionErrors) {
  const Module m = parse_module("x = 1\n");
  const auto scan = scan_function(m, "nope");
  ASSERT_EQ(scan.diagnostics.size(), 1u);
  EXPECT_EQ(scan.diagnostics[0].severity, Diagnostic::Severity::kError);
}

TEST(Imports, ScanFunctionParslConventionViolation) {
  const char* src = R"(
def f():
    import numpy
    x = numpy.zeros(3)
    import scipy
    return x
)";
  const Module m = parse_module(src);
  const auto scan = scan_function(m, "f");
  EXPECT_EQ(scan.imports.size(), 2u);
  ASSERT_EQ(scan.diagnostics.size(), 1u);
  EXPECT_NE(scan.diagnostics[0].message.find("start of the function"), std::string::npos);
}

TEST(Imports, ScanFunctionDocstringAllowedBeforeImports) {
  const char* src =
      "def f():\n    \"\"\"doc\"\"\"\n    import numpy\n    return numpy\n";
  const Module m = parse_module(src);
  const auto scan = scan_function(m, "f");
  EXPECT_TRUE(scan.diagnostics.empty());
}

TEST(Imports, ScanFunctionInsideClass) {
  const char* src = R"(
class Pipeline:
    def stage(self):
        import pandas
        return pandas
)";
  const Module m = parse_module(src);
  const auto scan = scan_function(m, "stage");
  EXPECT_EQ(scan.top_level_packages(), (std::set<std::string>{"pandas"}));
}

TEST(Imports, NestedControlFlowDeepScan) {
  const char* src = R"(
for i in range(3):
    while cond:
        with ctx:
            import deep_dep
)";
  const auto scan = scan_source(src);
  EXPECT_NE(find_import(scan, "deep_dep"), nullptr);
}

TEST(Imports, StdlibListSanity) {
  const auto& stdlib = default_stdlib_modules();
  EXPECT_TRUE(stdlib.count("os"));
  EXPECT_TRUE(stdlib.count("multiprocessing"));
  EXPECT_FALSE(stdlib.count("numpy"));
  EXPECT_FALSE(stdlib.count("parsl"));
}

TEST(Imports, TheDrugScreeningExample) {
  // A realistic function from the paper's drug-screening pipeline.
  const char* src = R"(
def featurize(smiles_batch):
    import numpy as np
    from rdkit import Chem
    from rdkit.Chem import AllChem
    import mordred
    mols = [Chem.MolFromSmiles(s) for s in smiles_batch]
    fps = [AllChem.GetMorganFingerprintAsBitVect(m, 2) for m in mols]
    return np.stack([np.asarray(fp) for fp in fps])
)";
  const Module m = parse_module(src);
  const auto scan = scan_function(m, "featurize");
  EXPECT_EQ(scan.top_level_packages(),
            (std::set<std::string>{"numpy", "rdkit", "mordred"}));
  EXPECT_TRUE(scan.diagnostics.empty());
}

}  // namespace
}  // namespace lfm::pysrc
