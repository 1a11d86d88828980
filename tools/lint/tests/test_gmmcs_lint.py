#!/usr/bin/env python3
"""Unit tests for gmmcs_lint.py: every rule must fire on a seeded fixture
violation and stay quiet on the equivalent clean snippet.

Run directly (`python3 tools/lint/tests/test_gmmcs_lint.py`) or via the
`gmmcs_lint_selftest` ctest.
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import gmmcs_lint  # noqa: E402


class FixtureTree:
    """A throwaway repo tree: write src/<mod>/<file> snippets, get sources."""

    def __init__(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def write(self, rel, text):
        p = self.root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
        return p

    def sources(self):
        files = gmmcs_lint.collect_files(self.root, None)
        return gmmcs_lint.load_sources(self.root, files)

    def cleanup(self):
        self._tmp.cleanup()


class LintCase(unittest.TestCase):
    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    def rules(self, findings):
        return [rule for _, _, rule, _ in findings]


# ---------------------------------------------------------------------------
# Pass 1: layering.
# ---------------------------------------------------------------------------

class TestLayering(LintCase):
    def test_upward_include_is_flagged(self):
        self.tree.write("src/common/util.hpp", '#include "broker/event.hpp"\n')
        findings = gmmcs_lint.pass_layering(self.tree.sources())
        self.assertEqual(self.rules(findings), ["layering"])
        self.assertIn("upward include", findings[0][3])

    def test_downward_and_same_layer_includes_are_clean(self):
        self.tree.write("src/broker/node.hpp",
                        '#include "common/bytes.hpp"\n#include "sim/host.hpp"\n')
        self.tree.write("src/sip/agent.hpp", '#include "xgsp/messages.hpp"\n')
        self.assertEqual(gmmcs_lint.pass_layering(self.tree.sources()), [])

    def test_same_layer_cycle_is_flagged(self):
        self.tree.write("src/sim/a.hpp", '#include "transport/b.hpp"\n')
        self.tree.write("src/transport/b.hpp", '#include "sim/a.hpp"\n')
        findings = gmmcs_lint.pass_layering(self.tree.sources())
        self.assertIn("layering-cycle", self.rules(findings))
        self.assertIn("sim", findings[0][3])
        self.assertIn("transport", findings[0][3])

    def test_unknown_module_is_flagged(self):
        self.tree.write("src/rogue/x.hpp", "int x;\n")
        findings = gmmcs_lint.pass_layering(self.tree.sources())
        self.assertEqual(self.rules(findings), ["layering"])

    def test_suppression_with_reason_silences(self):
        self.tree.write(
            "src/common/util.hpp",
            '// gmmcs-lint: allow(layering): prototype shim, tracked in #42\n'
            '#include "broker/event.hpp"\n')
        self.assertEqual(gmmcs_lint.pass_layering(self.tree.sources()), [])

    def test_suppression_without_reason_is_itself_flagged(self):
        src = self.tree.write(
            "src/common/util.hpp",
            '#include "broker/event.hpp"  // gmmcs-lint: allow(layering)\n')
        sources = gmmcs_lint.load_sources(
            self.tree.root, [src])
        meta = gmmcs_lint.check_suppression_reasons(sources[0])
        self.assertEqual(self.rules(meta), ["suppression-reason"])
        # The suppression still works — only the missing reason is reported.
        self.assertEqual(gmmcs_lint.pass_layering(sources), [])


# ---------------------------------------------------------------------------
# Pass 2: result discipline.
# ---------------------------------------------------------------------------

class TestResultDiscipline(LintCase):
    def test_bound_parser_call_is_clean(self):
        self.tree.write("src/broker/node.cpp",
                        "void f(const Bytes& b) {\n"
                        "  auto frame = decode(b);\n"
                        "  if (!frame.ok()) return;\n"
                        "  use(frame.value());\n"
                        "}\n")
        self.assertEqual(gmmcs_lint.pass_result(self.tree.sources()), [])

    def test_value_without_guard_is_flagged(self):
        self.tree.write("src/broker/node.cpp",
                        "void f(const Bytes& b) {\n"
                        "  auto frame = decode(b);\n"
                        "  use(frame.value());\n"
                        "}\n")
        findings = gmmcs_lint.pass_result(self.tree.sources())
        self.assertIn("unchecked-value", self.rules(findings))

    def test_moved_value_with_guard_is_clean(self):
        self.tree.write("src/broker/node.cpp",
                        "void f(const Bytes& b) {\n"
                        "  auto frame = decode(b);\n"
                        "  if (!frame.ok()) return;\n"
                        "  use(std::move(frame).value());\n"
                        "}\n")
        self.assertEqual(gmmcs_lint.pass_result(self.tree.sources()), [])

    def test_chained_value_is_flagged(self):
        self.tree.write("src/broker/node.cpp",
                        "void f(const std::string& s) {\n"
                        "  auto v = parse_thing(s).value();\n"
                        "}\n")
        findings = gmmcs_lint.pass_result(self.tree.sources())
        self.assertIn("unchecked-value", self.rules(findings))
        self.assertIn("chained", findings[-1][3])

    def test_guard_in_previous_function_does_not_leak(self):
        self.tree.write("src/broker/node.cpp",
                        "void g(const Bytes& b) {\n"
                        "  auto frame = decode(b);\n"
                        "  if (!frame.ok()) return;\n"
                        "}\n"
                        "void f(const Bytes& b) {\n"
                        "  auto frame = decode(b);\n"
                        "  use(frame.value());\n"
                        "}\n")
        findings = gmmcs_lint.pass_result(self.tree.sources())
        self.assertIn("unchecked-value", self.rules(findings))


# ---------------------------------------------------------------------------
# Pass 3: determinism.
# ---------------------------------------------------------------------------

class TestDeterminism(LintCase):
    def check(self, text, rel="src/media/clock.cpp"):
        self.tree.write(rel, text)
        return gmmcs_lint.pass_determinism(self.tree.sources())

    def test_wall_clock_is_flagged(self):
        findings = self.check(
            "void f() { auto t = std::chrono::steady_clock::now(); }\n")
        self.assertEqual(self.rules(findings), ["wall-clock"])

    def test_sim_time_is_clean(self):
        self.assertEqual(self.check("void f() { SimTime t = loop.now(); }\n"), [])

    def test_ambient_random_is_flagged(self):
        findings = self.check("int f() { return std::rand(); }\n")
        self.assertEqual(self.rules(findings), ["ambient-random"])

    def test_ambient_random_in_its_home_is_clean(self):
        self.assertEqual(self.check(
            "#include <random>\n"
            "std::uint64_t seed_from_device() { return std::random_device{}(); }\n",
            rel="src/common/random.cpp"), [])

    def test_pointer_format_is_flagged(self):
        findings = self.check('void f(void* p) { std::printf("at %p", p); }\n')
        self.assertEqual(self.rules(findings), ["pointer-format"])

    def test_integer_format_is_clean(self):
        self.assertEqual(
            self.check('void f(int n) { std::printf("n=%d", n); }\n'), [])

    def test_raw_threading_is_flagged(self):
        findings = self.check("std::mutex mu;\n")
        self.assertEqual(self.rules(findings), ["raw-threading"])

    def test_threading_named_in_a_comment_is_clean(self):
        self.assertEqual(
            self.check("// Serial loop: no std::thread, no std::mutex.\n"), [])

    def test_raw_threading_ignores_suppressions(self):
        findings = self.check(
            "// gmmcs-lint: allow(raw-threading): a worker pool would be faster\n"
            "std::thread worker;\n"
            "// gmmcs-lint: allow(all): generated\n"
            "std::mutex mu;\n")
        self.assertEqual(self.rules(findings), ["raw-threading", "raw-threading"])

    def test_unordered_container_is_flagged(self):
        findings = self.check("#include <unordered_map>\n"
                              "std::unordered_map<int, Rec> rows_;\n"
                              "std::unordered_set<int> seen_;\n")
        self.assertEqual([(line, rule) for _, line, rule, _ in findings],
                         [(1, "unordered-iteration"), (2, "unordered-iteration"),
                          (3, "unordered-iteration")])

    def test_ordered_container_is_clean(self):
        self.assertEqual(self.check(
            "#include <map>\n"
            "std::map<int, Rec> rows_;\n"
            "void f() { for (const auto& [id, rec] : rows_) send(rec); }\n"), [])

    def test_suppressed_unordered_container_is_clean(self):
        self.assertEqual(self.check(
            "// gmmcs-lint: allow(unordered-iteration): lookup only, never iterated\n"
            "std::unordered_map<int, Rec> rows_;\n"), [])

    def test_nolint_and_det_lint_comments_do_not_suppress(self):
        # Only `gmmcs-lint: allow(...)` suppresses. A clang-tidy NOLINT
        # names clang-tidy checks, so it must not exempt its line or the
        # next from a determinism rule; the retired `det-lint:` syntax
        # waives nothing either.
        self.tree.write("src/media/jitter.cpp",
                        "int pick() {\n"
                        "  // NOLINT(readability-magic-numbers)\n"
                        "  return std::rand();\n"
                        "}\n"
                        "std::mutex mu;  // NOLINT\n"
                        "// det-lint: allow(unordered-iteration) order-free\n"
                        "std::unordered_set<int> seen_;\n")
        findings, _ = gmmcs_lint.run(self.tree.root)
        self.assertEqual([(line, rule) for _, line, rule, _ in findings],
                         [(3, "ambient-random"), (5, "raw-threading"),
                          (7, "unordered-iteration")])


# ---------------------------------------------------------------------------
# End-to-end: run() over a mixed fixture tree.
# ---------------------------------------------------------------------------

class TestRun(LintCase):
    def test_clean_tree_reports_nothing(self):
        self.tree.write("src/common/ok.hpp", "Result<int> load(int x);\n")
        self.tree.write("src/broker/use.cpp",
                        '#include "common/ok.hpp"\n'
                        "void f() {\n"
                        "  auto r = load(1);\n"
                        "  if (r.ok()) use(r.value());\n"
                        "}\n")
        findings, nfiles = gmmcs_lint.run(self.tree.root)
        self.assertEqual(findings, [])
        self.assertEqual(nfiles, 2)

    def test_dirty_tree_reports_everything_sorted(self):
        self.tree.write("src/common/bad.hpp",
                        '#include "core/app.hpp"\n'
                        "inline int roll() { return std::rand(); }\n")
        findings, _ = gmmcs_lint.run(self.tree.root)
        self.assertEqual(self.rules(findings), ["layering", "ambient-random"])
        self.assertEqual(findings, sorted(findings))


if __name__ == "__main__":
    unittest.main(verbosity=2)
