#!/usr/bin/env python3
"""Unit tests for gmon_lines.fold on synthetic addr2line chains.

Run directly (`python3 tools/profile/test_gmon_lines.py`) or via the
`gmon_lines_selftest` ctest.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gmon_lines  # noqa: E402

ROOT = "/repo"


class FoldTest(unittest.TestCase):
    def test_named_repository_frame_keeps_its_function(self):
        chain = [("std::vector<int>::size", "/usr/include/c++/12/bits/stl_vector.h", "919"),
                 ("gmmcs::sim::EventLoop::run", f"{ROOT}/src/sim/event_loop.cpp", "88")]
        self.assertEqual(gmon_lines.fold(chain, ROOT),
                         ("src/sim", "src/sim/event_loop.cpp:88", "gmmcs::sim::EventLoop::run"))

    def test_lambda_frames_split_by_their_sample_line(self):
        def chain(line):
            return [("std::__invoke", "/usr/include/c++/12/bits/invoke.h", "61"),
                    ("operator()", f"{ROOT}/src/broker/broker_node.cpp", line),
                    ("gmmcs::SmallFn::call", f"{ROOT}/src/common/small_fn.hpp", "40")]
        first = gmon_lines.fold(chain("270"), ROOT)
        second = gmon_lines.fold(chain("341"), ROOT)
        self.assertEqual(first, ("src/broker", "src/broker/broker_node.cpp:270",
                                 "operator() [src/broker/broker_node.cpp:270]"))
        self.assertEqual(second[2], "operator() [src/broker/broker_node.cpp:341]")

    def test_lambda_outside_the_repository_takes_the_nearest_named_function(self):
        chain = [("operator()", "/usr/include/c++/12/bits/std_function.h", "290"),
                 ("operator()", "/usr/include/c++/12/bits/invoke.h", "61"),
                 ("__memmove_avx_unaligned_erms", "??", "0")]
        self.assertEqual(gmon_lines.fold(chain, ROOT),
                         ("libc memcpy", "__memmove_avx_unaligned_erms",
                          "__memmove_avx_unaligned_erms"))

    def test_unnamed_chain_is_other(self):
        self.assertEqual(gmon_lines.fold([], ROOT), ("other", "??", "??"))
        self.assertEqual(gmon_lines.fold([("operator()", "??", "0")], ROOT),
                         ("other", "operator()", "operator()"))


if __name__ == "__main__":
    unittest.main()
