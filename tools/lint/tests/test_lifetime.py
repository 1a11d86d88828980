#!/usr/bin/env python3
"""Unit tests for the gmmcs-lint lifetime pass (pass 7, DESIGN.md §14).

Deferred-capture escape analysis: every callable handed to a deferred
sink (EventLoop::schedule_*, ServiceCenter::submit, callback-storing
methods found by the may-defer fixpoint) has its captures classified;
raw pointers / references / `this` escaping the registering frame are
findings unless the pointee is GMMCS_PINNED or one of the structural
carve-outs proves the capture cannot outlive its object.

The flagship fixture replays the PR 7 kPing use-after-free (a deferred
pong job capturing a raw StreamConnection* that ghost eviction freed
first — the bug this pass exists to make statically impossible); its
runtime twin is tests/lifetime_regression_test.cpp, which reconstructs
the same shape under ASan and asserts the weak_ptr fix survives.

Run directly (`python3 tools/lint/tests/test_lifetime.py`) or via the
`gmmcs_lint_lifetime_selftest` ctest.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent))
import gmmcs_lint  # noqa: E402
from test_gmmcs_lint import LintCase  # noqa: E402

# A minimal event-loop surface: schedule_at/schedule_after/cancel/run.
# The sink names are the seed inventory, so no annotation is needed —
# any call spelled schedule_*(..., fn) defers `fn`.
LOOP_HEADER = """
#pragma once
using SmallFn = std::function<void()>;
class EventLoop {
 public:
  int schedule_at(int when, SmallFn fn);
  int schedule_after(int delay, SmallFn fn);
  void cancel(int id);
  void run();
};
"""

# A connection whose on_message STORES its callable: the may-defer
# fixpoint must promote on_message to a sink.
CONN_HEADER = """
#pragma once
#include "sim/loop.hpp"
class Conn {
 public:
  void on_message(SmallFn fn) { fn_ = std::move(fn); }
  void send();
  SmallFn fn_;
};
"""


class LifetimeCase(LintCase):
    def lint(self):
        return gmmcs_lint.pass_lifetime(self.tree.sources())

    def write_loop(self):
        self.tree.write("src/sim/loop.hpp", LOOP_HEADER)

    def write_conn(self):
        self.write_loop()
        self.tree.write("src/transport/conn.hpp", CONN_HEADER)


class TestSinkInventory(LifetimeCase):
    def test_raw_this_into_schedule_at_is_flagged(self):
        self.write_loop()
        self.tree.write("src/broker/b.hpp", """
#include "sim/loop.hpp"
class Broker {
 public:
  void kick() { loop_->schedule_at(5, [this] { tick(); }); }
  void tick();
  EventLoop* loop_;
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertIn("raw `this`", findings[0][3])
        self.assertIn("schedule_at", findings[0][3])

    def test_pinned_class_this_is_clean(self):
        self.write_loop()
        self.tree.write("src/broker/b.hpp", """
#include "sim/loop.hpp"
class GMMCS_PINNED("broker outlives the run") Broker {
 public:
  void kick() { loop_->schedule_at(5, [this] { tick(); }); }
  void tick();
  EventLoop* loop_;
};
""")
        self.assertEqual(self.lint(), [])

    def test_empty_pin_reason_is_flagged(self):
        self.write_loop()
        self.tree.write("src/broker/b.hpp", """
#include "sim/loop.hpp"
class GMMCS_PINNED("") Broker {
 public:
  void tick();
  EventLoop* loop_;
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertIn("no reason string", findings[0][3])

    def test_fixpoint_promotes_callback_registrar(self):
        """on_message stores its SmallFn into a member, so it defers
        work: a raw `this` flowing into it must be flagged even though
        on_message is not a seed sink."""
        self.write_conn()
        self.tree.write("src/broker/b.cpp", """
#include "transport/conn.hpp"
class Broker {
 public:
  void attach(Conn& peer) {
    peer.on_message([this] { route(); });
  }
  void route();
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertIn("on_message", findings[0][3])

    def test_fixpoint_propagates_through_wrapper(self):
        """A function that forwards its callable into a known sink is
        itself a sink (two-hop fixpoint)."""
        self.write_conn()
        self.tree.write("src/broker/hook.hpp", """
#include "transport/conn.hpp"
class Hub {
 public:
  void hook(SmallFn f) { conn_.on_message(std::move(f)); }
  Conn conn_;
};
""")
        self.tree.write("src/broker/b.cpp", """
#include "broker/hook.hpp"
class Broker {
 public:
  void attach(Hub& hub) { hub.hook([this] { route(); }); }
  void route();
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertIn("hook", findings[0][3])

    def test_immediately_invoked_callable_param_is_not_a_sink(self):
        """A function that only CALLS its callable parameter does not
        defer it; passing `this` in is fine."""
        self.write_loop()
        self.tree.write("src/broker/each.hpp", """
#include "sim/loop.hpp"
class Walker {
 public:
  void each(SmallFn f) { f(); }
};
""")
        self.tree.write("src/broker/b.cpp", """
#include "broker/each.hpp"
class Broker {
 public:
  void visit(Walker& w) { w.each([this] { route(); }); }
  void route();
};
""")
        self.assertEqual(self.lint(), [])


class TestCaptureClassification(LifetimeCase):
    def test_capture_everything_by_reference_is_flagged(self):
        self.write_loop()
        self.tree.write("src/broker/b.cpp", """
#include "sim/loop.hpp"
void drive(EventLoop& loop) {
  int hits = 0;
  loop.schedule_at(1, [&] { ++hits; });
}
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertIn("[&]", findings[0][3])

    def test_default_copy_capture_in_member_function_is_flagged(self):
        """[=] in a member function implicitly copies raw `this`."""
        self.write_loop()
        self.tree.write("src/broker/b.hpp", """
#include "sim/loop.hpp"
class Broker {
 public:
  void kick() { loop_->schedule_at(5, [=] { tick(); }); }
  void tick();
  EventLoop* loop_;
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertIn("[=]", findings[0][3])

    def test_star_this_copy_is_clean(self):
        self.write_loop()
        self.tree.write("src/broker/b.hpp", """
#include "sim/loop.hpp"
class Probe {
 public:
  void kick() { loop_->schedule_at(5, [*this] { }); }
  EventLoop* loop_;
};
""")
        self.assertEqual(self.lint(), [])

    def test_shared_ptr_copy_capture_is_clean(self):
        self.write_loop()
        self.tree.write("src/broker/b.cpp", """
#include "sim/loop.hpp"
void drive(EventLoop& loop) {
  auto state = std::make_shared<int>(0);
  loop.schedule_at(1, [state] { ++*state; });
}
""")
        self.assertEqual(self.lint(), [])

    def test_weak_ptr_init_capture_is_clean(self):
        self.write_conn()
        self.tree.write("src/broker/b.cpp", """
#include "transport/conn.hpp"
void drive(EventLoop& loop) {
  auto conn = std::make_shared<Conn>();
  loop.schedule_at(1, [w = std::weak_ptr(conn)] {
    auto c = w.lock();
    if (!c) return;
    c->send();
  });
}
""")
        self.assertEqual(self.lint(), [])

    def test_reference_capture_of_local_is_flagged(self):
        self.write_loop()
        self.tree.write("src/broker/b.cpp", """
#include "sim/loop.hpp"
void drive(EventLoop& loop) {
  int counter = 0;
  loop.schedule_at(1, [&counter] { ++counter; });
}
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertIn("&counter", findings[0][3])

    def test_raw_pointer_from_shared_get_is_flagged(self):
        self.write_conn()
        self.tree.write("src/broker/b.cpp", """
#include "transport/conn.hpp"
void drive(EventLoop& loop) {
  auto conn = std::make_shared<Conn>();
  loop.schedule_at(1, [p = conn.get()] { p->send(); });
}
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertIn("kPing", findings[0][3])

    def test_named_lambda_passed_by_name_is_resolved(self):
        self.write_loop()
        self.tree.write("src/broker/b.hpp", """
#include "sim/loop.hpp"
class Broker {
 public:
  void kick() {
    auto job = [this] { tick(); };
    loop_->schedule_at(1, job);
  }
  void tick();
  EventLoop* loop_;
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertIn("raw `this`", findings[0][3])

    def test_factory_return_type_resolves_source(self):
        """`auto c = make_conn()` resolves through the factory's declared
        shared_ptr return type, so the raw .get() capture is both flagged
        and mechanically fixable."""
        self.write_conn()
        self.tree.write("src/broker/b.cpp", """
#include "transport/conn.hpp"
std::shared_ptr<Conn> make_conn() { return std::make_shared<Conn>(); }
void drive(EventLoop& loop) {
  auto conn = make_conn();
  loop.schedule_at(1, [p = conn.get()] { p->send(); });
}
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertTrue(gmmcs_lint.LIFETIME_FIXES, "expected a weak_ptr fix")


class TestCarveOuts(LifetimeCase):
    def test_registration_on_self_is_clean(self):
        """A raw pointer derived from the very object the callable is
        stored on cannot outlive its storage slot."""
        self.write_conn()
        self.tree.write("src/broker/b.cpp", """
#include "transport/conn.hpp"
void wire(Conn& ignored) {
  auto conn = std::make_shared<Conn>();
  conn->on_message([raw = conn.get()] { raw->send(); });
}
""")
        self.assertEqual(self.lint(), [])

    def test_cancel_discipline_is_clean(self):
        """TaskId stored in a member the class cancels in teardown: the
        deferred callable never runs after the object dies."""
        self.write_loop()
        self.tree.write("src/broker/b.hpp", """
#include "sim/loop.hpp"
class Prober {
 public:
  void arm() { probe_id_ = loop_->schedule_after(10, [this] { fire(); }); }
  ~Prober() { loop_->cancel(probe_id_); }
  void fire();
  EventLoop* loop_;
  int probe_id_ = 0;
};
""")
        self.assertEqual(self.lint(), [])

    def test_cancel_of_unrelated_member_is_not_enough(self):
        self.write_loop()
        self.tree.write("src/broker/b.hpp", """
#include "sim/loop.hpp"
class Prober {
 public:
  void arm() { probe_id_ = loop_->schedule_after(10, [this] { fire(); }); }
  ~Prober() { loop_->cancel(other_id_); }
  void fire();
  EventLoop* loop_;
  int probe_id_ = 0;
  int other_id_ = 0;
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])

    def test_bind_with_unbind_release_is_clean(self):
        """bind-style sinks: a class that also unbinds releases its
        handler on its own teardown path."""
        self.write_loop()
        self.tree.write("src/transport/l.hpp", """
#include "sim/loop.hpp"
class Host {
 public:
  void bind(int port, SmallFn fn);
  void unbind(int port);
};
class Listener {
 public:
  void start() { host_->bind(port_, [this] { accept(); }); }
  ~Listener() { host_->unbind(port_); }
  void accept();
  Host* host_;
  int port_ = 0;
};
""")
        self.assertEqual(self.lint(), [])

    def test_bind_without_unbind_is_flagged(self):
        self.write_loop()
        self.tree.write("src/transport/l.hpp", """
#include "sim/loop.hpp"
class Host {
 public:
  void bind(int port, SmallFn fn);
  void unbind(int port);
};
class Leaker {
 public:
  void start() { host_->bind(port_, [this] { accept(); }); }
  void accept();
  Host* host_;
  int port_ = 0;
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])

    def test_drain_after_registration_is_clean(self):
        """The bench/driver shape: register work, then run the loop to
        completion before the frame's locals die."""
        self.write_loop()
        self.tree.write("src/broker/b.cpp", """
#include "sim/loop.hpp"
void experiment(EventLoop& loop) {
  int hits = 0;
  loop.schedule_at(1, [&hits] { ++hits; });
  loop.run();
}
""")
        self.assertEqual(self.lint(), [])

    def test_self_storage_sink_is_clean(self):
        """Storing a `this`-capture into a member slot of this very
        object: the callable dies with the object."""
        self.write_loop()
        self.tree.write("src/broker/b.hpp", """
#include "sim/loop.hpp"
class Player {
 public:
  void on_done(SmallFn f) { done_ = std::move(f); }
  void start() { on_done([this] { reset(); }); }
  void reset();
  SmallFn done_;
};
""")
        self.assertEqual(self.lint(), [])

    def test_exclusive_receiver_member_is_clean(self):
        """The sink object is a value member of the capturing class: the
        stored callable cannot outlive `this`."""
        self.write_conn()
        self.tree.write("src/broker/b.hpp", """
#include "transport/conn.hpp"
class Session {
 public:
  void start() { conn_.on_message([this] { route(); }); }
  void route();
  Conn conn_;
};
""")
        self.assertEqual(self.lint(), [])

    def test_suppression_with_reason_silences(self):
        self.write_loop()
        self.tree.write("src/broker/b.cpp", """
#include "sim/loop.hpp"
void drive(EventLoop& loop) {
  int hits = 0;
  // gmmcs-lint: allow(lifetime): loop drained by caller before return
  loop.schedule_at(1, [&hits] { ++hits; });
}
""")
        self.assertEqual(self.lint(), [])


# The PR 7 kPing bug, reduced: ghost eviction erases the shared_ptr from
# the peer table while a pong replying to kPing is still queued; the
# deferred job's raw StreamConnection* then dangles. The runtime twin
# (tests/lifetime_regression_test.cpp) executes this exact shape under
# ASan and asserts the weak_ptr rewrite survives eviction.
KPING_BROKEN = """
#include "transport/conn.hpp"
class Fabric {
 public:
  void pong(int peer) {
    auto conn = table_[peer];
    loop_->schedule_after(3, [c = conn.get()] { c->send(); });
  }
  void evict(int peer) { table_.erase(peer); }
  EventLoop* loop_;
  std::map<int, std::shared_ptr<Conn>> table_;
};
"""

KPING_FIXED = """
#include "transport/conn.hpp"
class Fabric {
 public:
  void pong(int peer) {
    auto conn = table_[peer];
    loop_->schedule_after(3, [c_weak = std::weak_ptr(conn)] {
      auto c = c_weak.lock();
      if (!c) return;
      c->send();
    });
  }
  void evict(int peer) { table_.erase(peer); }
  EventLoop* loop_;
  std::map<int, std::shared_ptr<Conn>> table_;
};
"""


class TestKpingRegression(LifetimeCase):
    def test_kping_uaf_shape_is_caught(self):
        self.write_conn()
        self.tree.write("src/broker/fabric.hpp", KPING_BROKEN)
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertIn("kPing", findings[0][3])
        self.assertIn("weak_ptr", findings[0][3])

    def test_kping_weak_ptr_fix_shape_is_clean(self):
        self.write_conn()
        self.tree.write("src/broker/fabric.hpp", KPING_FIXED)
        self.assertEqual(self.lint(), [])


class TestFix(LifetimeCase):
    def _seed_fixable(self):
        self.write_conn()
        self.tree.write("src/broker/b.cpp", """
#include "transport/conn.hpp"
void drive(EventLoop& loop) {
  auto conn = std::make_shared<Conn>();
  loop.schedule_at(1, [p = conn.get()] { p->send(); });
}
""")

    def test_fix_rewrites_raw_capture_to_weak_ptr(self):
        self._seed_fixable()
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        edits = gmmcs_lint.apply_fixes(self.tree.root)
        self.assertEqual(edits, 1)
        text = (self.tree.root / "src/broker/b.cpp").read_text()
        self.assertIn("p_weak = std::weak_ptr(conn)", text)
        self.assertIn("auto p = p_weak.lock(); if (!p) return;", text)
        self.assertEqual(self.lint(), [])  # the fixed tree is clean

    def test_fix_is_idempotent(self):
        self._seed_fixable()
        self.lint()
        edits = gmmcs_lint.apply_fixes(self.tree.root)
        self.assertEqual(edits, 1)
        after_first = (self.tree.root / "src/broker/b.cpp").read_text()
        self.lint()
        edits = gmmcs_lint.apply_fixes(self.tree.root)
        self.assertEqual(edits, 0)
        self.assertEqual((self.tree.root / "src/broker/b.cpp").read_text(),
                         after_first)

    def test_no_fix_for_moved_from_source(self):
        """weak_ptr(moved-from shared_ptr) is empty — the rewrite would
        turn the handler into a silent no-op, so the finding stands
        without a mechanical fix."""
        self.write_conn()
        self.tree.write("src/broker/b.hpp", """
#include "transport/conn.hpp"
class Keeper {
 public:
  void adopt(EventLoop& loop) {
    auto conn = std::make_shared<Conn>();
    loop.schedule_at(1, [p = conn.get()] { p->send(); });
    kept_ = std::move(conn);
  }
  std::shared_ptr<Conn> kept_;
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["lifetime"])
        self.assertEqual(gmmcs_lint.LIFETIME_FIXES, [])


if __name__ == "__main__":
    unittest.main()
