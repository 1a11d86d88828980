#!/usr/bin/env python3
"""Unit tests for the gmmcs-lint copy pass (pass 8, DESIGN.md §15).

Copy-discipline dataflow over payload-typed values (Bytes / Payload):
by-value Bytes parameters that are never adopted, copy-construction
from shared lvalues without mutation-before-store, allocating
inspect-only ByteReader reads, and re-framing an already-framed wire
image through ByteWriter::raw. The flagship fixture replays the real
pre-Payload stream delivery copy this tree shipped before the zero-copy
plane landed: `deliver(Bytes(d.payload.begin() + 1, d.payload.end()))`,
one full payload duplication per reliable message, replaced today by
`d.payload.slice(1)` in src/transport/stream.cpp.

Run directly (`python3 tools/lint/tests/test_copy.py`) or via the
`gmmcs_lint_copy_selftest` ctest.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent))
import gmmcs_lint  # noqa: E402
from test_gmmcs_lint import LintCase  # noqa: E402


class CopyCase(LintCase):
    def lint(self):
        return gmmcs_lint.pass_copy(self.tree.sources())

    def assert_clean(self):
        self.assertEqual(self.lint(), [])

    def assert_flagged(self, needle):
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["copy"],
                         f"expected one copy finding, got: {findings}")
        self.assertIn(needle, findings[0][3])
        return findings


# ---------------------------------------------------------------------------
# Rule 1: by-value Bytes parameters.
# ---------------------------------------------------------------------------

class TestByValueParams(CopyCase):
    def test_unmoved_byvalue_bytes_param_is_flagged(self):
        self.tree.write("src/broker/relay.hpp", """
struct Relay {
  void send(Bytes payload) { sink_.write(payload); }
  Sink sink_;
};
""")
        self.assert_flagged("by-value Bytes parameter 'payload'")

    def test_moved_byvalue_bytes_param_is_clean(self):
        self.tree.write("src/broker/relay.hpp", """
struct Relay {
  void send(Bytes payload) { sink_.write(std::move(payload)); }
  Sink sink_;
};
""")
        self.assert_clean()

    def test_mutated_byvalue_bytes_param_is_clean(self):
        # Mutation-before-store: the function stamps the buffer, so it
        # genuinely needs its own allocation — by-value is the right API.
        self.tree.write("src/media/stamper.hpp", """
struct Stamper {
  void send(Bytes payload) {
    payload.push_back(0xFF);
    sink_.write(payload);
  }
  Sink sink_;
};
""")
        self.assert_clean()

    def test_const_ref_param_is_clean(self):
        self.tree.write("src/broker/peek.hpp", """
struct Peek {
  bool big(const Bytes& payload) { return payload.size() > 64; }
};
""")
        self.assert_clean()

    def test_rvalue_ref_param_is_clean(self):
        self.tree.write("src/common/adopt.hpp", """
struct Adopter {
  void adopt(Bytes&& own) { buf_ = std::move(own); }
  Bytes buf_;
};
""")
        self.assert_clean()

    def test_byvalue_payload_param_is_clean(self):
        # Payload by value is a refcounted handle, never a byte copy.
        self.tree.write("src/broker/handle.hpp", """
struct Fan {
  void send(Payload frame) { sink_.write(std::move(frame)); }
  Sink sink_;
};
""")
        self.assert_clean()

    def test_fix_rewrites_byvalue_param_to_const_ref(self):
        path = self.tree.write("src/broker/relay.hpp", """
struct Relay {
  void send(Bytes payload) { sink_.write(payload); }
  Sink sink_;
};
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["copy"])
        edits = gmmcs_lint.apply_fixes(self.tree.root)
        self.assertEqual(edits, 1)
        self.assertIn("void send(const Bytes& payload)", path.read_text())
        self.assert_clean()  # idempotent: fixed site no longer fires
        self.assertEqual(gmmcs_lint.apply_fixes(self.tree.root), 0)


# ---------------------------------------------------------------------------
# Rule 2: copy-construction from a shared origin.
# ---------------------------------------------------------------------------

class TestSharedOriginCopies(CopyCase):
    def test_copy_init_from_payload_param_is_flagged(self):
        self.tree.write("src/broker/dup.hpp", """
struct Dup {
  void keep(const Bytes& incoming) {
    Bytes mine = incoming;
    sink_.write(mine);
  }
  Sink sink_;
};
""")
        self.assert_flagged("copy-constructs payload bytes")

    def test_move_init_is_clean(self):
        self.tree.write("src/broker/dup.hpp", """
struct Dup {
  void keep(Bytes incoming) {
    Bytes mine = std::move(incoming);
    sink_.write(std::move(mine));
  }
  Sink sink_;
};
""")
        self.assert_clean()

    def test_copy_init_from_payload_member_is_flagged(self):
        self.tree.write("src/broker/dup.hpp", """
struct Dup {
  void keep(const Event& ev) {
    Bytes mine = ev.payload;
    sink_.write(mine);
  }
  Sink sink_;
};
""")
        self.assert_flagged("copy-constructs payload bytes")

    def test_init_from_call_result_is_clean(self):
        # Fresh origin: a call result is an rvalue, binding it is a move.
        self.tree.write("src/broker/enc.hpp", """
struct Enc {
  void emit(const Event& ev) {
    Bytes wire = encode(ev);
    sink_.write(std::move(wire));
  }
  Sink sink_;
};
""")
        self.assert_clean()

    def test_copy_then_mutate_is_clean(self):
        # Mutation-before-store justifies the private buffer.
        self.tree.write("src/media/stamp.hpp", """
struct Stamp {
  void emit(const Bytes& incoming) {
    Bytes mine = incoming;
    mine.push_back(0xFF);
    sink_.write(std::move(mine));
  }
  Sink sink_;
};
""")
        self.assert_clean()

    def test_paren_copy_ctor_is_flagged(self):
        self.tree.write("src/broker/dup.hpp", """
struct Dup {
  void keep(const Bytes& incoming) {
    Bytes mine(incoming);
    sink_.write(mine);
  }
  Sink sink_;
};
""")
        self.assert_flagged("copy-constructs payload bytes")

    def test_payload_handle_copy_is_clean(self):
        # Copying a Payload is a refcount bump, not a byte copy.
        self.tree.write("src/broker/handle.hpp", """
struct Keep {
  void keep(const Payload& frame) {
    last_ = frame;
  }
  Payload last_;
};
""")
        self.assert_clean()

    def test_explicit_copy_of_is_clean(self):
        # The counted escape hatch: a deliberate copy is spelled out.
        self.tree.write("src/streaming/snap.hpp", """
struct Snap {
  void keep(const Payload& frame) {
    Bytes mine = frame.copy_of_bytes();
    sink_.write(std::move(mine));
  }
  Sink sink_;
};
""")
        self.assert_clean()

    def test_prefix_stream_delivery_copy_is_replayed(self):
        # The real pre-fix copy from this tree: StreamConnection's kData
        # delivery built a fresh Bytes from the datagram payload minus
        # its type byte — one full payload duplication per reliable
        # message until Payload::slice(1) replaced it.
        self.tree.write("src/transport/stream_old.hpp", """
struct OldStream {
  void handle(const Datagram& d) {
    Bytes payload = d.payload;
    deliver(Bytes(payload.begin() + 1, payload.end()));
  }
  void deliver(Bytes m);
};
""")
        findings = self.lint()
        msgs = " | ".join(f[3] for f in findings)
        self.assertIn("byte-range copy of payload", msgs)
        self.assertIn("Payload::slice()", msgs)


# ---------------------------------------------------------------------------
# Rule 3: allocating inspect-only reads.
# ---------------------------------------------------------------------------

class TestInspectOnlyReads(CopyCase):
    def test_inspect_only_raw_local_is_flagged(self):
        self.tree.write("src/h323/magic.hpp", """
inline bool check(const Payload& data) {
  ByteReader r(data);
  Bytes magic = r.raw(4);
  return magic.size() == 4 && magic[0] == 0x47;
}
""")
        self.assert_flagged("only inspected")

    def test_stored_raw_result_is_clean(self):
        # The decode stores an owned copy into the message — the
        # allocation is load-bearing, not inspect-only.
        self.tree.write("src/h323/store.hpp", """
struct Msg { Bytes body; };
inline Msg parse(const Payload& data) {
  ByteReader r(data);
  Msg m;
  m.body = r.raw(8);
  return m;
}
""")
        self.assert_clean()

    def test_direct_lstr_comparison_is_flagged(self):
        self.tree.write("src/soap/tag.hpp", """
inline bool is_envelope(const Payload& data) {
  ByteReader r(data);
  return r.lstr() == "Envelope";
}
""")
        self.assert_flagged("lstr_view()")

    def test_lstr_stored_into_field_is_clean(self):
        self.tree.write("src/broker/hello.hpp", """
struct Hello { std::string name; };
inline Hello parse(const Payload& data) {
  ByteReader r(data);
  Hello h;
  h.name = r.lstr();
  return h;
}
""")
        self.assert_clean()

    def test_non_reader_receiver_is_ignored(self):
        # ostringstream::str() is not an allocating payload read.
        self.tree.write("src/common/fmt.hpp", """
inline bool rendered(std::ostringstream& out) {
  return out.str() == "done";
}
""")
        self.assert_clean()

    def test_fix_rewrites_inspect_only_raw_to_view(self):
        path = self.tree.write("src/h323/magic.hpp", """
inline bool check(const Payload& data) {
  ByteReader r(data);
  Bytes magic = r.raw(4);
  return magic.size() == 4 && magic[0] == 0x47;
}
""")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["copy"])
        edits = gmmcs_lint.apply_fixes(self.tree.root)
        self.assertEqual(edits, 1)
        self.assertIn("auto magic = r.view(4);", path.read_text())
        self.assert_clean()

    def test_fix_rewrites_direct_lstr_compare_to_view(self):
        path = self.tree.write("src/soap/tag.hpp", """
inline bool is_envelope(const Payload& data) {
  ByteReader r(data);
  return r.lstr() == "Envelope";
}
""")
        self.lint()
        edits = gmmcs_lint.apply_fixes(self.tree.root)
        self.assertEqual(edits, 1)
        self.assertIn('r.lstr_view() == "Envelope"', path.read_text())
        self.assert_clean()


# ---------------------------------------------------------------------------
# Rule 4: re-framing an already-framed wire image.
# ---------------------------------------------------------------------------

class TestReframing(CopyCase):
    def test_raw_of_wire_is_flagged(self):
        self.tree.write("src/broker/reframe.hpp", """
struct Reframe {
  Bytes wrap(const RoutedEvent& ev) {
    ByteWriter w(ev.wire().size() + 1);
    w.u8(7);
    w.raw(ev.wire());
    return w.take();
  }
};
""")
        self.assert_flagged("re-buffers an already-framed payload")

    def test_raw_of_encode_is_flagged(self):
        self.tree.write("src/broker/reframe.hpp", """
struct Reframe {
  Bytes wrap(const Event& ev) {
    ByteWriter w(64);
    w.raw(encode(ev));
    return w.take();
  }
};
""")
        self.assert_flagged("re-buffers an already-framed payload")

    def test_raw_of_serialize_is_flagged(self):
        self.tree.write("src/rtp/reframe.hpp", """
struct Reframe {
  Bytes wrap(const RtpPacket& p) {
    ByteWriter w(64);
    w.raw(p.serialize());
    return w.take();
  }
};
""")
        self.assert_flagged("re-buffers an already-framed payload")

    def test_raw_of_plain_payload_field_is_clean(self):
        # Writing payload bytes into a frame being BUILT is the codec's
        # job, not a re-framing: the payload is not itself a frame.
        self.tree.write("src/rtp/serialize.hpp", """
struct Ser {
  Bytes serialize(const RtpPacket& p) {
    ByteWriter w(p.payload.size() + 12);
    w.u32(p.ssrc);
    w.raw(p.payload);
    return w.take();
  }
};
""")
        self.assert_clean()


# ---------------------------------------------------------------------------
# Suppressions.
# ---------------------------------------------------------------------------

class TestSuppression(CopyCase):
    def test_allow_copy_with_reason_silences(self):
        self.tree.write("src/broker/dup.hpp", """
struct Dup {
  void keep(const Bytes& incoming) {
    // gmmcs-lint: allow(copy): snapshot must outlive the connection
    Bytes mine = incoming;
    sink_.write(mine);
  }
  Sink sink_;
};
""")
        self.assert_clean()


if __name__ == "__main__":
    unittest.main(verbosity=2)
