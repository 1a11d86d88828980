// Payload's handle and block life cycle against a reference model.
//
// A Payload is a view into a heap block whose count is a plain integer:
// a missed increment frees a block that a handle still reads, and a
// missed decrement leaks it. Each seeded script runs a mix of frame
// writes, adoptions, copies and moves (self-assignment included), slices,
// prepends into the headroom and drops over a dozen handles, and after
// every step checks each handle's bytes, the payload copy counters, and
// the live allocations against the model: a block is freed exactly when
// its last handle goes. Run it under scripts/check.sh asan as well.
//
// Own binary because it replaces global new/delete to count live blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/payload.hpp"
#include "common/random.hpp"
#include "property.hpp"
#include "wire_gen.hpp"

namespace {
std::int64_t g_live = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_live;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  --g_live;
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace gmmcs {
namespace {

constexpr int kSlots = 12;

/// The model of one block: its bytes, its headroom, its handles.
struct ModelBlock {
  Bytes body;
  bool inline_block = true;  // FrameWriter, copy_of and copying prepend
  bool head_filled = false;
  std::uint8_t head = 0;
  int refs = 0;
  int allocations = 1;  // freed together when refs reaches 0
};

/// The model of one handle: a view [offset, offset + len) of a block's
/// body, where offset -1 starts at the headroom byte; block -1 = none.
struct ModelView {
  int block = -1;
  std::int64_t offset = 0;
  std::size_t len = 0;
};

struct Model {
  std::vector<ModelBlock> blocks;
  std::array<ModelView, kSlots> views{};
  std::int64_t live = 0;
  int blocks_alive = 0;
  std::uint64_t copies = 0;
  std::uint64_t copied_bytes = 0;

  [[nodiscard]] Bytes bytes(const ModelView& v) const {
    if (v.block < 0 || v.len == 0) return {};
    const ModelBlock& b = blocks[static_cast<std::size_t>(v.block)];
    Bytes out;
    std::int64_t at = v.offset;
    if (at < 0) {
      out.push_back(b.head);
      at = 0;
    }
    const std::size_t body_len = v.offset < 0 ? v.len - 1 : v.len;
    const auto first = b.body.begin() + at;
    out.insert(out.end(), first, first + static_cast<std::int64_t>(body_len));
    return out;
  }
  void ref(int block) {
    if (block >= 0) ++blocks[static_cast<std::size_t>(block)].refs;
  }
  void unref(int block) {
    if (block < 0) return;
    ModelBlock& b = blocks[static_cast<std::size_t>(block)];
    if (--b.refs == 0) {
      live -= b.allocations;
      --blocks_alive;
    }
  }
  /// Slot `j` takes view `v` (already counted), dropping what it held.
  void assign(int j, ModelView v) {
    const int old = views[static_cast<std::size_t>(j)].block;
    views[static_cast<std::size_t>(j)] = v;
    unref(old);
  }
  int add_block(ModelBlock b) {
    b.refs = 1;
    ++blocks_alive;
    blocks.push_back(std::move(b));
    return static_cast<int>(blocks.size()) - 1;
  }
};

TEST(PayloadProperty, HandlesAndBlocksMatchTheReferenceModel) {
  prop::for_each_seed(300, [&](std::uint64_t seed) {
    Rng rng(seed);
    Model model;
    std::array<Payload, kSlots> slots{};
    const std::uint64_t copies0 = payload_copy_count();
    const std::uint64_t copied0 = payload_bytes_copied();
    // Live allocations made or freed by the Payload operations alone (the
    // model and the inputs allocate too, outside these regions).
    std::int64_t live = 0;
    auto measured = [&live](auto&& op) {
      const std::int64_t before = g_live;
      op();
      live += g_live - before;
    };
    for (int step = 0; step < 200; ++step) {
      const int i = static_cast<int>(rng.uniform_int(0, kSlots - 1));
      const int j = static_cast<int>(rng.uniform_int(0, kSlots - 1));
      const auto si = static_cast<std::size_t>(i);
      const auto sj = static_cast<std::size_t>(j);
      const double roll = rng.uniform();
      if (roll < 0.12) {
        // A FrameWriter-built frame: one inline block.
        const Bytes src = gmmcs::gen::rand_bytes(rng, 40);
        measured([&] {
          FrameWriter w(src.size());
          w.raw(src);
          slots[sj] = w.take();
        });
        model.live += 1;
        ModelBlock b;
        b.body = src;
        model.assign(j, ModelView{model.add_block(b), 0, src.size()});
      } else if (roll < 0.20) {
        // An adopted vector: the block holds the moved-in buffer.
        Bytes src = gmmcs::gen::rand_bytes(rng, 40);
        const Bytes copy = src;
        const bool has_buffer = src.capacity() > 0;
        measured([&] { slots[sj] = Payload(std::move(src)); });
        ModelBlock b;
        b.body = copy;
        b.inline_block = false;
        // Adopting allocates the block; releasing frees it and the buffer.
        b.allocations = has_buffer ? 2 : 1;
        model.live += 1;
        model.assign(j, ModelView{model.add_block(b), 0, copy.size()});
      } else if (roll < 0.26) {
        const Bytes src = gmmcs::gen::rand_bytes(rng, 40);
        measured([&] { slots[sj] = Payload::copy_of(src); });
        model.live += 1;
        ++model.copies;
        model.copied_bytes += src.size();
        ModelBlock b;
        b.body = src;
        model.assign(j, ModelView{model.add_block(b), 0, src.size()});
      } else if (roll < 0.38) {
        // Copy-assignment, self-assignment when i == j.
        measured([&] { slots[sj] = slots[si]; });
        const ModelView v = model.views[si];
        model.ref(v.block);
        model.assign(j, v);
      } else if (roll < 0.46) {
        // Move-assignment; a self-move leaves the handle as it was.
        measured([&] { slots[sj] = std::move(slots[si]); });
        if (i != j) {
          const ModelView v = model.views[si];
          model.views[si] = ModelView{};
          model.assign(j, v);
        }
      } else if (roll < 0.52) {
        // Copy- then move-construction through a temporary.
        measured([&] {
          Payload tmp(slots[si]);
          Payload moved(std::move(tmp));
          slots[sj] = moved;
        });
        const ModelView v = model.views[si];
        model.ref(v.block);
        model.assign(j, v);
      } else if (roll < 0.66) {
        const ModelView v = model.views[si];
        const auto reach = static_cast<std::int64_t>(v.len) + 2;  // past the end too
        const auto off = static_cast<std::size_t>(rng.uniform_int(0, reach));
        const auto len = static_cast<std::size_t>(rng.uniform_int(0, reach));
        measured([&] { slots[sj] = slots[si].slice(off, len); });
        ModelView s;
        if (off <= v.len && v.block >= 0) {
          s.block = v.block;
          s.offset = v.offset + static_cast<std::int64_t>(off);
          s.len = std::min(len, v.len - off);
          model.ref(s.block);
        }
        model.assign(j, s);
      } else if (roll < 0.82) {
        // Prepend: the headroom takes the byte, or a counted copy does.
        const ModelView v = model.views[si];
        const auto byte = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
        measured([&] { slots[sj] = slots[si].prepend(byte); });
        ModelView p;
        ModelBlock* b = v.block >= 0 ? &model.blocks[static_cast<std::size_t>(v.block)] : nullptr;
        if (b != nullptr && b->inline_block && v.offset == 0 &&
            (!b->head_filled || b->head == byte)) {
          b->head_filled = true;
          b->head = byte;
          p = ModelView{v.block, -1, v.len + 1};
          model.ref(v.block);
        } else {
          Bytes framed = model.bytes(v);
          framed.insert(framed.begin(), byte);
          ++model.copies;
          model.copied_bytes += v.len;
          model.live += 1;
          ModelBlock fresh;
          fresh.body = framed;
          p = ModelView{model.add_block(fresh), 0, framed.size()};
        }
        model.assign(j, p);
      } else if (roll < 0.92) {
        measured([&] { slots[sj] = Payload{}; });
        model.assign(j, ModelView{});
      } else {
        const Bytes back = slots[si].to_bytes();
        ++model.copies;
        model.copied_bytes += back.size();
        ASSERT_EQ(back, model.bytes(model.views[si]));
      }
      for (int k = 0; k < kSlots; ++k) {
        const auto sk = static_cast<std::size_t>(k);
        const Bytes want = model.bytes(model.views[sk]);
        ASSERT_EQ(slots[sk].size(), want.size()) << "step " << step;
        ASSERT_TRUE(slots[sk] == want) << "step " << step << " slot " << k;
      }
      ASSERT_EQ(payload_copy_count() - copies0, model.copies);
      ASSERT_EQ(payload_bytes_copied() - copied0, model.copied_bytes);
      // A block is freed exactly when its last handle goes.
      ASSERT_EQ(live, model.live) << "step " << step;
    }
    measured([&] {
      for (auto& slot : slots) slot = Payload{};
    });
    for (int k = 0; k < kSlots; ++k) model.assign(k, ModelView{});
    ASSERT_EQ(live, model.live);
    ASSERT_EQ(model.blocks_alive, 0);
  });
}

// The headroom holds one value for good: a second, different byte in
// front of the same frame is framed by a counted copy, and the first
// segment keeps its byte.
TEST(PayloadProperty, HeadroomKeepsTheFirstByteItTook) {
  FrameWriter w(3);
  w.str("abc");
  const Payload frame = w.take();
  const std::uint64_t copies0 = payload_copy_count();
  const Payload a = frame.prepend(7);
  const Payload again = frame.prepend(7);
  EXPECT_EQ(payload_copy_count() - copies0, 0u);
  EXPECT_EQ(a.data(), again.data());
  EXPECT_EQ(a.data() + 1, frame.data());
  const Payload b = frame.prepend(9);
  EXPECT_EQ(payload_copy_count() - copies0, 1u);
  EXPECT_EQ(a, (Bytes{7, 'a', 'b', 'c'}));
  EXPECT_EQ(b, (Bytes{9, 'a', 'b', 'c'}));
  // A view that does not start at the frame's first byte has no headroom.
  EXPECT_EQ(frame.slice(1).prepend(7), (Bytes{7, 'b', 'c'}));
  EXPECT_EQ(payload_copy_count() - copies0, 2u);
}

TEST(PayloadProperty, FrameWriterRejectsAFrameOfTheWrongSize) {
  FrameWriter over(2);
  over.u16(1);
  EXPECT_THROW(over.u8(0), std::logic_error);
  FrameWriter short_frame(4);
  short_frame.u16(1);
  EXPECT_THROW((void)short_frame.take(), std::logic_error);
}

TEST(PayloadProperty, HandleIsAtMostThreeWords) {
  EXPECT_LE(sizeof(Payload), 3 * sizeof(void*));
}

}  // namespace
}  // namespace gmmcs
