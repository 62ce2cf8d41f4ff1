#include "reference.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "composed.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kObjects = 65536;  // 4 MB of state
constexpr int kPending = 512;
constexpr int kSteps = 4'000;

struct Event {
  std::uint64_t time;
  std::uint32_t object;
  std::uint32_t type;
  bool operator>(const Event& o) const { return time > o.time; }
};

}  // namespace

ReferenceKernel::ReferenceKernel() : objects_(kObjects) {}

void ReferenceKernel::TimeChunk() {
  // Every chunk starts from the same state, so it does the same work. The
  // rewrite also brings the whole 4 MB into the caches, so the chunk times
  // the shared cache, as the simulator's working set does, not DRAM.
  for (std::uint32_t i = 0; i < kObjects; ++i) {
    objects_[i] = Object{i, 3ull * i, 7ull * i, 0, (i * 2654435761u) % kObjects,
                         (i * 40503u) % kObjects, {}};
  }
  std::uint64_t x = 88172645463325252ull;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<Event> storage;
  storage.reserve(kPending + 1);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue(
      std::greater<>{}, std::move(storage));

  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kPending; ++i) {
    queue.push({rnd() % 1000, static_cast<std::uint32_t>(rnd() % kObjects),
                static_cast<std::uint32_t>(rnd() % 8)});
  }
  std::uint64_t acc = 0;
  for (int s = 0; s < kSteps; ++s) {
    const Event e = queue.top();
    queue.pop();
    Object& o = objects_[e.object];
    switch (e.type) {
      case 0:
        o.a += e.time;
        o.next = static_cast<std::uint32_t>(rnd() % kObjects);
        break;
      case 1: {
        Object& p = objects_[o.peer];
        p.b ^= o.a;
        acc += p.c;
        break;
      }
      case 2:
        o.c = o.c * 31 + o.b;
        if (o.c & 1) ++o.d;
        break;
      case 3:
        std::swap(objects_[o.next].a, o.a);
        break;
      case 4:
        for (std::uint32_t k = 0; k < 4; ++k) {
          acc += objects_[(e.object + k * 97) % kObjects].d;
        }
        break;
      case 5:
        o.peer = static_cast<std::uint32_t>((o.peer + o.a) % kObjects);
        break;
      case 6:
        if (o.b > o.a) {
          o.b -= o.a;
        } else {
          o.a -= o.b;
        }
        break;
      default:
        acc ^= o.a + o.b + o.c + o.d;
        break;
    }
    queue.push({e.time + 1 + rnd() % 64, (e.type & 1) ? o.next : o.peer,
                static_cast<std::uint32_t>((e.type * 5 + acc) % 8)});
  }
  chunk_s_.push_back(SecondsSince(t0));
  checksum_ += acc;
}

}  // namespace perfbench
