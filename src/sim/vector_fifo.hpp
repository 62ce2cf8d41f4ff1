// A FIFO kept in one contiguous std::vector.
//
// pop_front advances a head index instead of freeing anything, so the live
// elements are always one contiguous run and iterate by plain pointer. The
// dead prefix is reclaimed in two places only: when the FIFO empties (the
// head resets to 0, capacity kept), and when a push finds the buffer full
// with at least an eighth of it dead (the live run slides to the front).
// A slide moves at most 7 live elements per reclaimed slot, so pushes stay
// amortized O(1), a steady-state window never allocates, and the buffer
// grows only when the live run fills more than 7/8 of it, so a sliding
// window's footprint stays close to its live size.
//
// Reference stability: push_back may slide or reallocate the buffer, so it
// invalidates every pointer and reference into the FIFO. pop_front and
// clear invalidate only the elements they remove; element writes through
// front/back/iterators invalidate nothing. Unlike std::deque, an empty
// VectorFifo owns no heap memory.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace tdtcp {

template <typename T>
class VectorFifo {
 public:
  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }

  T* begin() { return buf_.data() + head_; }
  T* end() { return buf_.data() + buf_.size(); }
  const T* begin() const { return buf_.data() + head_; }
  const T* end() const { return buf_.data() + buf_.size(); }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return buf_.back(); }

  // Takes `v` by value: it may alias an element the slide moves.
  void push_back(T v) {
    if (buf_.size() == buf_.capacity() && head_ != 0 &&
        head_ * 8 >= buf_.size()) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    buf_.push_back(std::move(v));
  }

  void pop_front() {
    if (++head_ == buf_.size()) clear();
  }

  void clear() {
    buf_.clear();
    head_ = 0;
  }

  // clear(), keeping the buffer only while it has room for at most
  // `max_kept` elements: a FIFO reused across many lifetimes does not pin
  // the footprint of its largest one.
  void Reset(std::size_t max_kept) {
    if (buf_.capacity() > max_kept) buf_ = std::vector<T>();
    clear();
  }

 private:
  std::vector<T> buf_;
  std::size_t head_ = 0;  // index of the front element
};

// The same for a plain vector: clears `v` and frees its buffer when it has
// room for more than `max_kept` elements.
template <typename T>
void ClearKeepingAtMost(std::vector<T>& v, std::size_t max_kept) {
  if (v.capacity() > max_kept) v = std::vector<T>();
  v.clear();
}

}  // namespace tdtcp
