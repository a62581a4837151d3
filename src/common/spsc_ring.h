#ifndef NASHDB_COMMON_SPSC_RING_H_
#define NASHDB_COMMON_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace nashdb {

/// Hints the core that the caller is spinning on a memory location.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Where one thread of an SpscRing waits (DESIGN.md §11). Wait spins on
/// its condition a bounded number of times, then sleeps on an atomic wait
/// until the other thread calls Unpark. The other thread makes the
/// condition true with a seq_cst store before it calls Unpark, and the
/// waiter publishes `sleeping_` with a seq_cst store before it re-checks
/// the condition, so one of the two always sees the other (no lost
/// wake-up). Unpark costs one load while the waiter is awake.
class Parker {
 public:
  /// Returns once `ready()` holds. `ready` must read the condition with
  /// seq_cst loads.
  template <typename Ready>
  void Wait(Ready ready, int spins) {
    for (int i = 0; i < spins; ++i) {
      if (ready()) return;
      CpuRelax();
    }
    for (;;) {
      const std::uint32_t epoch = epoch_.load(std::memory_order_seq_cst);
      sleeping_.store(true, std::memory_order_seq_cst);
      const bool done = ready();
      if (!done) epoch_.wait(epoch, std::memory_order_seq_cst);
      sleeping_.store(false, std::memory_order_relaxed);
      if (done || ready()) return;
    }
  }

  /// Wakes the waiter if it sleeps.
  void Unpark() {
    if (!sleeping_.load(std::memory_order_seq_cst)) return;
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_one();
  }

 private:
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> sleeping_{false};
};

/// Bounded FIFO handoff from one producer thread to one consumer thread
/// (DESIGN.md §11): a ring of kSlots preallocated slots that both sides
/// reuse in place, so the steady state allocates nothing. The producer
/// fills the slot at Back() and commits it with Push; committed slots
/// become visible to the consumer half a ring (kBatch) at a time, and
/// Close and Drain publish early. The consumer reads Front() and
/// releases it with Pop; releases become visible to the producer a batch
/// at a time, and whenever the consumer runs dry.
///
/// Waiting: a consumer with nothing published, or a producer facing a
/// full ring, spins kWaitSpins times (a few microseconds) and then parks.
/// A producer waiting for space waits until the consumer has released
/// the rest of a batch, so a fast producer and a slow consumer (or the
/// reverse) trade one wake-up per batch, not one per item. Each side
/// wakes the other only when it sleeps.
///
/// Exactly one thread at a time may call the producer methods and one
/// the consumer methods. Everything a producer wrote into a slot before
/// publishing it happens-before the consumer's read of that slot, and
/// everything the consumer did before releasing a slot happens-before
/// the producer's return from a wait (Back, Drain) that saw the release.
template <typename T, std::size_t kSlots>
class SpscRing {
  static_assert(kSlots >= 2 && (kSlots & (kSlots - 1)) == 0,
                "kSlots must be a power of two");

 public:
  /// Items published, and released, at once.
  static constexpr std::size_t kBatch = kSlots / 2;
  /// Spins before a waiting side parks (a few microseconds).
  static constexpr int kWaitSpins = 128;
  /// Spins before a draining producer parks: a drain waits for work the
  /// consumer is already doing (at most kSlots items), so it spins on
  /// rather than pay a wake-up.
  static constexpr int kDrainSpins = 1 << 14;

  SpscRing() : slots_(std::make_unique<T[]>(kSlots)) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // ---- producer

  /// The slot the next Push commits. On a full ring, publishes what it
  /// holds and waits until the consumer has released the rest of its
  /// current batch, or has cancelled.
  T& Back() {
    if (write_ - cached_tail_ == kSlots) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (write_ - cached_tail_ == kSlots) WaitForSpace();
    }
    return slots_[write_ & (kSlots - 1)];
  }

  /// Commits Back(); publishes once a batch is committed.
  void Push() {
    if (++write_ - published_ >= kBatch) Publish();
  }

  /// Publishes and ends the stream: once the consumer has read every
  /// published slot, Front() returns nullptr.
  void Close() {
    Publish();
    closed_.store(true, std::memory_order_seq_cst);
    consumer_.Unpark();
  }

  /// Returns once every committed item has been consumed: the published
  /// ones by the consumer, whose releases this waits for, and the rest by
  /// `apply`, called on each on this thread in order. Their slots are then
  /// free again, and the consumer wakes for none of them.
  template <typename Apply>
  void Drain(Apply apply) {
    if (published_ != cached_tail_) {
      producer_.Wait(
          [this] {
            cached_tail_ = tail_.load(std::memory_order_seq_cst);
            return cached_tail_ == published_;
          },
          kDrainSpins);
    }
    for (std::size_t i = published_; i != write_; ++i) {
      apply(slots_[i & (kSlots - 1)]);
    }
    write_ = published_;
  }

  /// True once the consumer has cancelled: the producer should stop.
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  // ---- consumer

  /// The oldest published slot not yet released; waits for one. nullptr
  /// once the producer closed the ring and every slot was read.
  T* Front() {
    if (read_ == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (read_ == cached_head_) {
        // Going dry: a producer draining or waiting for space may be
        // waiting for exactly this release.
        tail_.store(read_, std::memory_order_seq_cst);
        producer_.Unpark();
        consumer_.Wait(
            [this] {
              // Closed first: a close seen here covers every publish
              // before it.
              const bool closed = closed_.load(std::memory_order_seq_cst);
              cached_head_ = head_.load(std::memory_order_seq_cst);
              return read_ != cached_head_ || closed;
            },
            kWaitSpins);
        if (read_ == cached_head_) return nullptr;
      }
    }
    return &slots_[read_ & (kSlots - 1)];
  }

  /// Releases Front()'s slot; the release is published with the rest of
  /// its batch, or when the consumer runs dry.
  void Pop() {
    if (++read_ % kBatch == 0) {
      tail_.store(read_, std::memory_order_seq_cst);
      producer_.Unpark();
    }
  }

  /// Stops reading for good and releases a producer waiting for space;
  /// the producer should see cancelled() and stop.
  void Cancel() {
    cancelled_.store(true, std::memory_order_seq_cst);
    producer_.Unpark();
  }

 private:
  /// Makes every committed slot visible to the consumer.
  void Publish() {
    if (published_ == write_) return;
    published_ = write_;
    head_.store(write_, std::memory_order_seq_cst);
    consumer_.Unpark();
  }

  /// Waits until the consumer has released up to the next multiple of
  /// kBatch (where Pop wakes the producer), or has cancelled.
  void WaitForSpace() {
    Publish();
    const std::size_t target = (cached_tail_ / kBatch + 1) * kBatch;
    producer_.Wait(
        [this, target] {
          cached_tail_ = tail_.load(std::memory_order_seq_cst);
          return cached_tail_ >= target ||
                 cancelled_.load(std::memory_order_seq_cst);
        },
        kWaitSpins);
  }

  const std::unique_ptr<T[]> slots_;

  /// Published count: written by the producer, read by the consumer.
  alignas(64) std::atomic<std::size_t> head_{0};
  /// Released count: written by the consumer, read by the producer.
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<bool> cancelled_{false};

  // Producer-local.
  alignas(64) std::size_t write_ = 0;
  std::size_t published_ = 0;
  std::size_t cached_tail_ = 0;

  // Consumer-local.
  alignas(64) std::size_t read_ = 0;
  std::size_t cached_head_ = 0;

  alignas(64) Parker producer_;
  alignas(64) Parker consumer_;
};

}  // namespace nashdb

#endif  // NASHDB_COMMON_SPSC_RING_H_
