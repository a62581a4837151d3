#include "value/endpoint_table.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.h"

namespace nashdb {
namespace {

/// 2^64 / golden ratio: multiplying by it spreads keys that share a
/// stride (block-aligned tuple indices) across the table's top bits.
constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;

constexpr std::size_t kInitialCapacity = 16;

}  // namespace

std::size_t EndpointTable::Home(TupleIndex key) const {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(key) * kFibonacci) >> shift_);
}

std::size_t EndpointTable::Probe(TupleIndex key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Home(key);
  while (slots_[i].live() && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

void EndpointTable::Grow() {
  const std::size_t capacity =
      slots_.empty() ? kInitialCapacity : 2 * slots_.size();
  NASHDB_CHECK_LT(capacity, std::numeric_limits<std::size_t>::max() / 2)
      << "endpoint table capacity overflow";
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(capacity);
  const std::size_t mask = capacity - 1;
  // Re-insert in old slot order; each key keeps its fields and counts.
  for (const Slot& slot : old) {
    if (!slot.live()) continue;
    std::size_t i = Home(slot.key);
    while (slots_[i].live()) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

EndpointTable::Slot& EndpointTable::Upsert(TupleIndex key, bool* created) {
  if (!slots_.empty()) {
    const std::size_t i = Probe(key);
    if (slots_[i].live()) {
      *created = false;
      return slots_[i];
    }
  }
  // A new key: grow first if it would take the load past 1/2, which
  // happens only when the live-key count reaches a new high.
  if (2 * (count_ + 1) > slots_.size()) Grow();
  Slot& slot = slots_[Probe(key)];
  slot = Slot{};
  slot.key = key;
  ++count_;
  *created = true;
  return slot;
}

void EndpointTable::EraseAt(std::size_t i) {
  // Backward-shift deletion: walk the probe run after the hole; an entry
  // whose home lies cyclically at or before the hole moves into it, and
  // the hole follows it. The run ends at the first empty slot.
  const std::size_t mask = slots_.size() - 1;
  std::size_t j = i;
  while (true) {
    j = (j + 1) & mask;
    if (!slots_[j].live()) break;
    const std::size_t displacement = (j - Home(slots_[j].key)) & mask;
    if (displacement >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
}

void EndpointTable::AddScan(TupleIndex start, TupleIndex end, Money np) {
  NASHDB_DCHECK(start < end);
  NASHDB_DCHECK(np >= 0.0);
  bool created = false;
  Slot& s = Upsert(start, &created);
  s.s = created ? np : s.s + np;
  ++s.s_count;
  // `s` may dangle from here on: the second upsert can grow the table.
  Slot& e = Upsert(end, &created);
  e.e = created ? np : e.e + np;
  ++e.e_count;
}

void EndpointTable::RemoveScan(TupleIndex start, TupleIndex end, Money np) {
  NASHDB_DCHECK(start < end);
  for (const auto& [key, is_start] :
       {std::pair{start, true}, std::pair{end, false}}) {
    const std::size_t i = slots_.empty() ? 0 : Probe(key);
    NASHDB_CHECK(!slots_.empty() && slots_[i].live())
        << "RemoveScan for a scan not present in the table (key=" << key
        << ")";
    Slot& slot = slots_[i];
    // As in ValueEstimationTree::RemoveScan: liveness follows the counts,
    // and the last contributor's exit snaps the accumulator to 0.0.
    if (is_start) {
      NASHDB_CHECK_GT(slot.s_count, 0u)
          << "RemoveScan start without a matching AddScan (key=" << key
          << ")";
      --slot.s_count;
      slot.s -= np;
      if (slot.s_count == 0) slot.s = 0.0;
    } else {
      NASHDB_CHECK_GT(slot.e_count, 0u)
          << "RemoveScan end without a matching AddScan (key=" << key << ")";
      --slot.e_count;
      slot.e -= np;
      if (slot.e_count == 0) slot.e = 0.0;
    }
    if (!slot.live()) {
      EraseAt(i);
      --count_;
    }
  }
}

std::size_t EndpointTable::SizeBytes() const {
  return slots_.capacity() * sizeof(Slot);
}

Money EndpointTable::RawValueAt(TupleIndex x) const {
  Money acc = 0.0;
  for (const Slot& slot : slots_) {
    if (slot.live() && slot.key <= x) acc += slot.s - slot.e;
  }
  return acc;
}

std::vector<std::pair<TupleIndex, Money>> EndpointTable::SortedDeltas()
    const {
  std::vector<std::pair<TupleIndex, Money>> deltas;
  deltas.reserve(count_);
  for (const Slot& slot : slots_) {
    if (slot.live()) deltas.emplace_back(slot.key, slot.s - slot.e);
  }
  // Keys are unique, so ordering by key alone is a total order.
  std::sort(deltas.begin(), deltas.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return deltas;
}

void EndpointTable::CheckInvariants() const {
  if (slots_.empty()) {
    NASHDB_CHECK_EQ(count_, 0u);
    return;
  }
  const std::size_t mask = slots_.size() - 1;
  NASHDB_CHECK_EQ(slots_.size() & mask, 0u) << "capacity not a power of 2";
  NASHDB_CHECK_LE(2 * count_, slots_.size()) << "load above 1/2";
  std::size_t live = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (!slot.live()) {
      NASHDB_CHECK(slot.s == 0.0 && slot.e == 0.0)
          << "empty slot " << i << " holds a residue";
      continue;
    }
    ++live;
    if (slot.s_count == 0) NASHDB_CHECK_EQ(slot.s, 0.0);
    if (slot.e_count == 0) NASHDB_CHECK_EQ(slot.e, 0.0);
    // Reachable: no empty slot between the key's home and its slot, and
    // (with it) no second slot holding the same key before this one.
    for (std::size_t j = Home(slot.key); j != i; j = (j + 1) & mask) {
      NASHDB_CHECK(slots_[j].live())
          << "key " << slot.key << " unreachable from its home slot";
      NASHDB_CHECK_NE(slots_[j].key, slot.key)
          << "key " << slot.key << " stored twice";
    }
  }
  NASHDB_CHECK_EQ(live, count_);
}

}  // namespace nashdb
