// The unit of work flowing through the simulated system, and the per-domain
// slab that holds requests while they are in flight.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/principal.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"

namespace sharegrid::nodes {

class RequestSource;

/// One client request (for L4, one TCP connection carrying one request).
struct Request {
  std::uint64_t id = 0;
  /// Organization owning the target URL; decides whose queue/agreement the
  /// request is charged against.
  core::PrincipalId principal = core::kNoPrincipal;
  /// Modeled reply size, for bandwidth accounting only: every request takes
  /// 1/C of its server's time.
  double reply_bytes = 6144.0;
  /// When the client first issued the request (for latency accounting;
  /// retries keep the original timestamp).
  SimTime created = 0;
  /// Index of the originating client machine.
  std::size_t client = 0;
  /// The L4 flow the request's connection opened (an l4::ConnectionTable
  /// id), set on admission and closed by id when the reply leaves.
  std::uint32_t flow = 0;
};

/// Names one in-flight request in a RequestSlab: a slot index in the low
/// 24 bits and the slot's generation in the high 8. A handle kept past
/// release() fails the slab's check while its slot has been reused fewer
/// than 256 times; after that the generation wraps and the stale handle
/// reads whichever request holds the slot.
struct RequestHandle {
  std::uint32_t bits = 0;

  bool operator==(const RequestHandle&) const = default;
};

/// In-flight requests of one simulation domain, from the source's
/// acquire() to its release() when the response arrives. The event
/// closures of the request path carry a 4-byte handle instead of a 48-byte
/// Request, so they fit sim::Callback's inline buffer. A slot (the request,
/// its source and the free-list word: 64 bytes) is reused as soon as its
/// request completes: the request path allocates only while the number of
/// requests in flight reaches a new high, one chunk of kChunkSlots slots at
/// a time. Slots never move, so references returned by operator[] stay
/// valid until the handle is released.
///
/// Every node of a domain shares its slab and runs on its simulator's
/// thread, so the slab needs no lock.
class RequestSlab {
 public:
  /// Requests one domain can hold in flight at once, the reach of a
  /// handle's 24-bit slot index; acquire() past it fails a precondition.
  /// The scenario loader does not check configs against it.
  static constexpr std::size_t kMaxInFlight = std::size_t{1} << 24;
  static constexpr std::size_t kChunkSlots = 256;

  /// Stores @p request, issued by @p source (who receives its response).
  RequestHandle acquire(const Request& request, RequestSource* source) {
    std::uint32_t index = free_;
    if (index == kNone) {
      SHAREGRID_EXPECTS(slots_ < kMaxInFlight);
      if (slots_ % kChunkSlots == 0)
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
      index = static_cast<std::uint32_t>(slots_++);
    } else {
      free_ = at(index).next_free;
    }
    Slot& slot = at(index);
    slot.request = request;
    slot.source = source;
    slot.next_free = kLive;
    ++live_;
    return {(std::uint32_t{slot.generation} << 24) | index};
  }

  /// Frees the handle's slot; the handle and its copies become invalid.
  void release(RequestHandle handle) {
    const std::uint32_t index = checked(handle);
    Slot& slot = at(index);
    ++slot.generation;
    slot.next_free = free_;
    free_ = index;
    --live_;
  }

  Request& operator[](RequestHandle handle) {
    return at(checked(handle)).request;
  }
  const Request& operator[](RequestHandle handle) const {
    return at(checked(handle)).request;
  }
  /// The source that acquired the request.
  RequestSource* source(RequestHandle handle) const {
    return at(checked(handle)).source;
  }

  /// Requests acquired and not yet released.
  std::size_t in_flight() const { return live_; }
  /// Slots ever used: the high-water mark of in_flight().
  std::size_t slots() const { return slots_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint32_t kLive = kNone - 1;

  struct Slot {
    Request request;
    RequestSource* source = nullptr;
    std::uint32_t next_free = kNone;  ///< kLive while acquired
    std::uint8_t generation = 0;
  };

  Slot& at(std::uint32_t index) {
    return chunks_[index / kChunkSlots][index % kChunkSlots];
  }
  const Slot& at(std::uint32_t index) const {
    return chunks_[index / kChunkSlots][index % kChunkSlots];
  }

  /// The handle's slot index, after checking that the handle names a live
  /// slot of the current generation.
  std::uint32_t checked(RequestHandle handle) const {
    const std::uint32_t index =
        handle.bits & static_cast<std::uint32_t>(kMaxInFlight - 1);
    SHAREGRID_EXPECTS(index < slots_);
    const Slot& slot = at(index);
    SHAREGRID_EXPECTS(slot.next_free == kLive &&
                      slot.generation == handle.bits >> 24);
    return index;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t slots_ = 0;  ///< slots handed out so far, in index order
  std::uint32_t free_ = kNone;
  std::size_t live_ = 0;
};

}  // namespace sharegrid::nodes
