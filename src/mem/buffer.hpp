// Typed, RAII-managed simulation buffers.
//
// A Buffer<T> is a registration handle: it registers a virtual allocation
// of `count` elements of T with the MemorySystem (so the simulator knows
// its size, address and placement) and releases it on destruction.  It
// holds no host storage — traffic emitters name buffers by id, and the
// numerics (App::host) keep their own arrays.
#pragma once

#include <string>
#include <utility>

#include "memsim/memory_system.hpp"
#include "simcore/error.hpp"

namespace nvms {

template <typename T>
class Buffer {
 public:
  Buffer() = default;

  /// Register `count` elements of T — the size of the *modelled* data
  /// structure — under `name`.
  Buffer(MemorySystem& sys, std::string name, std::size_t count,
         Placement placement = Placement::kAuto)
      : sys_(&sys) {
    require(count > 0, "buffer '" + name + "' must have positive size");
    id_ = sys.register_buffer(std::move(name), count * sizeof(T), placement);
  }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  Buffer(Buffer&& other) noexcept { swap(other); }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      reset();
      swap(other);
    }
    return *this;
  }

  ~Buffer() { reset(); }

  /// Release the simulated allocation.
  void reset() {
    if (sys_ != nullptr && id_ != kInvalidBuffer) {
      sys_->release_buffer(id_);
    }
    sys_ = nullptr;
    id_ = kInvalidBuffer;
  }

  bool valid() const { return sys_ != nullptr && id_ != kInvalidBuffer; }

  BufferId id() const { return id_; }
  /// Simulated (virtual) footprint in bytes.
  std::uint64_t bytes() const { return valid() ? sys_->buffer(id_).bytes : 0; }

  void place(Placement p) {
    NVMS_ASSERT(valid(), "placement on invalid buffer");
    sys_->set_placement(id_, p);
  }
  Placement placement() const { return sys_->buffer(id_).placement; }

 private:
  void swap(Buffer& other) noexcept {
    std::swap(sys_, other.sys_);
    std::swap(id_, other.id_);
  }

  MemorySystem* sys_ = nullptr;
  BufferId id_ = kInvalidBuffer;
};

}  // namespace nvms
