#ifndef HERMES_COMMON_ARENA_H_
#define HERMES_COMMON_ARENA_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>

namespace hermes {

/// Monotonic bump allocator for per-query scratch data.
///
/// Allocations come out of geometrically-growing malloc'd chunks and are
/// never freed individually: the whole arena is released wholesale when the
/// query ends (destructor or Reset()). Objects with non-trivial destructors
/// registered through New<T>() are destroyed in reverse allocation order on
/// Reset — the protobuf-arena discipline.
///
/// Not thread-safe: one arena belongs to one query's execution thread, the
/// same ownership rule as ExecContext itself.
class Arena {
 public:
  static constexpr size_t kMinChunkBytes = 4 * 1024;
  static constexpr size_t kMaxChunkBytes = 256 * 1024;

  Arena() = default;
  ~Arena() { FreeAll(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw uninitialized storage. `align` must be a power of two.
  void* Alloc(size_t size, size_t align = alignof(std::max_align_t)) {
    uintptr_t p = (cursor_ + (align - 1)) & ~uintptr_t(align - 1);
    if (p + size > limit_) {
      Refill(size, align);
      p = (cursor_ + (align - 1)) & ~uintptr_t(align - 1);
    }
    cursor_ = p + size;
    bytes_used_ += size;
    assert(cursor_ <= limit_);
    assert(bytes_used_ <= bytes_reserved_);
    return reinterpret_cast<void*>(p);
  }

  /// Constructs a T in the arena. Non-trivially-destructible types are
  /// registered for destruction at Reset()/arena teardown.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    T* obj = new (Alloc(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      auto* node = static_cast<DtorNode*>(
          Alloc(sizeof(DtorNode), alignof(DtorNode)));
      node->object = obj;
      node->destroy = [](void* p) { static_cast<T*>(p)->~T(); };
      node->next = dtors_;
      dtors_ = node;
    }
    return obj;
  }

  /// Copies `s` into the arena (NUL-terminated). Returns the copy.
  const char* CopyString(std::string_view s) {
    char* out = static_cast<char*>(Alloc(s.size() + 1, 1));
    std::memcpy(out, s.data(), s.size());
    out[s.size()] = '\0';
    return out;
  }

  /// Destroys registered objects and releases every chunk except the first,
  /// which is rewound for reuse — a served query leaves its first chunk
  /// warm for the next one when the arena is pooled.
  void Reset() {
    RunDtors();
    Chunk* keep = nullptr;
    for (Chunk* c = chunks_; c != nullptr;) {
      Chunk* next = c->next;
      if (next == nullptr) {
        keep = c;  // the first chunk allocated is the tail of the list
      } else {
        std::free(c);
      }
      c = next;
    }
    chunks_ = keep;
    if (keep != nullptr) {
      keep->next = nullptr;
      cursor_ = reinterpret_cast<uintptr_t>(keep + 1);
      limit_ = reinterpret_cast<uintptr_t>(keep) + keep->size;
      bytes_reserved_ = keep->size;
    } else {
      cursor_ = limit_ = 0;
      bytes_reserved_ = 0;
    }
    bytes_used_ = 0;
  }

  /// Bytes handed out since construction/Reset (excluding alignment waste).
  size_t bytes_used() const { return bytes_used_; }
  /// Bytes of chunk capacity currently reserved from the heap.
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Chunk {
    Chunk* next;
    size_t size;  ///< Including this header.
  };
  struct DtorNode {
    void* object;
    void (*destroy)(void*);
    DtorNode* next;
  };

  void Refill(size_t size, size_t align) {
    size_t want = sizeof(Chunk) + size + align;
    size_t chunk_size = chunks_ == nullptr
                            ? kMinChunkBytes
                            : std::min(chunks_->size * 2, kMaxChunkBytes);
    if (chunk_size < want) chunk_size = want;
    auto* chunk = static_cast<Chunk*>(std::malloc(chunk_size));
    if (chunk == nullptr) throw std::bad_alloc();
    chunk->next = chunks_;
    chunk->size = chunk_size;
    chunks_ = chunk;
    bytes_reserved_ += chunk_size;
    cursor_ = reinterpret_cast<uintptr_t>(chunk + 1);
    limit_ = reinterpret_cast<uintptr_t>(chunk) + chunk_size;
  }

  void RunDtors() {
    for (DtorNode* n = dtors_; n != nullptr; n = n->next) {
      n->destroy(n->object);
    }
    dtors_ = nullptr;
  }

  void FreeAll() {
    RunDtors();
    for (Chunk* c = chunks_; c != nullptr;) {
      Chunk* next = c->next;
      std::free(c);
      c = next;
    }
    chunks_ = nullptr;
  }

  Chunk* chunks_ = nullptr;      ///< Newest first; the oldest is the tail.
  DtorNode* dtors_ = nullptr;    ///< Newest first (reverse destruction).
  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace hermes

#endif  // HERMES_COMMON_ARENA_H_
