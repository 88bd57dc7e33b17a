#ifndef HERMES_COMMON_INTRUSIVE_MAP_H_
#define HERMES_COMMON_INTRUSIVE_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace hermes {

/// Intrusive containers in the Linux-kernel hashtable/list idiom: the link
/// words are embedded in the element itself, so membership costs zero
/// per-entry allocations — the element is allocated once by its owner and
/// threaded into however many indexes it participates in (e.g. a cache
/// entry that sits in a hash index AND an LRU list with one allocation).

/// Embedded doubly-linked-list links (kernel `struct list_head`).
struct IntrusiveListNode {
  IntrusiveListNode* prev = nullptr;
  IntrusiveListNode* next = nullptr;

  bool linked() const { return next != nullptr; }
  void Unlink() {
    prev->next = next;
    next->prev = prev;
    prev = next = nullptr;
  }
};

/// Circular doubly-linked list over elements embedding an
/// IntrusiveListNode at member pointer `Node`. The list owns nothing.
template <typename T, IntrusiveListNode T::*Node>
class IntrusiveList {
 public:
  IntrusiveList() { head_.prev = head_.next = &head_; }

  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  bool empty() const { return head_.next == &head_; }

  void PushFront(T* item) {
    NoteOffset(item);
    InsertAfter(&head_, &(item->*Node));
  }
  void PushBack(T* item) {
    NoteOffset(item);
    InsertAfter(head_.prev, &(item->*Node));
  }

  static void Remove(T* item) { (item->*Node).Unlink(); }

  void MoveToFront(T* item) {
    IntrusiveListNode* n = &(item->*Node);
    if (head_.next == n) return;
    n->Unlink();
    InsertAfter(&head_, n);
  }

  T* Front() { return empty() ? nullptr : FromNode(head_.next); }
  T* Back() { return empty() ? nullptr : FromNode(head_.prev); }

  T* PopBack() {
    if (empty()) return nullptr;
    T* item = FromNode(head_.prev);
    head_.prev->Unlink();
    return item;
  }

  void Clear() { head_.prev = head_.next = &head_; }

  /// Iterates front (most recent) to back; `fn` returning false stops.
  /// `fn` must not unlink elements other than the one it was given.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (IntrusiveListNode* n = head_.next; n != &head_;) {
      IntrusiveListNode* next = n->next;
      if (!fn(*FromNode(n))) return;
      n = next;
    }
  }

 private:
  // container_of: the node lives at a fixed offset inside its element,
  // measured once from a real element at link time (no fabricated-object
  // arithmetic, so sanitizers stay quiet).
  T* FromNode(IntrusiveListNode* n) const {
    return reinterpret_cast<T*>(reinterpret_cast<char*>(n) - offset_);
  }

  void NoteOffset(T* item) {
    offset_ = reinterpret_cast<char*>(&(item->*Node)) -
              reinterpret_cast<char*>(item);
  }

  static void InsertAfter(IntrusiveListNode* pos, IntrusiveListNode* n) {
    n->prev = pos;
    n->next = pos->next;
    pos->next->prev = n;
    pos->next = n;
  }

  IntrusiveListNode head_;
  ptrdiff_t offset_ = 0;
};

/// Embedded hash-chain link plus the entry's cached hash (computed once at
/// insert; rehash and lookups never re-hash the key).
struct IntrusiveMapNode {
  IntrusiveMapNode* next = nullptr;
  size_t hash = 0;
};

/// Chained hash table over elements embedding an IntrusiveMapNode at
/// member pointer `Node` — the kernel `DECLARE_HASHTABLE`/`hash_add` idiom
/// with dynamic resizing. The table owns only its bucket array; elements
/// are allocated (once) and freed by the caller.
///
/// Keys live inside the elements: lookups take a precomputed hash plus an
/// equality predicate over the candidate element, so the map imposes no key
/// type of its own and never copies keys.
template <typename T, IntrusiveMapNode T::*Node>
class IntrusiveHashMap {
 public:
  IntrusiveHashMap() = default;

  IntrusiveHashMap(const IntrusiveHashMap&) = delete;
  IntrusiveHashMap& operator=(const IntrusiveHashMap&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// First element with matching hash for which `eq(candidate)` is true.
  template <typename Eq>
  T* Find(size_t hash, Eq&& eq) const {
    if (buckets_ == nullptr) return nullptr;
    for (IntrusiveMapNode* n = buckets_[Bucket(hash)]; n != nullptr;
         n = n->next) {
      if (n->hash == hash) {
        T* item = FromNode(n);
        if (eq(*item)) return item;
      }
    }
    return nullptr;
  }

  /// Inserts `item` under `hash`. The caller guarantees the key is not
  /// already present (use Find first) — duplicate keys would shadow.
  void Insert(T* item, size_t hash) {
    if (size_ + 1 > (num_buckets_ - num_buckets_ / 4)) {  // load > 0.75
      Rehash(num_buckets_ == 0 ? kMinBuckets : num_buckets_ * 2);
    }
    offset_ = reinterpret_cast<char*>(&(item->*Node)) -
              reinterpret_cast<char*>(item);
    IntrusiveMapNode* n = &(item->*Node);
    n->hash = hash;
    size_t b = Bucket(hash);
    n->next = buckets_[b];
    buckets_[b] = n;
    ++size_;
  }

  /// Unlinks `item` (which must be present). Does not free it.
  void Remove(T* item) {
    IntrusiveMapNode* n = &(item->*Node);
    assert(buckets_ != nullptr);
    IntrusiveMapNode** slot = &buckets_[Bucket(n->hash)];
    while (*slot != n) {
      // An absent item would walk off the end of its chain.
      assert(*slot != nullptr);
      slot = &(*slot)->next;
    }
    *slot = n->next;
    n->next = nullptr;
    --size_;
  }

  /// Unlinks every element without touching them (owners free separately).
  void Clear() {
    for (size_t i = 0; i < num_buckets_; ++i) buckets_[i] = nullptr;
    size_ = 0;
  }

  /// Iterates all elements in unspecified order; `fn` returning false
  /// stops. `fn` may free the element it was given (its chain link is read
  /// first) but must not otherwise mutate the table.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < num_buckets_; ++i) {
      for (IntrusiveMapNode* n = buckets_[i]; n != nullptr;) {
        IntrusiveMapNode* next = n->next;
        if (!fn(*FromNode(n))) return;
        n = next;
      }
    }
  }

 private:
  static constexpr size_t kMinBuckets = 16;  // power of two

  size_t Bucket(size_t hash) const { return hash & (num_buckets_ - 1); }

  T* FromNode(IntrusiveMapNode* n) const {
    return reinterpret_cast<T*>(reinterpret_cast<char*>(n) - offset_);
  }

  void Rehash(size_t new_buckets) {
    auto fresh = std::make_unique<IntrusiveMapNode*[]>(new_buckets);
    for (size_t i = 0; i < new_buckets; ++i) fresh[i] = nullptr;
    size_t old_count = num_buckets_;
    auto old = std::move(buckets_);
    buckets_ = std::move(fresh);
    num_buckets_ = new_buckets;
    [[maybe_unused]] size_t relinked = 0;
    for (size_t i = 0; i < old_count; ++i) {
      for (IntrusiveMapNode* n = old[i]; n != nullptr;) {
        IntrusiveMapNode* next = n->next;
        size_t b = Bucket(n->hash);
        n->next = buckets_[b];
        buckets_[b] = n;
        n = next;
        ++relinked;
      }
    }
    assert(relinked == size_);
  }

  std::unique_ptr<IntrusiveMapNode*[]> buckets_;
  size_t num_buckets_ = 0;
  size_t size_ = 0;
  ptrdiff_t offset_ = 0;
};

}  // namespace hermes

#endif  // HERMES_COMMON_INTRUSIVE_MAP_H_
