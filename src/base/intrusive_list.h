// Intrusive doubly-linked list (fbl-style). The scheduler's run queues, the
// timer wheel's slots and the buffer pool's free list use it so that queue
// operations never allocate.
//
// A type T participates by embedding an `IntrusiveListNode` and passing a
// member pointer to the list template. An element may be on at most one list
// per node at a time; insertion while linked is a CHECK failure.
#ifndef FLICK_BASE_INTRUSIVE_LIST_H_
#define FLICK_BASE_INTRUSIVE_LIST_H_

#include <cstddef>

#include "base/check.h"

namespace flick {

struct IntrusiveListNode {
  IntrusiveListNode* prev = nullptr;
  IntrusiveListNode* next = nullptr;
  void* owner = nullptr;  // back-pointer to the containing object, set on insert

  bool linked() const { return prev != nullptr; }
};

template <typename T, IntrusiveListNode T::* Node>
class IntrusiveList {
 public:
  IntrusiveList() {
    head_.prev = &head_;
    head_.next = &head_;
  }

  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  bool empty() const { return head_.next == &head_; }
  size_t size() const { return size_; }

  void PushBack(T* item) { InsertBefore(&head_, item); }
  void PushFront(T* item) { InsertBefore(head_.next, item); }

  T* PopFront() {
    if (empty()) {
      return nullptr;
    }
    IntrusiveListNode* n = head_.next;
    T* item = static_cast<T*>(n->owner);
    Unlink(n);
    return item;
  }

  T* Front() { return empty() ? nullptr : static_cast<T*>(head_.next->owner); }

  // Successor of a linked `item`, or nullptr at the tail. With Front() this
  // gives bounded in-place scans (the scheduler's selective cross-group
  // steal) without materialising an iterator type.
  T* Next(const T* item) const {
    const IntrusiveListNode* n = (item->*Node).next;
    return n == &head_ ? nullptr : static_cast<T*>(n->owner);
  }

  // Removes `item` from this list. `item` must be linked.
  void Remove(T* item) {
    IntrusiveListNode* n = &(item->*Node);
    FLICK_CHECK(n->linked());
    Unlink(n);
  }

  static bool IsLinked(const T* item) { return (item->*Node).linked(); }

 private:
  void InsertBefore(IntrusiveListNode* pos, T* item) {
    IntrusiveListNode* n = &(item->*Node);
    FLICK_CHECK(!n->linked());
    n->owner = item;
    n->prev = pos->prev;
    n->next = pos;
    pos->prev->next = n;
    pos->prev = n;
    ++size_;
  }

  void Unlink(IntrusiveListNode* n) {
    n->prev->next = n->next;
    n->next->prev = n->prev;
    n->prev = nullptr;
    n->next = nullptr;
    --size_;
  }

  IntrusiveListNode head_;
  size_t size_ = 0;
};

}  // namespace flick

#endif  // FLICK_BASE_INTRUSIVE_LIST_H_
