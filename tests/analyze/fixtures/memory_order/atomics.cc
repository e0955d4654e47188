// Fixture: every std::atomic operation must spell its memory order.
#include <atomic>

int Counters() {
  std::atomic<int> a{0};
  a.store(1);                                       // flagged
  a.fetch_add(2);                                   // flagged
  a.fetch_add(3, std::memory_order_relaxed);        // ok
  int expected = 6;
  a.compare_exchange_strong(expected, 7);           // flagged
  a.compare_exchange_strong(expected, 7,
                            std::memory_order_acq_rel,
                            std::memory_order_acquire);  // ok
  int x = a.load(std::memory_order_acquire);        // ok
  x += a.exchange(9);                               // flagged
  return x + a.load();                              // flagged
}

int SuppressedLoad() {
  std::atomic<int> a{0};
  return a.load();  // cirank-lint: disable=memory-order
}

// An explicit seq_cst is rejected too, in both spellings and in fences;
// mentions in comments (memory_order_seq_cst) and strings are not code.
int SequentiallyConsistent() {
  std::atomic<int> a{0};
  a.store(1, std::memory_order_seq_cst);            // flagged
  std::atomic_thread_fence(std::memory_order_seq_cst);  // flagged
  const char* doc = "std::memory_order_seq_cst";    // ok
  (void)doc;
  return a.load(std::memory_order::seq_cst);        // flagged
}
