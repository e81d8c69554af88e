// MUST NOT COMPILE under clang -Werror=thread-safety: calls a
// REQUIRES(mu_) member without holding mu_ — the "forgot the lock around
// the *Locked helper" bug class (e.g. SketchStore::Rebuild,
// ReplicaNode::RefreshWatermarkLocked).

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace {

class Store {
 public:
  // VIOLATION: RebuildLocked requires mu_, caller holds nothing.
  void Poke() { RebuildLocked(); }

 private:
  void RebuildLocked() RSR_REQUIRES(mu_) { ++generation_; }

  rsr::Mutex mu_;
  int generation_ RSR_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Store s;
  s.Poke();
  return 0;
}
