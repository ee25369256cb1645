// Fixture (positive): everything execute() reaches is immutable, guarded,
// or atomic — the certificate passes.

namespace fixture {

const long kQueryLimit = 64;

class IdsEngine {
 public:
  int execute();

 private:
  Mutex mu_;
  long served_ IDS_GUARDED_BY(mu_) = 0;
  std::atomic<long> ticks_{0};
};

int IdsEngine::execute() {
  static constexpr int kBatch = 8;
  {
    MutexLock lock(mu_);
    served_ += 1;
  }
  ticks_.fetch_add(1);
  return static_cast<int>(kQueryLimit) + kBatch;
}

}  // namespace fixture
