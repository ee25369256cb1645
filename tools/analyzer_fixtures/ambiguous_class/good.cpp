// Fixture (positive): the same engine with one name per class. Each
// inventory row belongs to one class, and Log's counter is atomic, so the
// certificate passes.

namespace fixture {

class Cache {
 public:
  void touch();

 private:
  struct CacheEntry {
    Mutex mu;
    long hits IDS_GUARDED_BY(mu) = 0;
  };
  CacheEntry entry_;
};

class Log {
 public:
  void record();

 private:
  struct LogEntry {
    std::atomic<long> hits{0};
  };
  LogEntry last_;
};

class IdsEngine {
 public:
  int execute();

 private:
  Cache cache_;
  Log log_;
};

void Cache::touch() {
  MutexLock lock(entry_.mu);
  entry_.hits += 1;
}

void Log::record() { last_.hits.fetch_add(1); }

int IdsEngine::execute() {
  cache_.touch();
  log_.record();
  return 0;
}

}  // namespace fixture
