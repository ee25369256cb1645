// Fixture (negative): two classes reachable from IdsEngine::execute share
// the short name `Entry`. The certificate keys fields by short name, so
// Cache's guarded Entry::hits stands in for Log's Entry::hits, which
// execute() increments with no lock: a certificate that merged the two
// would pass. `--certify=concurrent-exec` must flag [ambiguous-class].

namespace fixture {

class Cache {
 public:
  void touch();

 private:
  struct Entry {
    Mutex mu;
    long hits IDS_GUARDED_BY(mu) = 0;
  };
  Entry entry_;
};

class Log {
 public:
  void record();

 private:
  struct Entry {
    long hits = 0;
  };
  Entry last_;
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

void Log::record() { last_.hits += 1; }

int IdsEngine::execute() {
  cache_.touch();
  log_.record();
  return 0;
}

}  // namespace fixture
