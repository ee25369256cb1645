// Fixture (negative): shared mutable state on the execute path. Four
// shapes `--certify=concurrent-exec` must flag under [shared-state]:
//   1. IdsEngine::served_ is a plain member written during execute().
//   2. execute() keeps a mutable function-local static cursor.
//   3. g_queries is a mutable namespace-scope global.
//   4. IdsEngine::scratch_ is a per-query scratch buffer reused across
//      queries: a mutating call during execute() is a write too.
// None of these fire in default mode — [shared-state] is certify-only.

namespace fixture {

long g_queries = 0;

class IdsEngine {
 public:
  int execute();

 private:
  long served_ = 0;
  std::vector<int> scratch_;
};

int IdsEngine::execute() {
  static int cursor = 0;
  ++cursor;
  served_ += 1;
  g_queries += 1;
  scratch_.push_back(cursor);
  return cursor;
}

}  // namespace fixture
