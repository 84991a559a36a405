// Shows that the benchmark's result check accepts exactly the UDF applied
// to a seeded or written value, with the tuple's own params, and rejects
// every other result.
#include <cctype>
#include <cstdio>
#include <string>

#include "result_check.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;
  constexpr uint64_t kSeed = 42;
  constexpr size_t kBytes = 100;
  ResultChecker checker(kSeed, /*num_keys=*/64, kBytes);

  const std::string seeded = SeedValue(kSeed, 5, kBytes);
  const std::string right = Udf(5, "17", seeded);
  Expect(checker.Matches(5, "17", right), "seeded result accepted");

  std::string flipped = right;
  flipped[3] = flipped[3] == 'a' ? 'b' : 'a';
  Expect(!checker.Matches(5, "17", flipped), "corrupted digest rejected");
  Expect(!checker.Matches(5, "18", right), "another tuple's result rejected");
  Expect(!checker.Matches(6, "17", right), "another key's result rejected");
  std::string upper = right;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  Expect(upper == right || !checker.Matches(5, "17", upper),
         "result not in the UDF's lowercase form rejected");
  Expect(!checker.Matches(5, "17", right + "x"), "trailing bytes rejected");
  Expect(!checker.Matches(5, "17",
                          Udf(5, "17", SeedValue(kSeed + 1, 5, kBytes))),
         "value from another seed rejected");
  Expect(!checker.Matches(64, "17", right),
         "key outside the universe rejected");

  const std::string written = WriteValue(kSeed, 5, 1, kBytes);
  Expect(!checker.Matches(5, "17", Udf(5, "17", written)),
         "unrecorded write rejected");
  checker.RecordWrite(5, Digest(5, written));
  Expect(checker.Matches(5, "17", Udf(5, "17", written)),
         "recorded write accepted");
  Expect(checker.Matches(5, "17", right), "seeded value still accepted");
  Expect(!checker.Matches(5, "17",
                          Udf(5, "17", WriteValue(kSeed, 5, 2, kBytes))),
         "later unrecorded write rejected");

  if (failures == 0) std::printf("result check: all cases pass\n");
  return failures == 0 ? 0 : 1;
}
