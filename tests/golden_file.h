// Golden-file checking shared by the tests that pin recorded outcomes
// (tests/golden/). A golden file holds a sequence of blocks, each opened by
// an "@@ <key>" line. On a mismatch the test prints the actual block in
// file format, so a deliberate behaviour change is made by editing the
// file and reviewing that edit — there is no regeneration switch.

#ifndef IDIVM_TESTS_GOLDEN_FILE_H_
#define IDIVM_TESTS_GOLDEN_FILE_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "gtest/gtest.h"

namespace idivm::testing {

// One golden file, loaded whole. Every recorded block must be checked at
// least once and every checked block must be recorded, so a case cannot
// silently grow or lose coverage.
class Golden {
 public:
  // `relative_path` is relative to tests/golden/.
  explicit Golden(const std::string& relative_path)
      : path_(std::string(IDIVM_GOLDEN_DIR) + "/" + relative_path) {
    std::ifstream in(path_);
    if (!in) {
      ADD_FAILURE() << "missing golden file " << path_;
      return;
    }
    std::string line;
    std::string* block = nullptr;
    while (std::getline(in, line)) {
      if (line.rfind("@@ ", 0) == 0) {
        block = &blocks_[line.substr(3)];
      } else if (block != nullptr) {
        *block += line + "\n";
      }
    }
  }

  Golden(const Golden&) = delete;
  Golden& operator=(const Golden&) = delete;

  ~Golden() {
    for (const auto& [key, text] : blocks_) {
      EXPECT_TRUE(checked_.count(key) > 0)
          << path_ << ": recorded block \"" << key << "\" was never produced";
    }
  }

  // Expects `actual` to be the block recorded under `key`.
  void Expect(const std::string& key, const std::string& actual,
              const std::string& context) {
    checked_.insert(key);
    const auto it = blocks_.find(key);
    if (it != blocks_.end() && it->second == actual) return;
    ADD_FAILURE() << path_ << " (" << context << "): "
                  << (it == blocks_.end() ? "no recorded block" : "mismatch")
                  << "; actual block in file format:\n@@ " << key << "\n"
                  << actual;
  }

 private:
  std::string path_;
  std::map<std::string, std::string> blocks_;
  std::set<std::string> checked_;
};

// FNV-1a, 64 bit.
inline uint64_t Fnv64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace idivm::testing

#endif  // IDIVM_TESTS_GOLDEN_FILE_H_
