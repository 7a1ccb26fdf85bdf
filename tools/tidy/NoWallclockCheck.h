// magesim-no-wallclock: ban wall-clock and ambient-entropy sources in
// simulation code.
//
// The determinism contract (docs/INTERNALS.md §4) requires byte-identical
// traces for a given seed. Any read of host time or host entropy breaks it
// silently: std::chrono::{system,steady,high_resolution}_clock::now(),
// time(), clock(), gettimeofday(), rand()/srand(), std::random_device.
// Simulation code must use SimTime (Engine::now) and the seeded magesim::Rng.
//
// Allowlist: the bench harness "wall" metric group measures the host on
// purpose; it matches AllowedFilesRegex.
// Site-level escapes use `// magesim-lint: allow(no-wallclock): <reason>`.
#ifndef MAGESIM_TOOLS_TIDY_NO_WALLCLOCK_CHECK_H_
#define MAGESIM_TOOLS_TIDY_NO_WALLCLOCK_CHECK_H_

#include "clang-tidy/ClangTidyCheck.h"
#include "llvm/Support/Regex.h"

namespace clang {
namespace tidy {
namespace magesim {

class NoWallclockCheck : public ClangTidyCheck {
 public:
  NoWallclockCheck(StringRef Name, ClangTidyContext *Context);
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
  void storeOptions(ClangTidyOptions::OptionMap &Opts) override;

 private:
  bool InAllowedFile(const SourceManager &SM, SourceLocation Loc);

  const std::string AllowedFilesRegex;
  llvm::Regex AllowedFiles;
};

}  // namespace magesim
}  // namespace tidy
}  // namespace clang

#endif  // MAGESIM_TOOLS_TIDY_NO_WALLCLOCK_CHECK_H_
