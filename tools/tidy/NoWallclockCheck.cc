#include "NoWallclockCheck.h"

#include "LintAllow.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace magesim {

NoWallclockCheck::NoWallclockCheck(StringRef Name, ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      AllowedFilesRegex(Options.get(
          "AllowedFilesRegex",
          "(^|/)(bench|tests|tools|examples)/|perf_common")),
      AllowedFiles(AllowedFilesRegex) {}

void NoWallclockCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "AllowedFilesRegex", AllowedFilesRegex);
}

void NoWallclockCheck::registerMatchers(MatchFinder *Finder) {
  // C-library wall-clock / entropy entry points. Both the global and the
  // std:: spellings resolve to the same redeclarations.
  Finder->addMatcher(
      callExpr(callee(functionDecl(hasAnyName(
                   "::time", "::std::time", "::clock", "::std::clock",
                   "::gettimeofday", "::clock_gettime", "::localtime",
                   "::gmtime", "::rand", "::std::rand", "::srand",
                   "::std::srand", "::random", "::drand48", "::getentropy"))))
          .bind("call"),
      this);
  // std::chrono wall clocks: any call to <clock>::now().
  Finder->addMatcher(
      callExpr(callee(functionDecl(
                   hasName("now"),
                   hasDeclContext(cxxRecordDecl(hasAnyName(
                       "::std::chrono::system_clock",
                       "::std::chrono::steady_clock",
                       "::std::chrono::high_resolution_clock"))))))
          .bind("clock"),
      this);
  // std::random_device: flagged at construction (every use needs one).
  Finder->addMatcher(
      cxxConstructExpr(hasType(cxxRecordDecl(hasName("::std::random_device"))))
          .bind("rd"),
      this);
}

bool NoWallclockCheck::InAllowedFile(const SourceManager &SM,
                                     SourceLocation Loc) {
  StringRef File = SM.getFilename(SM.getExpansionLoc(Loc));
  return !File.empty() && AllowedFiles.match(File);
}

void NoWallclockCheck::check(const MatchFinder::MatchResult &Result) {
  const SourceManager &SM = *Result.SourceManager;
  const Expr *E = nullptr;
  StringRef What;
  if (const auto *Call = Result.Nodes.getNodeAs<CallExpr>("call")) {
    E = Call;
    if (const FunctionDecl *FD = Call->getDirectCallee())
      What = FD->getName();
  } else if (const auto *Clock = Result.Nodes.getNodeAs<CallExpr>("clock")) {
    E = Clock;
    What = "std::chrono clock ::now";
  } else if (const auto *RD = Result.Nodes.getNodeAs<CXXConstructExpr>("rd")) {
    E = RD;
    What = "std::random_device";
  }
  if (E == nullptr)
    return;
  SourceLocation Loc = E->getBeginLoc();
  if (Loc.isInvalid() || SM.isInSystemHeader(Loc))
    return;
  if (InAllowedFile(SM, Loc) || LineHasAllow(SM, Loc, "no-wallclock"))
    return;
  diag(Loc, "wall-clock/entropy source '%0' in simulation code; use SimTime "
            "(Engine::now) or the seeded magesim::Rng, or justify with "
            "'// magesim-lint: allow(no-wallclock): <reason>'")
      << What;
}

}  // namespace magesim
}  // namespace tidy
}  // namespace clang
