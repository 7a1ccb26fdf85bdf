#include "CoroutineRefCaptureCheck.h"

#include "LintAllow.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "llvm/ADT/StringExtras.h"
#include "llvm/ADT/StringRef.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace magesim {

// Machine-lifetime types: constructed before the engine runs, destroyed
// after it drains, so a reference held in any coroutine frame cannot
// dangle. Mirrors MAGESIM_LONG_LIVED_TYPES in magesim_tidy_lite.py.
static const char kDefaultLongLived[] =
    "Engine;Topology;TlbShootdownManager;RdmaNic;Kernel;FarMemoryMachine;"
    "TenancyManager;ResilienceManager;MemoryNode;FleetManager;"
    "RebuildDriver;AppThread;Workload;MachineParams;KernelConfig;SimMutex;"
    "SimEvent;SimSemaphore;MetricsRegistry;MetricsSampler;"
    "SpanTracer;PageFrame;PageTable;PageAccounting;PageAllocator;FramePool;"
    "BuddyAllocator;SwapAllocator;VmaResolver;Prefetcher;CircuitBreaker;"
    "MemCgroup;LockAnalyzer;Rng;ZipfGenerator;FaultInjector;KernelStats;char";

CoroutineRefCaptureCheck::CoroutineRefCaptureCheck(StringRef Name,
                                                  ClangTidyContext *Context)
    : ClangTidyCheck(Name, Context),
      CheckParameters(Options.get("CheckParameters", true)),
      LongLivedTypesStr(Options.get("LongLivedTypes", kDefaultLongLived)) {
  llvm::SmallVector<llvm::StringRef, 32> Parts;
  llvm::StringRef(LongLivedTypesStr).split(Parts, ';', -1, false);
  for (llvm::StringRef P : Parts)
    LongLivedTypes.push_back(P.trim().str());
}

void CoroutineRefCaptureCheck::storeOptions(ClangTidyOptions::OptionMap &Opts) {
  Options.store(Opts, "CheckParameters", CheckParameters);
  Options.store(Opts, "LongLivedTypes", LongLivedTypesStr);
}

void CoroutineRefCaptureCheck::registerMatchers(MatchFinder *Finder) {
  // Lambda coroutines with by-reference state.
  Finder->addMatcher(
      lambdaExpr(hasDescendant(coawaitExpr())).bind("lambda"), this);
  // Coroutine function definitions (body contains co_await).
  if (CheckParameters) {
    Finder->addMatcher(functionDecl(isDefinition(), hasBody(stmt()),
                                    hasDescendant(coawaitExpr()))
                           .bind("coro"),
                       this);
  }
}

bool CoroutineRefCaptureCheck::IsLongLived(QualType Pointee) const {
  // Word-scan the printed type so `const std::vector<PageFrame*>&` counts as
  // long-lived via its element type — a container of machine-lifetime
  // objects handed down the call chain is this codebase's dominant safe
  // idiom. Mirrors the lite fallback's behavior exactly.
  std::string Printed = Pointee.getAsString();
  llvm::StringRef S(Printed);
  size_t I = 0;
  while (I < S.size()) {
    if (!llvm::isAlpha(S[I]) && S[I] != '_') {
      ++I;
      continue;
    }
    size_t J = I;
    while (J < S.size() && (llvm::isAlnum(S[J]) || S[J] == '_'))
      ++J;
    llvm::StringRef Word = S.slice(I, J);
    for (const std::string &T : LongLivedTypes)
      if (Word == T)
        return true;
    I = J;
  }
  return false;
}

void CoroutineRefCaptureCheck::check(const MatchFinder::MatchResult &Result) {
  const SourceManager &SM = *Result.SourceManager;

  if (const auto *Lambda = Result.Nodes.getNodeAs<LambdaExpr>("lambda")) {
    SourceLocation Loc = Lambda->getBeginLoc();
    if (Loc.isInvalid() || SM.isInSystemHeader(Loc))
      return;
    if (LineHasAllow(SM, Loc, "coroutine-ref-capture"))
      return;
    if (Lambda->getCaptureDefault() == LCD_ByRef) {
      diag(Loc, "coroutine lambda captures by reference ([&]); captures may "
                "dangle after the first suspension — capture by value or "
                "justify with '// magesim-lint: allow(coroutine-ref-capture): "
                "<reason>'");
      return;
    }
    for (const LambdaCapture &Cap : Lambda->captures()) {
      if (!Cap.isExplicit())
        continue;
      if (Cap.getCaptureKind() == LCK_ByRef || Cap.getCaptureKind() == LCK_This) {
        diag(Cap.getLocation().isValid() ? Cap.getLocation() : Loc,
             "coroutine lambda holds a by-reference capture live across "
             "co_await; it may dangle after the first suspension");
        return;
      }
    }
    return;
  }

  const auto *Coro = Result.Nodes.getNodeAs<FunctionDecl>("coro");
  if (Coro == nullptr || !CheckParameters)
    return;
  const Stmt *Body = Coro->getBody();
  if (Body == nullptr)
    return;
  SourceLocation FnLoc = Coro->getBeginLoc();
  if (FnLoc.isInvalid() || SM.isInSystemHeader(FnLoc))
    return;

  // Earliest co_await in source order.
  auto Awaits = match(findAll(coawaitExpr().bind("aw")), *Body, *Result.Context);
  SourceLocation FirstAwait;
  for (const auto &BN : Awaits) {
    const auto *Aw = BN.getNodeAs<CoawaitExpr>("aw");
    if (Aw == nullptr)
      continue;
    SourceLocation L = SM.getExpansionLoc(Aw->getBeginLoc());
    if (FirstAwait.isInvalid() ||
        SM.isBeforeInTranslationUnit(L, FirstAwait))
      FirstAwait = L;
  }
  if (FirstAwait.isInvalid())
    return;

  for (const ParmVarDecl *P : Coro->parameters()) {
    QualType T = P->getType();
    QualType Pointee;
    bool RvalueRef = false;
    if (T->isRValueReferenceType()) {
      Pointee = T->getPointeeType();
      RvalueRef = true;
    } else if (T->isLValueReferenceType()) {
      Pointee = T->getPointeeType();
    } else if (T->isPointerType()) {
      Pointee = T->getPointeeType();
    } else {
      continue;  // by value: copied into the frame, safe
    }
    if (!RvalueRef && IsLongLived(Pointee))
      continue;
    // Any use lexically after the first co_await?
    auto Uses = match(
        findAll(declRefExpr(to(parmVarDecl(equalsNode(P)))).bind("use")),
        *Body, *Result.Context);
    for (const auto &BN : Uses) {
      const auto *Use = BN.getNodeAs<DeclRefExpr>("use");
      if (Use == nullptr)
        continue;
      SourceLocation UL = SM.getExpansionLoc(Use->getBeginLoc());
      if (!SM.isBeforeInTranslationUnit(UL, FirstAwait)) {
        if (LineHasAllow(SM, P->getLocation(), "coroutine-ref-capture") ||
            LineHasAllow(SM, FnLoc, "coroutine-ref-capture") ||
            LineHasAllow(SM, UL, "coroutine-ref-capture"))
          break;
        diag(P->getLocation(),
             "%0 parameter '%1' of a coroutine is used after a co_await; "
             "if this task is ever detached the referent may be gone — pass "
             "by value, use a machine-lifetime type, or justify with "
             "'// magesim-lint: allow(coroutine-ref-capture): <reason>'")
            << (RvalueRef ? "rvalue-reference"
                          : (T->isPointerType() ? "pointer" : "reference"))
            << P->getName();
        diag(UL, "first use after suspension is here", DiagnosticIDs::Note);
        break;
      }
    }
  }
}

}  // namespace magesim
}  // namespace tidy
}  // namespace clang
