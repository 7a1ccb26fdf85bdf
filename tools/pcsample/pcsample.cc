// PC sampler: an LD_PRELOAD library that records where a program spends its
// host time, without a rebuild and without trusting call arcs (gprof's arcs
// and flat profile both misattribute coroutine bodies; docs/INTERNALS.md
// §12). Build it as the `pcsample` target and run
//
//   LD_PRELOAD=build/tools/pcsample/libpcsample.so PCSAMPLE_OUT=run.pcs <program>
//   python3 tools/pcsample/pcreport.py run.pcs
//
// At load it arms a 10 kHz CLOCK_MONOTONIC timer aimed at the loading
// thread (a CPU-time clock would fire only at the kernel tick). Each SIGPROF
// stores the interrupted PC. At exit it
// writes one line per distinct PC: "<count> <object> <address> <symbol>",
// where <address> is what `addr2line -e <object>` takes (relative to the
// object for shared objects and PIE executables, absolute for fixed-address
// executables) and <symbol> is dladdr's nearest dynamic symbol ("-" if
// none). PCSAMPLE_OUT may contain %p for the process id (default
// pcsample.%p.txt), so a forked and exec'd child writes its own file.
//
// The timer runs on wall time, so samples also land while the thread is
// blocked in a system call; pcreport.py drops those.
#include <dlfcn.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr long kSamplesPerSecond = 10000;
constexpr size_t kMaxSamples = size_t{1} << 23;  // ~14 min of samples

uintptr_t* g_pcs = nullptr;
volatile size_t g_count = 0;
timer_t g_timer;
bool g_armed = false;
pid_t g_pid = 0;

void OnSample(int, siginfo_t*, void* ctx) {
  const auto* uc = static_cast<const ucontext_t*>(ctx);
#if defined(__x86_64__)
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
#else
  const uintptr_t pc = 0;
  (void)uc;
#endif
  const size_t n = g_count;
  if (n < kMaxSamples) {
    g_pcs[n] = pc;
    g_count = n + 1;
  }
}

std::string OutPath() {
  const char* env = std::getenv("PCSAMPLE_OUT");
  std::string path = env != nullptr && env[0] != '\0' ? env : "pcsample.%p.txt";
  const size_t at = path.find("%p");
  if (at != std::string::npos) path.replace(at, 2, std::to_string(getpid()));
  return path;
}

__attribute__((constructor)) void StartSampling() {
  g_pcs = static_cast<uintptr_t*>(std::calloc(kMaxSamples, sizeof(uintptr_t)));
  if (g_pcs == nullptr) return;

  struct sigaction sa {};
  sa.sa_sigaction = OnSample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;

  struct sigevent sev {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) return;
  struct itimerspec its {};
  its.it_interval.tv_nsec = 1000000000L / kSamplesPerSecond;
  its.it_value = its.it_interval;
  if (timer_settime(g_timer, 0, &its, nullptr) != 0) {
    timer_delete(g_timer);
    return;
  }
  g_pid = getpid();
  g_armed = true;
}

__attribute__((destructor)) void StopSampling() {
  // A forked child that never exec'd inherits the flag but not the timer.
  if (!g_armed || getpid() != g_pid) return;
  timer_delete(g_timer);
  g_armed = false;
  const size_t n = g_count;
  std::sort(g_pcs, g_pcs + n);

  const std::string path = OutPath();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "pcsample: cannot write %s\n", path.c_str());
    return;
  }
  // dladdr names the main program by argv[0], which may be relative.
  std::string exe = "?";
  char buf[4096];
  if (ssize_t len = readlink("/proc/self/exe", buf, sizeof(buf) - 1); len > 0) {
    exe.assign(buf, static_cast<size_t>(len));
  }
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && g_pcs[j] == g_pcs[i]) ++j;
    const uintptr_t pc = g_pcs[i];
    Dl_info info{};
    if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 && info.dli_fname != nullptr) {
      // A fixed-address executable's DWARF uses absolute addresses.
      const auto* ehdr = static_cast<const ElfW(Ehdr)*>(info.dli_fbase);
      const uintptr_t addr =
          ehdr->e_type == ET_EXEC ? pc : pc - reinterpret_cast<uintptr_t>(info.dli_fbase);
      std::fprintf(out, "%zu %s 0x%lx %s\n", j - i,
                   info.dli_fname[0] == '/' ? info.dli_fname : exe.c_str(),
                   static_cast<unsigned long>(addr),
                   info.dli_sname != nullptr ? info.dli_sname : "-");
    } else {
      std::fprintf(out, "%zu ? 0x%lx -\n", j - i, static_cast<unsigned long>(pc));
    }
    i = j;
  }
  std::fclose(out);
  std::fprintf(stderr, "pcsample: %zu samples -> %s\n", n, path.c_str());
}

}  // namespace
