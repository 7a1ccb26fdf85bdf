// Client side of the magebench_reference process (driver/reference.cc).
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <stdexcept>

#include "magebench/driver/bench.h"

extern char** environ;

namespace magebench {

Yardsticks::Yardsticks(const std::string& path) {
  int to[2], from[2];
  if (pipe2(to, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (pipe2(from, O_CLOEXEC) != 0) {
    close(to[0]);
    close(to[1]);
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, to[0], 0);
  posix_spawn_file_actions_adddup2(&fa, from[1], 1);
  char* argv[] = {const_cast<char*>(path.c_str()), nullptr};
  int err = posix_spawn(&pid_, path.c_str(), &fa, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&fa);
  close(to[0]);
  close(from[1]);
  if (err != 0) {
    close(to[1]);
    close(from[0]);
    pid_ = -1;
    throw std::runtime_error("cannot start " + path);
  }
  to_ = fdopen(to[1], "w");
  from_ = fdopen(from[0], "r");
}

Yardsticks::~Yardsticks() {
  // End of input makes the process exit.
  if (to_ != nullptr) std::fclose(to_);
  if (from_ != nullptr) std::fclose(from_);
  if (pid_ > 0) {
    int status = 0;
    waitpid(pid_, &status, 0);
  }
}

double Yardsticks::Seconds(char kind) {
  char line[64];
  if (std::fprintf(to_, "%c %d\n", kind, sched_getcpu()) < 0 || std::fflush(to_) != 0 ||
      std::fgets(line, sizeof(line), from_) == nullptr) {
    throw std::runtime_error("the reference process did not answer");
  }
  char* end = nullptr;
  double secs = std::strtod(line, &end);
  if (end == line || !(secs > 0)) throw std::runtime_error("bad reference answer");
  return secs;
}

}  // namespace magebench
