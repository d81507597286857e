//===- util/io.cpp - EINTR/EAGAIN-safe fd I/O helpers ---------------------===//

#include "src/util/io.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

namespace genprove {

void ignoreSigPipe() { ::signal(SIGPIPE, SIG_IGN); }

bool setNonBlocking(int Fd, bool NonBlocking) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0)
    return false;
  int Want = NonBlocking ? (Flags | O_NONBLOCK) : (Flags & ~O_NONBLOCK);
  if (Want == Flags)
    return true;
  return ::fcntl(Fd, F_SETFL, Want) == 0;
}

ssize_t readChunk(int Fd, void *Buf, size_t Len) {
  for (;;) {
    ssize_t N = ::read(Fd, Buf, Len);
    if (N >= 0 || errno != EINTR)
      return N;
  }
}

static bool pollFor(int Fd, short Events, int TimeoutMs) {
  struct pollfd P;
  P.fd = Fd;
  P.events = Events;
  P.revents = 0;
  for (;;) {
    int R = ::poll(&P, 1, TimeoutMs);
    if (R >= 0)
      return R > 0;
    if (errno != EINTR)
      return false;
  }
}

bool writeFull(int Fd, const void *Buf, size_t Len) {
  const char *P = static_cast<const char *>(Buf);
  size_t Done = 0;
  while (Done < Len) {
    ssize_t N = ::write(Fd, P + Done, Len - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollFor(Fd, POLLOUT, -1);
        continue;
      }
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

bool writeFullDeadline(int Fd, const void *Buf, size_t Len,
                       double TimeoutSeconds) {
  if (TimeoutSeconds <= 0)
    return writeFull(Fd, Buf, Len);

  // Force non-blocking for the duration so a full socket buffer returns
  // EAGAIN instead of blocking past the budget; restore on exit.
  int OrigFlags = ::fcntl(Fd, F_GETFL, 0);
  bool WasBlocking = OrigFlags >= 0 && !(OrigFlags & O_NONBLOCK);
  if (WasBlocking)
    setNonBlocking(Fd, true);

  using Clock = std::chrono::steady_clock;
  auto Start = Clock::now();
  auto remainingMs = [&]() -> long {
    double Elapsed = std::chrono::duration<double>(Clock::now() - Start).count();
    double Left = TimeoutSeconds - Elapsed;
    return Left > 0 ? static_cast<long>(Left * 1000.0) + 1 : 0;
  };

  const char *P = static_cast<const char *>(Buf);
  size_t Done = 0;
  bool Ok = true;
  while (Done < Len) {
    ssize_t N = ::write(Fd, P + Done, Len - Done);
    if (N > 0) {
      Done += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      long Left = remainingMs();
      if (Left <= 0 || !pollFor(Fd, POLLOUT, static_cast<int>(Left))) {
        Ok = false; // Deadline exhausted with bytes still unqueued.
        break;
      }
      continue;
    }
    Ok = false; // Real error (EPIPE, ECONNRESET, ...).
    break;
  }

  if (WasBlocking)
    setNonBlocking(Fd, false);
  return Ok;
}

} // namespace genprove
